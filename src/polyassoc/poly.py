"""Sparse multivariate polynomials and their multilinear case.

A :class:`SparsePoly` maps exponent tuples to nonzero coefficients, e.g.
``x1^2*x2 + 3`` over Z in two variables is ``{(2, 1): 1, (0, 0): 3}``.
A :class:`MultilinearPoly` is a SparsePoly of per-variable degree <= 1 that
is also indexed by variable subsets encoded as bit masks (bit j-1 set
means variable x_j occurs).  Variable indices are 1-based throughout the
public API, matching the ``x1 .. xn`` naming of the expression grammar.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import combinations
from math import comb
from operator import add

from .rings import Ring, _pow

Monomial = tuple[int, ...]


class SparsePoly:
    """Exact sparse polynomial over one of the supported rings.

    Instances are immutable: ``terms`` is never written after construction,
    and the plan that :meth:`plan` builds once and keeps relies on that.
    """

    __slots__ = ("ring", "nvars", "terms", "_plan")

    def __init__(self, ring: Ring, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 1:
            raise ValueError("number of variables must be at least 1")
        clean: dict[Monomial, object] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            coeff = ring.coerce(coeff)
            if coeff:
                clean[exps] = coeff
        self.ring = ring
        self.nvars = nvars
        self.terms = clean
        self._plan = None

    @classmethod
    def _trusted(cls, ring: Ring, nvars: int, terms: dict[Monomial, object]) -> SparsePoly:
        """Wrap terms already keyed by valid exponent tuples with nonzero ring
        values, skipping the per-term checks of ``__init__``."""
        p = cls.__new__(cls)
        p.ring = ring
        p.nvars = nvars
        p.terms = terms
        p._plan = None
        return p

    @classmethod
    def zero(cls, ring: Ring, nvars: int) -> SparsePoly:
        return cls(ring, nvars)

    @classmethod
    def constant(cls, ring: Ring, nvars: int, value) -> SparsePoly:
        return SparsePoly(ring, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, ring: Ring, nvars: int, index: int) -> SparsePoly:
        """The polynomial x_index (1-based)."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return SparsePoly._trusted(ring, nvars, {tuple(exps): ring.one})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.ring.name}, {self.nvars}, {self.render()!r})"

    def __str__(self) -> str:
        return self.render()

    def __reduce__(self):
        return (SparsePoly, (self.ring, self.nvars, self.terms))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _compatible(self, other: SparsePoly) -> None:
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")

    def __neg__(self) -> SparsePoly:
        return SparsePoly._trusted(self.ring, self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            try:
                other = SparsePoly.constant(self.ring, self.nvars, other)
            except TypeError:
                return NotImplemented
        self._compatible(other)
        merged = dict(self.terms)
        _merge(merged, other.terms)
        return SparsePoly._trusted(self.ring, self.nvars, merged)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else -self.ring.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            try:
                scalar = self.ring.coerce(other)
            except TypeError:
                return NotImplemented
            return SparsePoly(
                self.ring, self.nvars, {e: c * scalar for e, c in self.terms.items()}
            )
        self._compatible(other)
        return SparsePoly._trusted(self.ring, self.nvars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> SparsePoly:
        return _pow(self, k, SparsePoly.constant(self.ring, self.nvars, 1))

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def degree_in_var(self, index: int) -> int:
        """Largest exponent of x_index (1-based); 0 for the zero polynomial."""
        if not 1 <= index <= self.nvars:
            raise IndexError(f"variable index {index} out of range 1..{self.nvars}")
        return max((e[index - 1] for e in self.terms), default=0)

    @property
    def is_multilinear(self) -> bool:
        return all(e <= 1 for exps in self.terms for e in exps)

    def evaluate(self, point: Sequence):
        """The value at ``point``, exact and of the ring's element type: ``plan``'s
        kernel on ``Ring.natives(point)``, which raises TypeError on a foreign
        coordinate, wrapped by ``Ring.element``."""
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        kernel, plan = self.plan()
        return self.ring.element(kernel(plan, self.ring.natives(point)))

    def plan(self) -> tuple:
        """The ring's kernel and its data (``Ring.plan``), built on the first
        call and kept; a MultilinearPoly reads the indices off its masks."""
        if self._plan is None:
            if isinstance(self, MultilinearPoly):
                coeffs = self.coeffs
                indices = [[j for j in range(m.bit_length()) if m >> j & 1] for m in coeffs]
            else:
                coeffs = self.terms
                indices = [[j for j, e in enumerate(exps) for _ in range(e)] for exps in coeffs]
            self._plan = self.ring.plan(coeffs.values(), indices)
        return self._plan

    def substitute(self, values: Sequence[SparsePoly]) -> SparsePoly:
        """Substitute a polynomial for every variable (all in the same target arity).

        A one-term value c*x^f (a variable, a monomial, a constant) folds
        into each term as f*e and c**e at exponent e, with no power built.
        Each power ``values[j] ** e``, e >= 2, of another value is computed
        once per call, in ascending order: one product from ``values[j] **
        (e - 1)`` when that power is needed too, else by square-and-multiply.
        With at most one factor of two or more terms left, each product term
        goes straight into the result; two or more are multiplied into it
        smallest first (``_mul_terms``), so a large one is multiplied once.
        """
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} substitution values")
        target = values[0].nvars
        for v in values:
            if v.ring is not self.ring or v.nvars != target:
                raise ValueError("substitution values must share ring and arity")
        constant = (0,) * target
        powers: dict[tuple[int, int], SparsePoly] = {}
        for j, e in sorted({(j, e) for exps in self.terms for j, e in enumerate(exps) if e > 1}):
            if len(values[j].terms) != 1:
                below = values[j] if e == 2 else powers.get((j, e - 1))
                powers[j, e] = values[j] ** e if below is None else below * values[j]
        out: dict[Monomial, object] = {}
        for exps, coeff in self.terms.items():
            mono, wide = constant, []
            for j, e in enumerate(exps):
                if e:
                    factor = values[j].terms
                    if len(factor) != 1:
                        wide.append(factor if e == 1 else powers[j, e].terms)
                        continue
                    [(f, c)] = factor.items()
                    if e > 1:
                        f, c = [g * e for g in f], c**e
                    mono, coeff = tuple(map(add, mono, f)), coeff * c
            if len(wide) > 1:
                term = {mono: coeff}
                for factor in sorted(wide, key=len):
                    term = _mul_terms(term, factor)
                products = term.items()
            elif wide:  # each product term goes straight into ``out``
                products = ((tuple(map(add, mono, f)), coeff * c) for f, c in wide[0].items())
            else:
                products = ((mono, coeff),)
            for e, c in products:
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return SparsePoly._trusted(self.ring, target, out)

    def to_multilinear(self) -> MultilinearPoly | None:
        """The subset-indexed form, or None when some variable has degree >= 2.
        Masks are Python ints, so any arity has a mask view."""
        coeffs: dict[int, object] = {}
        for exps, coeff in self.terms.items():
            mask = 0
            for j, e in enumerate(exps):
                if e > 1:
                    return None
                if e:
                    mask |= 1 << j
            coeffs[mask] = coeff
        return MultilinearPoly._trusted(self.ring, self.nvars, coeffs, self.terms)

    def render(self) -> str:
        """Canonical text form, re-parseable by the expression grammar: terms
        in descending graded-lexicographic order."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        graded = sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        for exps, coeff in graded:
            mono = _monomial_str(exps)
            body = self.ring.grammar_str(coeff)
            sign = "+"
            if body.startswith("-"):
                sign, body = "-", body[1:]
            if mono:
                body = mono if body == "1" else f"{body}*{mono}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


# SparsePoly's ``terms`` slot, where MultilinearPoly.terms keeps its tuples
_TERMS = SparsePoly.terms


class MultilinearPoly(SparsePoly):
    """The multilinear case of :class:`SparsePoly`, indexed by variable subsets.

    ``coeffs`` maps a bit mask over 1..n to its coefficient; missing masks
    mean coefficient zero.  The empty mask holds the constant term.  The
    exponent-tuple ``terms`` that the inherited methods read are built from
    ``coeffs`` on first read and kept, so a table that is only decided mask
    by mask never builds them.
    """

    __slots__ = ("coeffs",)

    def __init__(self, ring: Ring, n: int, coeffs: Mapping[int, object] | None = None):
        if n < 1:
            raise ValueError("arity must be at least 1")
        clean: dict[int, object] = {}
        for mask, coeff in (coeffs or {}).items():
            if not 0 <= mask < 1 << n:
                raise ValueError(f"mask {mask} is not a subset of 1..{n}")
            coeff = ring.coerce(coeff)
            if coeff:
                clean[mask] = coeff
        self.ring = ring
        self.nvars = n
        self.coeffs = clean
        self._plan = None
        _TERMS.__set__(self, None)

    @classmethod
    def _trusted(cls, ring: Ring, n: int, coeffs: dict, terms=None) -> MultilinearPoly:
        """Wrap nonzero ring values keyed by masks over 1..n, without the checks
        of ``__init__``; ``terms``, if given, is the same table by exponent tuples."""
        p = cls.__new__(cls)
        p.ring = ring
        p.nvars = n
        p.coeffs = coeffs
        p._plan = None
        _TERMS.__set__(p, terms)
        return p

    @property
    def terms(self) -> dict[Monomial, object]:
        """The exponent-tuple form of ``coeffs``, built on first read."""
        terms = _TERMS.__get__(self)
        if terms is None:
            n = self.nvars
            terms = {tuple((m >> j) & 1 for j in range(n)): c for m, c in self.coeffs.items()}
            _TERMS.__set__(self, terms)
        return terms

    @property
    def n(self) -> int:
        return self.nvars

    def __reduce__(self):
        return (MultilinearPoly, (self.ring, self.nvars, self.coeffs))

    def __eq__(self, other) -> bool:
        """Equality as polynomials; against another MultilinearPoly it compares
        masks and never builds ``terms``."""
        if not isinstance(other, MultilinearPoly):
            return SparsePoly.__eq__(self, other)
        return (
            self.ring is other.ring
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    __hash__ = SparsePoly.__hash__  # defining __eq__ alone would unset it

    def coeff(self, mask: int):
        return self.coeffs.get(mask, self.ring.zero)

    def is_symmetric(self) -> bool:
        """True iff the coefficient depends only on the subset size: each stored
        size k has one value on all C(n, k) masks (absent sizes are zero)."""
        by_size: dict[int, list] = {}  # size -> [value, masks seen]
        for mask, c in self.coeffs.items():
            entry = by_size.setdefault(mask.bit_count(), [c, 0])
            if entry[0] != c:
                return False
            entry[1] += 1
        return all(seen == comb(self.n, k) for k, (_, seen) in by_size.items())

    def to_multilinear(self) -> MultilinearPoly:
        return self

    # its own entry, so bench/layertrace.py traces it apart from SparsePoly's
    evaluate = SparsePoly.evaluate


def _mul_terms(a: Mapping[Monomial, object], b: Mapping[Monomial, object]) -> dict:
    """The product of two term dicts, dropping sums that vanish."""
    product: dict[Monomial, object] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = product.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                product[e] = s
            else:
                product.pop(e, None)
    return product


def _merge(into: dict[Monomial, object], terms: Mapping[Monomial, object]) -> None:
    """Add ``terms`` into the coefficient dict ``into``, dropping sums that vanish."""
    for e, c in terms.items():
        s = into.get(e)
        s = c if s is None else s + c
        if s:
            into[e] = s
        else:
            del into[e]


def from_size_coeffs(ring: Ring, n: int, size_coeffs: Sequence) -> MultilinearPoly:
    """The symmetric multilinear polynomial sum_k c_k * (elementary symmetric of degree k)."""
    if len(size_coeffs) != n + 1:
        raise ValueError(f"expected {n + 1} coefficients")
    return MultilinearPoly(ring, n, _size_table(n, size_coeffs))


def _size_table(n: int, size_coeffs: Sequence) -> dict[int, object]:
    """c_k on every mask of size k, for the sizes k whose c_k is nonzero only."""
    return {
        sum(1 << j for j in subset): c
        for k, c in enumerate(size_coeffs) if c for subset in combinations(range(n), k)
    }


def _monomial_str(exps: Monomial) -> str:
    """``x1*x3^2`` for (1, 0, 2); the empty string for the constant monomial."""
    return "*".join(f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(exps) if e)


class _Value:
    """Base of the package's immutable value objects: verdicts, classifications,
    reports.  A subclass names its fields in ``__slots__`` and its ``__init__``
    passes them here in that order.  Instances are equal when of one class with
    equal fields, hash by their fields and repr as ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
