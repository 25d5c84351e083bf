"""Sparse multivariate polynomials and their multilinear case.

A :class:`SparsePoly` maps packed monomials to nonzero coefficients: x1^e1*...*xn^en
is the sum of e_j << width*(j-1), so multiplying monomials adds ints and numeric
order is colex order (Kronecker substitution; Monagan and Pearce, CASC 2007).
``top`` bounds every exponent and the width holds it: ``x1^2*x2 + 3`` over Z has
top 2, width 2 and ``coeffs`` ``{0b0110: 1, 0: 3}``.  A :class:`MultilinearPoly`
is the width-1 case, keyed by variable masks; ``terms`` is the exponent-tuple
view.  Variable indices are 1-based, as ``x1 .. xn`` in the expression grammar.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

from .rings import Ring, _pow

Monomial = tuple[int, ...]


class SparsePoly:
    """Exact sparse polynomial over one of the supported rings.

    Instances are immutable: ``coeffs`` is never written after construction,
    and the plan that is built once and kept relies on that.
    """

    __slots__ = ("ring", "nvars", "coeffs", "top", "width", "_plan")

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
        top = max(map(max, clean), default=0)
        w = top.bit_length() or 1
        self.ring, self.nvars, self.top, self.width = ring, nvars, top, w
        self.coeffs = {sum(x << w * j for j, x in enumerate(e)): c for e, c in clean.items()}
        self._plan = None

    @classmethod
    def _trusted(cls, ring: Ring, nvars: int, coeffs: dict, top=1, width=0):
        """Wrap nonzero ring values keyed by monomials packed at ``width`` (by
        default the least that holds ``top``, a bound on every exponent)."""
        p = cls.__new__(cls)
        p.ring, p.nvars, p.coeffs, p.top = ring, nvars, coeffs, top
        p.width, p._plan = width or top.bit_length() or 1, None
        return p

    @classmethod
    def zero(cls, ring: Ring, nvars: int) -> SparsePoly:
        return cls(ring, nvars)

    @classmethod
    def constant(cls, ring: Ring, nvars: int, value) -> SparsePoly:
        if nvars < 1:
            raise ValueError("number of variables must be at least 1")
        value = ring.coerce(value)
        return SparsePoly._trusted(ring, nvars, {0: value} if value else {}, 0)

    @classmethod
    def variable(cls, ring: Ring, nvars: int, index: int) -> SparsePoly:
        """The polynomial x_index (1-based)."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range 1..{nvars}")
        return SparsePoly._trusted(ring, nvars, {1 << index - 1: ring.one})

    @property
    def terms(self) -> dict[Monomial, object]:
        """The exponent-tuple view of ``coeffs``, built on each read."""
        n, width = self.nvars, self.width
        return {_unpack(k, n, width): c for k, c in self.coeffs.items()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.ring.name}, {self.nvars}, {self.render()!r})"

    def __str__(self) -> str:
        return self.render()

    def __reduce__(self):
        return type(self)._trusted, (self.ring, self.nvars, self.coeffs, self.top, self.width)

    def __eq__(self, other) -> bool:  # compared at the wider width
        if not isinstance(other, SparsePoly):
            return NotImplemented
        width = max(self.width, other.width)
        return self.ring is other.ring and self.nvars == other.nvars and (
            self._at(width) == other._at(width))

    def __hash__(self):
        return hash((self.ring, self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _compatible(self, other: SparsePoly) -> None:
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")

    def _at(self, width: int) -> dict:
        """``coeffs`` packed at ``width``, which must hold every exponent."""
        if width == self.width or not self.top:  # a constant's key is 0 at every width
            return self.coeffs
        return {_repack(k, self.width, width): c for k, c in self.coeffs.items()}

    def __neg__(self) -> SparsePoly:
        negated = {e: -c for e, c in self.coeffs.items()}
        return SparsePoly._trusted(self.ring, self.nvars, negated, self.top, self.width)

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            try:
                other = SparsePoly.constant(self.ring, self.nvars, other)
            except TypeError:
                return NotImplemented
        self._compatible(other)
        width = max(self.width, other.width)
        merged = dict(self._at(width))
        _merge(merged, other._at(width).items())
        return SparsePoly._trusted(self.ring, self.nvars, merged, max(self.top, other.top), width)

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
            scaled = {e: c * scalar for e, c in self.coeffs.items()} if scalar else {}
            return SparsePoly._trusted(self.ring, self.nvars, scaled, self.top, self.width)
        self._compatible(other)
        n, width = self.nvars, max(self.width, other.width)
        a, b = self._at(width), other._at(width)
        # a variable of one factor only keeps its exponent in the product
        top = self.top + other.top
        if not _occupied(a, n, width) & _occupied(b, n, width):
            top = max(self.top, other.top)
        if top >> width:
            width = top.bit_length()
            a, b = self._at(width), other._at(width)
        return SparsePoly._trusted(self.ring, n, _mul_terms(a, b), top, width)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> SparsePoly:
        return _pow(self, k, SparsePoly.constant(self.ring, self.nvars, 1))

    def degree(self) -> int:
        """Total degree, 0 for zero: a width-1 key's popcount; a wider key k's fields
        sum to sum_b 2^b * popcount(k & low << b)."""
        if self.width == 1:
            return max(map(int.bit_count, self.coeffs), default=0)
        w, low = self.width, ((1 << self.width * self.nvars) - 1) // ((1 << self.width) - 1)
        sums = (sum((k & low << b).bit_count() << b for b in range(w)) for k in self.coeffs)
        return max(sums, default=0)

    def degree_in_var(self, index: int) -> int:
        """Largest exponent of x_index (1-based); 0 for the zero polynomial."""
        if not 1 <= index <= self.nvars:
            raise IndexError(f"variable index {index} out of range 1..{self.nvars}")
        shift, field = self.width * (index - 1), (1 << self.width) - 1
        return max((k >> shift & field for k in self.coeffs), default=0)

    @property
    def is_multilinear(self) -> bool:
        """True iff no key sets a bit above the low bit of one of its fields."""
        low = ((1 << self.width * self.nvars) - 1) // ((1 << self.width) - 1)
        return self.width == 1 or not any(k & ~low for k in self.coeffs)

    def evaluate(self, point: Sequence):
        """The value at ``point``, exact and of the ring's element type: ``plan``'s
        kernel on ``Ring.natives(point)``, which raises TypeError on a foreign
        coordinate, wrapped by ``Ring.element``."""
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        kernel, plan = self.plan()
        return self.ring.element(kernel(plan, self.ring.natives(point)))

    def plan(self) -> tuple:
        """The ring's kernel and its data, built on the first call and kept: the
        term order (``Ring.plan``), each term's indices read off its packed key,
        unless a multilinear table's sum |T| products pass n*d + n (d = ``degree``)
        and it is symmetric; then the elementary-symmetric order
        (``Ring.symmetric_plan``), at most n*d products.  Symmetry is tested only then."""
        if self._plan is None:
            n, w, table = self.nvars, self.width, self.coeffs
            counted = w == 1 and sum(map(int.bit_count, table)) > n * self.degree() + n
            if counted and (sizes := self._size_coeffs()):
                self._plan = self.ring.symmetric_plan(sizes)
            else:
                field = (1 << w) - 1
                indices = [[j for j in range(n) for _ in range(k >> w * j & field)] for k in table]
                self._plan = self.ring.plan(table.values(), indices)
        return self._plan

    def _size_coeffs(self) -> list | None:
        """c_0 .. c_d when the width-1 table is symmetric, p = sum c_k e_k (the
        coefficient depends on the mask's size alone, absent sizes zero), else None."""
        sizes: dict[int, object] = {}
        for mask, c in self.coeffs.items():
            if (first := sizes.setdefault(mask.bit_count(), c)) is not c and first != c:
                return None
        full = len(self.coeffs) == sum(comb(self.nvars, k) for k in sizes)
        top = max(sizes, default=0)
        return [sizes.get(k, self.ring.zero) for k in range(top + 1)] if full else None

    def substitute(self, values: Sequence[SparsePoly]) -> SparsePoly:
        """Substitute a polynomial for every variable (all in the same target arity):
        :meth:`_substituted` on the values repacked at the width that holds the
        result's bound, p's bound times the sum of the values' bounds."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} substitution values")
        target = values[0].nvars
        for v in values:
            if v.ring is not self.ring or v.nvars != target:
                raise ValueError("substitution values must share ring and arity")
        top = self.top * sum(v.top for v in values)
        width = max(top.bit_length(), *(v.width for v in values))
        return self._substituted([v._at(width) for v in values], target, top, width)

    def _substituted(self, tables: list[dict], target: int, top: int, width: int) -> SparsePoly:
        """p with the value ``tables[j]``, packed at ``width``, for x_(j+1): a polynomial
        in ``target`` variables whose exponents ``top`` bounds.  A one-term value c*x^f
        folds into each term as f*e and c**e at exponent e.  Each power e >= 2 of another
        value is one product from the power below, up to the largest exponent p's terms
        give it: for sparse values in several variables that multiplies fewer term pairs
        than squaring (Fateman, "On the computation of powers of sparse polynomials",
        1974).  With at most one factor of two or more terms left, each product term goes
        straight into the result; two or more are multiplied into it smallest first."""
        n, step, field = self.nvars, self.width, (1 << self.width) - 1
        # a term that holds the variable of a zero value vanishes
        dead = 0 if all(tables) else sum(field << step * j for j in range(n) if not tables[j])
        live = [(k, c) for k, c in self.coeffs.items() if not k & dead]
        powers = {j: [None, t] for j, t in enumerate(tables) if len(t) > 1}  # [j][e] is t^e
        for j, chain in powers.items() if step > 1 else ():  # at width 1 every exponent is 0 or 1
            for _ in range(1, max([k >> step * j & field for k, _ in live], default=1)):
                chain.append(_mul_terms(chain[-1], chain[1]))  # t^e = t^(e-1) * t
        single = [next(iter(t.items())) if len(t) == 1 else None for t in tables]
        out: dict[int, object] = {}
        one = self.ring.one
        for key, coeff in live:
            mono, wide = 0, []
            while key:  # each variable of the term, at its lowest set bit
                j = ((key & -key).bit_length() - 1) // step
                e = key >> step * j & field
                key ^= e << step * j
                if single[j] is None:
                    wide.append(powers[j][e])
                    continue
                f, c = single[j]
                if e > 1:
                    f, c = f * e, c**e
                mono += f
                if c is not one:  # as a variable's is
                    coeff = coeff * c
            if len(wide) > 1:
                term = {mono: coeff}
                for factor in sorted(wide, key=len):
                    term = _mul_terms(term, factor)
                products = term.items()
            elif wide:  # each product term goes straight into ``out``
                products = [(mono + f, coeff * c) for f, c in wide[0].items()]
            else:
                products = ((mono, coeff),)
            _merge(out, products)
        return SparsePoly._trusted(self.ring, target, out, top, width)

    def to_multilinear(self) -> MultilinearPoly | None:
        """The subset-indexed form, or None when some variable has degree >= 2.
        At width 1 it wraps ``coeffs`` as it is; masks are Python ints, so any
        arity has a mask view."""
        if not self.is_multilinear:
            return None
        return MultilinearPoly._trusted(self.ring, self.nvars, self._at(1), 1, 1)

    def render(self) -> str:
        """Canonical text form, re-parseable by the expression grammar: terms
        in descending graded-lexicographic order."""
        if not self.coeffs:
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


class MultilinearPoly(SparsePoly):
    """The multilinear case of :class:`SparsePoly`, at width 1.

    ``coeffs`` maps a bit mask over 1..n, the variables of a monomial, to its
    coefficient; missing masks mean coefficient zero.  The empty mask holds
    the constant term.
    """

    __slots__ = ()

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
        self.ring, self.nvars, self.coeffs, self.top, self.width = ring, n, clean, 1, 1
        self._plan = None

    @property
    def n(self) -> int:
        return self.nvars

    def coeff(self, mask: int):
        return self.coeffs.get(mask, self.ring.zero)

    def is_symmetric(self) -> bool:
        """True iff the coefficient depends only on the subset size: each stored
        size k has one value on all C(n, k) masks (absent sizes are zero)."""
        return self._size_coeffs() is not None

    def to_multilinear(self) -> MultilinearPoly:
        return self

    # its own entry, so bench/layertrace.py traces it apart from SparsePoly's
    evaluate = SparsePoly.evaluate


def _repack(key: int, old: int, new: int) -> int:
    """``key`` moved from fields of ``old`` bits to fields of ``new`` bits."""
    field, out = (1 << old) - 1, 0
    while key:  # each nonzero field, at its lowest set bit
        j = ((key & -key).bit_length() - 1) // old
        e = key >> old * j & field
        key ^= e << old * j
        out |= e << new * j
    return out


def _occupied(table, n: int, width: int) -> int:
    """The high bit of each of n fields of ``width`` bits that some key of
    ``table`` holds nonzero: the field's low bits plus all ones carry into it."""
    used = reduce(or_, table, 0)
    high = ((1 << width * n) - 1) // ((1 << width) - 1) << width - 1
    low = high - (high >> width - 1)
    return ((used & low) + low | used) & high


def _unpack(key: int, n: int, width: int) -> Monomial:
    """The exponent vector of a key packed at ``width`` in n variables."""
    field = (1 << width) - 1
    return tuple([key >> width * j & field for j in range(n)])


def _mul_terms(a: Mapping[int, object], b: Mapping[int, object]) -> dict:
    """The product of two coefficient dicts packed at one width, dropping
    sums that vanish: each term product merged in place, as ``_merge`` does."""
    product: dict[int, object] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if (s := product.get(e := e1 + e2)) is None:
                product[e] = c1 * c2
            elif s := s + c1 * c2:
                product[e] = s
            else:
                del product[e]
    return product


def _merge(into: dict[int, object], terms) -> None:
    """Add the (key, nonzero value) pairs ``terms`` into ``into``; drop sums that vanish."""
    for e, c in terms:
        s = into.get(e)
        if s is None:
            into[e] = c
        elif s := s + c:
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
