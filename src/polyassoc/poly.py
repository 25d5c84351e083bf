"""Sparse multivariate polynomials and their multilinear normal form.

A :class:`SparsePoly` maps exponent tuples to nonzero coefficients, e.g.
``x1^2*x2 + 3`` over Z in two variables is ``{(2, 1): 1, (0, 0): 3}``.
A :class:`MultilinearPoly` stores a polynomial of per-variable degree <= 1
as a table indexed by variable subsets encoded as bit masks (bit j-1 set
means variable x_j occurs).  Variable indices are 1-based throughout the
public API, matching the ``x1 .. xn`` naming of the expression grammar.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import add
from typing import Iterable, Mapping, Sequence

from .rings import Ring

Monomial = tuple[int, ...]

# Bounds input arity (compositions live in 2n-1 variables).  Python ints
# are unbounded, so masks themselves set no limit.
MAX_ARITY = 62


class SparsePoly:
    """Exact sparse polynomial over one of the supported rings.

    Instances are immutable: ``terms`` is never written after construction,
    and the factor list that :meth:`evaluate` builds once and keeps relies
    on that.
    """

    __slots__ = ("ring", "nvars", "terms", "_factors")

    def __init__(self, ring: Ring, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 1 or nvars > 2 * MAX_ARITY:
            raise ValueError(f"number of variables must be in 1..{2 * MAX_ARITY}")
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
        self._factors = None

    @classmethod
    def _trusted(cls, ring: Ring, nvars: int, terms: dict[Monomial, object]) -> SparsePoly:
        """Wrap terms already keyed by valid exponent tuples with nonzero ring
        values, skipping the per-term checks of ``__init__``."""
        p = cls.__new__(cls)
        p.ring = ring
        p.nvars = nvars
        p.terms = terms
        p._factors = None
        return p

    @classmethod
    def zero(cls, ring: Ring, nvars: int) -> SparsePoly:
        return cls(ring, nvars)

    @classmethod
    def constant(cls, ring: Ring, nvars: int, value) -> SparsePoly:
        return cls(ring, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, ring: Ring, nvars: int, index: int) -> SparsePoly:
        """The polynomial x_index (1-based)."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls(ring, nvars, {tuple(exps): 1})

    def __repr__(self) -> str:
        return f"SparsePoly({self.ring.name}, {self.nvars}, {self.render()!r})"

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
        for e, c in other.terms.items():
            s = merged.get(e)
            s = c if s is None else s + c
            if s:
                merged[e] = s
            else:
                merged.pop(e, None)
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
        product: dict[Monomial, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = product.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    product[e] = s
                else:
                    product.pop(e, None)
        return SparsePoly._trusted(self.ring, self.nvars, product)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> SparsePoly:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = SparsePoly.constant(self.ring, self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        coerce = self.ring.coerce
        point = [coerce(v) for v in point]
        if self._factors is None:
            self._factors = [
                (coeff, [(j, e) for j, e in enumerate(exps) if e])
                for exps, coeff in self.terms.items()
            ]
        total = self.ring.zero
        for coeff, factors in self._factors:
            v = coeff
            for j, e in factors:
                v = v * point[j] if e == 1 else v * point[j] ** e
            total = total + v
        return total

    def substitute(self, values: Sequence[SparsePoly]) -> SparsePoly:
        """Substitute a polynomial for every variable (all in the same target arity)."""
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} substitution values")
        target = values[0].nvars
        for v in values:
            if v.ring is not self.ring or v.nvars != target:
                raise ValueError("substitution values must share ring and arity")
        acc = SparsePoly.zero(self.ring, target)
        for exps, coeff in self.terms.items():
            term = SparsePoly.constant(self.ring, target, coeff)
            for v, e in zip(values, exps):
                if e:
                    term = term * v**e
            acc = acc + term
        return acc

    def to_multilinear(self) -> MultilinearPoly | None:
        """The subset-indexed form, or None when some variable has degree >= 2."""
        coeffs: dict[int, object] = {}
        for exps, coeff in self.terms.items():
            mask = 0
            for j, e in enumerate(exps):
                if e > 1:
                    return None
                if e:
                    mask |= 1 << j
            coeffs[mask] = coeff
        return MultilinearPoly(self.ring, self.nvars, coeffs)

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms in descending graded-lexicographic order (display order)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def render(self) -> str:
        """Canonical text form, re-parseable by the expression grammar."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
                for j, e in enumerate(exps)
                if e
            )
            body = _coeff_grammar_str(self.ring, coeff)
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


class MultilinearPoly:
    """Polynomial of per-variable degree <= 1, indexed by variable subsets.

    ``coeffs`` maps a bit mask over 1..n to its coefficient; missing masks
    mean coefficient zero.  The empty mask holds the constant term.
    """

    __slots__ = ("ring", "n", "coeffs")

    def __init__(self, ring: Ring, n: int, coeffs: Mapping[int, object] | None = None):
        if n < 1 or n > MAX_ARITY:
            raise ValueError(f"arity must be in 1..{MAX_ARITY}")
        full = (1 << n) - 1
        clean: dict[int, object] = {}
        for mask, coeff in (coeffs or {}).items():
            if not 0 <= mask <= full:
                raise ValueError(f"mask {mask} is not a subset of 1..{n}")
            coeff = ring.coerce(coeff)
            if coeff:
                clean[mask] = coeff
        self.ring = ring
        self.n = n
        self.coeffs = clean

    def __repr__(self) -> str:
        return f"MultilinearPoly({self.ring.name}, {self.n}, {self.render()!r})"

    def __str__(self) -> str:
        return self.render()

    def __reduce__(self):
        return (MultilinearPoly, (self.ring, self.n, self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.ring is other.ring and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.n, frozenset(self.coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, mask: int):
        return self.coeffs.get(mask, self.ring.zero)

    def degree(self) -> int:
        return max((m.bit_count() for m in self.coeffs), default=0)

    def to_sparse(self) -> SparsePoly:
        terms = {
            tuple((mask >> j) & 1 for j in range(self.n)): c
            for mask, c in self.coeffs.items()
        }
        return SparsePoly(self.ring, self.n, terms)

    def render(self) -> str:
        return self.to_sparse().render()

    def evaluate(self, point: Sequence):
        if len(point) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(point)}")
        coerce = self.ring.coerce
        point = [coerce(v) for v in point]
        total = self.ring.zero
        for mask, coeff in self.coeffs.items():
            v = coeff
            m = mask
            while m:
                j = (m & -m).bit_length() - 1
                v = v * point[j]
                m &= m - 1
            total = total + v
        return total

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

    def size_coeffs(self) -> list | None:
        """[c_0, ..., c_n] when symmetric (coefficient per subset size), else None."""
        if not self.is_symmetric():
            return None
        return [self.coeff((1 << k) - 1) for k in range(self.n + 1)]


def from_size_coeffs(ring: Ring, n: int, size_coeffs: Sequence) -> MultilinearPoly:
    """The symmetric multilinear polynomial sum_k c_k * (elementary symmetric of degree k)."""
    if len(size_coeffs) != n + 1:
        raise ValueError(f"expected {n + 1} coefficients")
    coeffs = {m: c for k, c in enumerate(size_coeffs) if c for m in _masks_of_size(n, k)}
    return MultilinearPoly(ring, n, coeffs)


def _masks_of_size(n: int, k: int) -> Iterable[int]:
    """The bit masks of all k-element subsets of 1..n."""
    for subset in combinations(range(n), k):
        yield sum(1 << j for j in subset)


def _coeff_grammar_str(ring: Ring, coeff) -> str:
    """Coefficient rendering accepted by the expression grammar."""
    if ring is not Ring.ZI:
        return str(coeff)
    if coeff.im == 0:
        return str(coeff.re)
    if coeff.im == 1:
        imag = "i"
    elif coeff.im == -1:
        imag = "-i"
    else:
        imag = f"{coeff.im}*i"
    if coeff.re == 0:
        return imag
    sign = "+" if coeff.im > 0 else "-"
    mag = "i" if abs(coeff.im) == 1 else f"{abs(coeff.im)}*i"
    return f"({coeff.re}{sign}{mag})"
