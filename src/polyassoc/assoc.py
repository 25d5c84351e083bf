"""Associativity of polynomial n-ary operations.

An n-ary operation p is associative when the n slot compositions -- p with
one argument replaced by a nested application of p, the nesting sliding
across all n slots -- agree as polynomials in 2n-1 variables.  This module
computes those compositions two independent ways: generic substitution on
sparse polynomials, and for multilinear input a closed-form sum over pairs
of terms.  The verdict carries a deterministic witness on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .poly import Monomial, MultilinearPoly, SparsePoly


@dataclass(frozen=True)
class SlotWindows:
    """The index windows of the composition at one slot (1-based).

    Variables 1..slot-1 pass through before the nested call, the nested call
    consumes the n-variable window starting at ``slot``, and the remaining
    variables pass through after it.  The three masks partition 1..2n-1.
    """

    n: int
    slot: int

    def __post_init__(self):
        if not 1 <= self.slot <= self.n:
            raise ValueError(f"slot {self.slot} out of range 1..{self.n}")

    @property
    def prefix_mask(self) -> int:
        return (1 << (self.slot - 1)) - 1

    @property
    def window_mask(self) -> int:
        return ((1 << self.n) - 1) << (self.slot - 1)

    @property
    def suffix_mask(self) -> int:
        total = (1 << (2 * self.n - 1)) - 1
        return total ^ self.prefix_mask ^ self.window_mask

    def place(self, outer: int = 0, inner: int = 0) -> int:
        """The composed mask of an outer mask (slot bit dropped) and an inner one."""
        after = (outer >> self.slot) << (self.slot + self.n - 1)
        return (outer & self.prefix_mask) | after | (inner << (self.slot - 1))


@dataclass(frozen=True)
class CompositionWitness:
    """A monomial whose coefficients differ between two slot compositions.

    ``lhs`` is the coefficient in the slot-1 composition, ``rhs`` the one in
    the composition at ``slot``.  For multilinear input the monomial is a
    0/1 vector; ``subset`` and ``indicator_point`` expose that view.
    """

    slot: int
    monomial: Monomial
    lhs: object
    rhs: object

    @property
    def subset(self) -> tuple[int, ...] | None:
        """1-based variable indices, when the monomial is multilinear."""
        if any(e > 1 for e in self.monomial):
            return None
        return tuple(j + 1 for j, e in enumerate(self.monomial) if e)

    @property
    def indicator_point(self) -> tuple[int, ...] | None:
        return self.monomial if self.subset is not None else None

    def monomial_str(self) -> str:
        parts = [
            f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
            for j, e in enumerate(self.monomial)
            if e
        ]
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class AssocVerdict:
    associative: bool
    witness: CompositionWitness | None = None

    def __bool__(self) -> bool:
        return self.associative


def compose_substitution(p: SparsePoly, slot: int) -> SparsePoly:
    """The slot composition of p, expanded by direct substitution.

    Result has 2n-1 variables: arguments before ``slot`` stay x1..,
    the slot argument becomes p applied to the next n variables, and the
    remaining arguments continue after the window.
    """
    n = p.nvars
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range 1..{n}")
    m = 2 * n - 1
    inner = SparsePoly(
        p.ring,
        m,
        {
            (0,) * (slot - 1) + e + (0,) * (n - slot): c
            for e, c in p.terms.items()
        },
    )
    inner_powers = {1: inner}
    out: dict[Monomial, object] = {}
    for e, c in p.terms.items():
        base = [0] * m
        for j in range(n):
            if j + 1 < slot:
                base[j] = e[j]
            elif j + 1 > slot:
                base[j + n - 1] = e[j]
        k = e[slot - 1]
        if k == 0:
            factor_terms = {(0,) * m: p.ring.one}
        else:
            if k not in inner_powers:
                inner_powers[k] = inner**k
            factor_terms = inner_powers[k].terms
        for fe, fc in factor_terms.items():
            combined = tuple(map(add, base, fe))
            s = out.get(combined)
            s = c * fc if s is None else s + c * fc
            if s:
                out[combined] = s
            else:
                out.pop(combined, None)
    return SparsePoly(p.ring, m, out)


def compose_closed_form(p: MultilinearPoly, slot: int) -> MultilinearPoly:
    """The slot composition of multilinear p, summed over its support.

    An outer term containing x_slot times each inner term gives one product,
    its remaining variables placed around the nested window; an outer term
    without x_slot passes through as it is.  For t terms that is at most
    t(t+1) contributions, whatever the arity.
    """
    w = SlotWindows(p.n, slot)
    slot_bit = 1 << (slot - 1)
    zero, pass_through = p.ring.zero, [(0, p.ring.one)]
    inners = [(w.place(inner=m), c) for m, c in p.coeffs.items()]
    coeffs: dict[int, object] = {}
    for outer, a in p.coeffs.items():
        placed = w.place(outer)
        for inner, b in inners if outer & slot_bit else pass_through:
            coeffs[placed | inner] = coeffs.get(placed | inner, zero) + a * b
    return MultilinearPoly(p.ring, 2 * p.n - 1, coeffs)


def _colex_key(monomial: Monomial) -> tuple[int, ...]:
    # Colex order on exponent vectors restricts to numeric mask order on
    # 0/1 vectors, which fixes the deterministic witness tie-break.
    return tuple(reversed(monomial))


def _first_difference(lhs: dict, rhs: dict, key=None):
    """The smallest key (ordered by ``key``) whose coefficient differs between
    two coefficient dicts, or None; a missing key holds zero."""
    differing = (k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    return min(differing, key=key, default=None)


def associative_multilinear(p: MultilinearPoly) -> AssocVerdict:
    """Associativity for multilinear operations via the closed-form sums."""
    n = p.n
    if n < 2:
        raise ValueError("arity must be at least 2")
    base = compose_closed_form(p, 1)
    slots = (2,) if p.is_symmetric() else range(2, n + 1)
    for i in slots:
        other = compose_closed_form(p, i)
        if other.coeffs != base.coeffs:
            mask = _first_difference(base.coeffs, other.coeffs)
            monomial = tuple((mask >> j) & 1 for j in range(2 * n - 1))
            zero = p.ring.zero
            lhs, rhs = base.coeffs.get(mask, zero), other.coeffs.get(mask, zero)
            return AssocVerdict(False, CompositionWitness(i, monomial, lhs, rhs))
    return AssocVerdict(True)


def is_associative(p: SparsePoly) -> AssocVerdict:
    """Decide associativity, with a deterministic failure witness.

    Multilinear input goes through the closed-form composition sums, with
    a shortcut for symmetric operations (the first two slot compositions
    agreeing already settles the symmetric case).  Anything with a squared
    variable is decided by full substitution expansion, so the verdict is
    about the input itself, not about a normal form.
    """
    n = p.nvars
    if n < 2:
        raise ValueError("arity must be at least 2")
    ml = p.to_multilinear()
    if ml is not None:
        return associative_multilinear(ml)
    base = compose_substitution(p, 1).terms
    for i in range(2, n + 1):
        other = compose_substitution(p, i).terms
        e = _first_difference(base, other, _colex_key)
        if e is not None:
            zero = p.ring.zero
            lhs, rhs = base.get(e, zero), other.get(e, zero)
            return AssocVerdict(False, CompositionWitness(i, e, lhs, rhs))
    return AssocVerdict(True)
