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

from .poly import Monomial, MultilinearPoly, SparsePoly, _monomial_str


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
        return _monomial_str(self.monomial) or "1"


@dataclass(frozen=True)
class AssocVerdict:
    associative: bool
    witness: CompositionWitness | None = None

    def __bool__(self) -> bool:
        return self.associative


def compose_substitution(p: SparsePoly, slot: int) -> SparsePoly:
    """The slot composition p(x1, .., p(x_slot, .., x_(slot+n-1)), .., x_(2n-1)),
    expanded by substituting into p twice."""
    n = p.nvars
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range 1..{n}")
    xs = [SparsePoly.variable(p.ring, 2 * n - 1, j) for j in range(1, 2 * n)]
    inner = p.substitute(xs[slot - 1 : slot - 1 + n])
    return p.substitute(xs[: slot - 1] + [inner] + xs[slot - 1 + n :])


def compose_closed_form(p: MultilinearPoly, slot: int) -> MultilinearPoly:
    """The slot composition of multilinear p, summed over its support.

    An outer term containing x_slot times each inner term gives one product,
    its remaining variables placed around the nested window; an outer term
    without x_slot passes through as it is.  For t terms that is at most
    t(t+1) contributions, whatever the arity.
    """
    n = p.n
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range 1..{n}")
    slot_bit = 1 << (slot - 1)
    zero, pass_through = p.ring.zero, [(0, p.ring.one)]
    inners = [(m << (slot - 1), c) for m, c in p.coeffs.items()]
    coeffs: dict[int, object] = {}
    for outer, a in p.coeffs.items():
        # bits below the slot stay; bits above it move past the nested window
        placed = (outer & (slot_bit - 1)) | ((outer >> slot) << (slot + n - 1))
        for inner, b in inners if outer & slot_bit else pass_through:
            coeffs[placed | inner] = coeffs.get(placed | inner, zero) + a * b
    return MultilinearPoly._trusted(p.ring, 2 * n - 1, {m: c for m, c in coeffs.items() if c})


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
