"""Associativity of polynomial n-ary operations.

An n-ary operation p is associative when the n slot compositions -- p with
one argument replaced by a nested application of p, the nesting sliding
across all n slots -- agree as polynomials in 2n-1 variables.  This module
computes those compositions two independent ways: generic substitution on
sparse polynomials, and for multilinear input a closed-form sum over pairs
of terms.  The verdict carries a deterministic witness on failure: the
first slot whose composition differs from slot 1's, and the first monomial,
in colex order, where the two differ.

Either composition can be restricted to x1..x_k: terms that would place a
variable past x_k are dropped before anything is multiplied.  In colex
order every monomial in x1..x_k comes before every monomial that uses a
later variable, so the first difference of two restricted compositions is
the first difference of the full ones.  The decision compares slot 2
against slot 1 on x1 alone first, which settles most non-associative input
from the constant and x1 coefficients, and then in full; slots 3..n are
compared in full.
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


def compose_substitution(p: SparsePoly, slot: int, k: int | None = None) -> SparsePoly:
    """The slot composition p(x1, .., p(x_slot, .., x_(slot+n-1)), .., x_(2n-1)),
    expanded by substituting into p twice.

    With ``k``, only its monomials in x1..x_k: the terms of p that would
    place a variable past x_k, in the nested or the outer copy, are dropped
    before substituting.
    """
    n = p.nvars
    m = _check_slot(n, slot, k)
    k = m if k is None else k
    xs = [SparsePoly.variable(p.ring, m, j) for j in range(1, m + 1)]
    inner = _below(p, range(slot - 1, slot - 1 + n), k)
    # the nested slot sits at position 0: its value is restricted already
    outer = _below(p, [*range(slot - 1), 0, *range(slot + n - 1, m)], k)
    inner = inner.substitute(xs[slot - 1 : slot - 1 + n])
    return outer.substitute(xs[: slot - 1] + [inner] + xs[slot - 1 + n :])


def _below(p: SparsePoly, positions, k: int) -> SparsePoly:
    """The terms of p whose every variable j sits at ``positions[j]`` < k."""
    terms = {
        exps: c for exps, c in p.terms.items()
        if all(pos < k for pos, e in zip(positions, exps) if e)
    }
    return SparsePoly._trusted(p.ring, p.nvars, terms)


def compose_closed_form(p: MultilinearPoly, slot: int, k: int | None = None) -> MultilinearPoly:
    """The slot composition of multilinear p, summed over its support.

    An outer term containing x_slot times each inner term gives one product,
    its remaining variables placed around the nested window; an outer term
    without x_slot passes through as it is.  For t terms that is at most
    t(t+1) contributions, whatever the arity.  With ``k``, only the masks
    below 2^k: outer and inner terms whose placed mask reaches x_(k+1) are
    dropped before multiplying.
    """
    n = p.n
    m = _check_slot(n, slot, k)
    limit = 1 << (m if k is None else k)
    slot_bit = 1 << (slot - 1)
    zero, pass_through = p.ring.zero, [(0, p.ring.one)]
    inners = [(mask << (slot - 1), c) for mask, c in p.coeffs.items() if mask << (slot - 1) < limit]
    coeffs: dict[int, object] = {}
    for outer, a in p.coeffs.items():
        # bits below the slot stay; bits above it move past the nested window
        placed = (outer & (slot_bit - 1)) | ((outer >> slot) << (slot + n - 1))
        if placed >= limit:
            continue
        for inner, b in inners if outer & slot_bit else pass_through:
            coeffs[placed | inner] = coeffs.get(placed | inner, zero) + a * b
    return MultilinearPoly._trusted(p.ring, m, {mask: c for mask, c in coeffs.items() if c})


def _check_slot(n: int, slot: int, k: int | None) -> int:
    """The number of variables of a slot composition, 2n-1, after checking
    ``slot`` and ``k`` against it."""
    m = 2 * n - 1
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range 1..{n}")
    if k is not None and not 1 <= k <= m:
        raise ValueError(f"k {k} out of range 1..{m}")
    return m


def _colex_key(monomial: Monomial) -> tuple[int, ...]:
    # Colex order on exponent vectors restricts to numeric mask order on
    # 0/1 vectors, which fixes the deterministic witness tie-break.
    return tuple(reversed(monomial))


def _first_difference(lhs: dict, rhs: dict, key=None):
    """The smallest key (ordered by ``key``) whose coefficient differs between
    two coefficient dicts, or None; a missing key holds zero."""
    differing = (k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    return min(differing, key=key, default=None)


def _comparisons(p, compose, symmetric):
    """Pairs of compositions to compare, as (slot, slot 1's, the slot's), in
    the order that keeps the witness: slot 2 on x1 alone, slot 2 in full,
    then, unless ``symmetric()`` holds, slots 3..n in full.  Lazy, so a
    caller that stops at a difference builds nothing further."""
    yield 2, compose(p, 1, 1), compose(p, 2, 1)
    base = compose(p, 1)
    yield 2, base, compose(p, 2)
    if p.nvars > 2 and not symmetric():
        for slot in range(3, p.nvars + 1):
            yield slot, base, compose(p, slot)


def associative_multilinear(p: MultilinearPoly) -> AssocVerdict:
    """Associativity for multilinear operations via the closed-form sums."""
    n = p.n
    if n < 2:
        raise ValueError("arity must be at least 2")
    zero = p.ring.zero
    for slot, base, other in _comparisons(p, compose_closed_form, p.is_symmetric):
        if other.coeffs != base.coeffs:
            mask = _first_difference(base.coeffs, other.coeffs)
            monomial = tuple((mask >> j) & 1 for j in range(2 * n - 1))
            lhs, rhs = base.coeffs.get(mask, zero), other.coeffs.get(mask, zero)
            return AssocVerdict(False, CompositionWitness(slot, monomial, lhs, rhs))
    return AssocVerdict(True)


def is_associative(p: SparsePoly) -> AssocVerdict:
    """Decide associativity, with a deterministic failure witness.

    Multilinear input goes through the closed-form composition sums, with
    a shortcut for symmetric operations (the first two slot compositions
    agreeing already settles the symmetric case).  Anything with a squared
    variable is decided by full substitution expansion, so the verdict is
    about the input itself, not about a normal form.

    Both routes compare slot 2 against slot 1 restricted to x1 first and
    then in full, and slots 3..n in full.  The restricted comparison holds
    the constant and x1 coefficients, which come first in colex order, so a
    difference there is the same witness the full comparison finds.
    """
    n = p.nvars
    if n < 2:
        raise ValueError("arity must be at least 2")
    ml = p.to_multilinear()
    if ml is not None:
        return associative_multilinear(ml)
    zero = p.ring.zero
    for slot, base, other in _comparisons(p, compose_substitution, lambda: False):
        e = _first_difference(base.terms, other.terms, _colex_key)
        if e is not None:
            lhs, rhs = base.terms.get(e, zero), other.terms.get(e, zero)
            return AssocVerdict(False, CompositionWitness(slot, e, lhs, rhs))
    return AssocVerdict(True)
