"""Associativity of polynomial n-ary operations.

An n-ary operation p is associative when the n slot compositions -- p with
one argument replaced by a nested application of p, the nesting sliding
across all n slots -- agree as polynomials in 2n-1 variables.  This module
computes those compositions two independent ways: generic substitution on
sparse polynomials, and for multilinear input a closed-form sum over pairs
of terms.  The verdict carries a deterministic witness on failure: the
first slot whose composition differs from slot 1's, and the first monomial,
in colex order, where the two differ.

The decision compares slot 2 against slot 1, then slots 3..n.  For
multilinear input, a mask M of the slot-s composition splits into W, its
window bits x_s..x_(s+n-1) shifted down to 1..n, and O, its outer bits
mapped back to 1..n with x_s clear, and its coefficient is

    [W = 0]*c_O + c_(O | {s})*c_W,

read from p's own coefficients (``_pulled_masks``).  The census walk checks
every equation between adjacent slots this way.  Input with a squared
variable is compared on colex prefixes (:func:`is_associative`).
"""

from __future__ import annotations

from collections.abc import Container

from .errors import InternalInvariantError
from .poly import Monomial, MultilinearPoly, SparsePoly, _monomial_str, _occupied, _unpack, _Value


class CompositionWitness(_Value):
    """A monomial whose coefficients differ between two slot compositions.

    ``lhs`` is the coefficient in the slot-1 composition, ``rhs`` the one in
    the composition at ``slot``.  For multilinear input the monomial is a
    0/1 vector; ``subset`` and ``indicator_point`` expose that view.
    """

    __slots__ = ("slot", "monomial", "lhs", "rhs")

    def __init__(self, slot: int, monomial: Monomial, lhs, rhs):
        _Value.__init__(self, slot, monomial, lhs, rhs)

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


class AssocVerdict(_Value):
    __slots__ = ("associative", "witness")

    def __init__(self, associative: bool, witness: CompositionWitness | None = None):
        _Value.__init__(self, associative, witness)

    def __bool__(self) -> bool:
        return self.associative


def compose_substitution(p: SparsePoly, slot: int) -> SparsePoly:
    """The slot composition p(x1, .., p(x_slot, .., x_(slot+n-1)), .., x_(2n-1)),
    expanded in full by one substitution into p: the nested call is p's terms
    shifted into the window x_slot..x_(slot+n-1), the other slots take the
    outer variables."""
    return _cut(p, slot, _check_slot(p.nvars, slot))


def _cut(p: SparsePoly, slot: int, k: int, read: Container[int] | None = None) -> SparsePoly:
    """The slot composition with x_(k+1)..x_(2n-1) set to zero, in x1..xk.
    The nested call keeps p's terms in arguments 1..inside, those placed in
    x1..xk; the outer arguments placed past x_k are zero, and so is an
    argument not in ``read``, when given, which p never reads.  Every value
    is packed at p's width; the exponents are at most top * max(top, 1)
    (d_s * d_i in the window)."""
    n, ring, w = p.nvars, p.ring, p.width
    inside, values = max(0, k - slot + 1), []
    zero = SparsePoly._trusted(ring, k, {}, 0, w)
    for j in range(1, n + 1):
        at = j if j < slot else j + n - 1  # where argument j is placed
        if at > k and j != slot or read is not None and j not in read:
            values.append(zero)
        elif j == slot:
            inner = {e << w * (j - 1): c for e, c in p.coeffs.items() if not e >> w * inside}
            values.append(SparsePoly._trusted(ring, k, inner, p.top, w))
        else:
            values.append(SparsePoly._trusted(ring, k, {1 << w * (at - 1): ring.one}, 1, w))
    return p.substitute(values, p.top * max(p.top, 1))


def compose_closed_form(p: MultilinearPoly, slot: int) -> MultilinearPoly:
    """The slot composition of multilinear p in full, summed over its support.

    An outer term containing x_slot times each inner term gives one product,
    its remaining variables placed around the nested window; an outer term
    without x_slot is added as it is, with no product.  For t terms that is
    at most t(t+1) contributions, whatever the arity; a mask's first
    contribution is stored as it is, not added to zero.
    """
    n = p.n
    m = _check_slot(n, slot)
    slot_bit = 1 << (slot - 1)
    inners = [(mask << (slot - 1), c) for mask, c in p.coeffs.items()]
    coeffs: dict[int, object] = {}
    for outer, a in p.coeffs.items():
        # bits below the slot stay; bits above it move past the nested window
        placed = (outer & (slot_bit - 1)) | ((outer >> slot) << (slot + n - 1))
        if not outer & slot_bit:
            s = coeffs.get(placed)
            coeffs[placed] = a if s is None else s + a
            continue
        for inner, b in inners:
            s = coeffs.get(placed | inner)
            coeffs[placed | inner] = a * b if s is None else s + a * b
    return MultilinearPoly._trusted(p.ring, m, {mask: c for mask, c in coeffs.items() if c})


def _pulled_masks(n: int, slot: int, mask: int) -> tuple[int, int, int]:
    """The masks (O, O | {slot}, W) of p whose coefficients give the slot
    composition's coefficient at ``mask`` by the module docstring's formula."""
    outer = (mask & ((1 << (slot - 1)) - 1)) | ((mask >> (slot + n - 1)) << slot)
    return outer, outer | (1 << (slot - 1)), (mask >> (slot - 1)) & ((1 << n) - 1)


def _check_slot(n: int, slot: int) -> int:
    """2n-1, the number of variables of a slot composition, after checking ``slot``."""
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range 1..{n}")
    return 2 * n - 1


def _first_difference(lhs: dict, rhs: dict):
    """The smallest key, the first monomial in colex order, whose coefficient
    differs between two coefficient dicts of one width, or None (zero if missing)."""
    differing = (k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    return min(differing, default=None)


def associative_multilinear(p: MultilinearPoly) -> AssocVerdict:
    """Associativity for multilinear operations from the closed-form slot
    compositions: slot 2 against slot 1, then, unless p is symmetric, slots
    3..n, with the witness at the first difference (no later slot is built)."""
    if p.n < 2:
        raise ValueError("arity must be at least 2")
    zero = p.ring.zero
    base = compose_closed_form(p, 1)
    for slot in range(2, p.n + 1):
        if slot == 3 and p.is_symmetric():
            break
        other = compose_closed_form(p, slot)
        if other.coeffs != base.coeffs:
            mask = _first_difference(base.coeffs, other.coeffs)
            monomial = _unpack(mask, 2 * p.n - 1, 1)
            lhs, rhs = base.coeffs.get(mask, zero), other.coeffs.get(mask, zero)
            return AssocVerdict(False, CompositionWitness(slot, monomial, lhs, rhs))
    return AssocVerdict(True)


def is_associative(p: SparsePoly) -> AssocVerdict:
    """Decide associativity, with a deterministic failure witness.

    Multilinear input goes through :func:`associative_multilinear`, with
    a shortcut for symmetric operations (the first two slot compositions
    agreeing already settles the symmetric case).

    Input with a squared variable is never associative.  Over an integral
    domain slot s's degree in x_j is d_j before the nested window,
    d_s * d_(j-s+1) in it and d_(j-n+1) past it, for p's degrees d_1..d_n;
    equal degrees at all slots force every d_j <= 1 (slots s and s+1 agree
    at x_s and x_(s+n) only if d_s(d_1 - 1) = 0 = d_(s+1)(d_n - 1); d_1 = 0
    zeroes d_1..d_(n-1), and d_1 = 1 gives d_(s+1) = d_s * d_2 at x_(s+1),
    so d_n = d_2^(n-1) bounds d_2).  So only the witness is searched for:
    for slot s = 2..n and k upward over the variables slot 1's or slot s's
    composition can hold, both are cut to x1..xk (:func:`_cut`).  Monomials
    in x1..xk come first in colex order, so the first difference at the
    first k with one is the full comparison's.  A walk that finds none
    raises ``InternalInvariantError``.
    """
    n = p.nvars
    if n < 2:
        raise ValueError("arity must be at least 2")
    ml = p.to_multilinear()
    if ml is not None:
        return associative_multilinear(ml)
    width = (p.top * p.top).bit_length()  # that of every cut's bound (``_cut``)
    p = SparsePoly._trusted(p.ring, n, p._at(width), p.top, width, p.terms)
    zero, m, occupied = p.ring.zero, 2 * n - 1, _occupied(p.coeffs, n, width)
    read = [j for j in range(1, n + 1) if occupied >> width * j - 1 & 1]
    bases: dict[int, SparsePoly] = {}
    for slot in range(2, n + 1):
        # slot s's composition can hold x_j for an argument j read before
        # s, x_(j+n-1) for one after s, and x_(s+i-1) when p reads x_s
        held = {j if j < s else j + n - 1 for s in (1, slot) for j in read if j != s}
        held.update(s + i - 1 for s in (1, slot) if s in read for i in read)
        for k in sorted(held):
            if k not in bases:
                bases[k] = _cut(p, 1, k, read)
            base, other = bases[k].coeffs, _cut(p, slot, k, read).coeffs  # both at ``width``
            e = _first_difference(base, other)
            if e is not None:
                lhs, rhs = base.get(e, zero), other.get(e, zero)
                return AssocVerdict(False, CompositionWitness(slot, _unpack(e, m, width), lhs, rhs))
    raise InternalInvariantError(f"slot compositions of {p.render()} agree with a squared variable")
