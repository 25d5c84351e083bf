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
every equation between adjacent slots this way, and the prefix step
(:func:`_prefix_witness`) compares slots 1 and 2 this way at the masks
below 2^n, in O(t) reads, before any composition is built.  The full
comparison builds whole closed forms, each charged its term pairs against
``DECISION_BUDGET`` first.  Input with a squared variable is compared on
colex prefixes (:func:`is_associative`).

``classify._decide`` runs the prefix step, then recognises a family, which
proves associativity by the paper's theorem; it runs the full comparison
only on non-associative input that passes the prefix step.
"""

from __future__ import annotations

from functools import reduce

from .errors import BudgetError, InternalInvariantError
from .poly import Monomial, MultilinearPoly, SparsePoly, _monomial_str, _unpack, _Value


# Term pairs the full multilinear comparison may multiply, summed over the
# closed forms it builds.  The dense shifted product at n = 12 charges
# 2 * (2^11 * 2^12 + 2^11) = 16,781,312 pairs over its two forms and is
# decided, in 9.2 s and 1.7 GB on a 2-core Xeon VM; at n = 13 the first form
# alone charges 33,558,528, and each added arity costs about 4 times as much.
DECISION_BUDGET = 1 << 25


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


def _cut(p: SparsePoly, slot: int, k: int) -> SparsePoly:
    """The slot composition with x_(k+1)..x_(2n-1) set to zero, in x1..xk.
    The nested call keeps p's terms in arguments 1..inside, those placed in
    x1..xk; the outer arguments placed past x_k are zero.  Each value is a
    plain table packed at the width of the bound top * max(top, 1) on the
    exponents (d_s * d_i in the window), expanded by ``SparsePoly._substituted``."""
    n, one, top = p.nvars, p.ring.one, p.top * max(p.top, 1)
    w, inside = max(p.width, top.bit_length()), max(0, k - slot + 1)
    at = [j if j < slot else j + n - 1 for j in range(1, n + 1)]  # where argument j is placed
    tables = [{1 << w * (a - 1): one} if a <= k else {} for a in at]
    tables[slot - 1] = {e << w * (slot - 1): c for e, c in p._at(w).items() if not e >> w * inside}
    return p._substituted(tables, k, top, w)


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


def _slot_bound(masks, slot: int) -> int:
    """The term pairs of the slot's closed form over p's ``masks``, and so a
    bound on its masks: t per term that contains x_slot, one per other term."""
    with_slot = sum((m >> (slot - 1)) & 1 for m in masks)
    return with_slot * len(masks) + len(masks) - with_slot


def _first_difference(lhs: dict, rhs: dict):
    """The smallest key, the first monomial in colex order, whose coefficient
    differs between two coefficient dicts of one width, or None (zero if missing)."""
    differing = (k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    return min(differing, default=None)


def _prefix_witness(p: MultilinearPoly) -> CompositionWitness | None:
    """Slot 2 against slot 1 at every mask M < 2^n, or None where they agree.

    Such an M is a monomial in x1..xn alone, and in colex order it comes
    before any monomial with a later variable, so the least M where the two
    differ is the witness of the full comparison.  By the module's formula
    slot 1 is [M = 0]*c_0 + c_1*c_M there and slot 2, with O = M & 1 and
    W = M >> 1, is [W = 0]*c_O + c_(O | 2)*c_W.  So both are zero unless
    M <= 1, M is a term of p and c_1 != 0, or M = 2T + b for a term T and
    c_(2 | b) != 0: at most 3t + 2 masks, each read through ``_pulled_masks``.
    """
    n, c, zero = p.n, p.coeffs, p.ring.zero
    masks = {0, 1}
    if 1 in c:
        masks.update(c)
    for b in (0, 1):
        if 2 | b in c:
            masks.update(2 * t + b for t in c if t >> (n - 1) == 0)
    get = c.get
    for mask in sorted(masks):
        lhs, rhs = _pulled(get, zero, n, 1, mask), _pulled(get, zero, n, 2, mask)
        if lhs != rhs:
            return CompositionWitness(2, _unpack(mask, 2 * n - 1, 1), lhs, rhs)
    return None


def _pulled(get, zero, n: int, slot: int, mask: int):
    """The slot composition's coefficient at ``mask``, [W = 0]*c_O + c_(O | {s})*c_W,
    read through p's ``get``; a missing product is not formed."""
    outer, nested, window = _pulled_masks(n, slot, mask)
    a, w = get(nested), get(window)
    product = None if a is None or w is None else a * w
    if window:
        return zero if product is None else product
    value = get(outer, zero)
    return value if product is None else value + product


def associative_multilinear(p: MultilinearPoly) -> AssocVerdict:
    """Associativity for multilinear operations: the prefix step
    (:func:`_prefix_witness`), then the full comparison
    (:func:`_compare_closed_forms`)."""
    if p.n < 2:
        raise ValueError("arity must be at least 2")
    witness = _prefix_witness(p)
    return AssocVerdict(False, witness) if witness is not None else _compare_closed_forms(p)


def _compare_closed_forms(p: MultilinearPoly) -> AssocVerdict:
    """The full comparison, for p whose prefix step found no witness: the
    closed-form slot compositions, slot 2 against slot 1, then, unless p is
    symmetric, slots 3..n, with the witness at the first difference (no later
    slot is built).  Each closed form is charged its term pairs
    (``_slot_bound``) before it is built; once the charges pass
    ``DECISION_BUDGET`` it raises ``BudgetError``."""
    zero, pairs, base = p.ring.zero, 0, None
    for slot in range(1, p.n + 1):
        if slot == 3 and p.is_symmetric():
            break
        pairs += _slot_bound(p.coeffs, slot)
        if pairs > DECISION_BUDGET:
            raise BudgetError(
                f"the slot compositions would multiply at least {pairs} term pairs, "
                f"over the decision's budget of {DECISION_BUDGET}",
                pairs,
            )
        other = compose_closed_form(p, slot).coeffs
        if base is None:
            base = other
        elif other != base:
            mask = _first_difference(base, other)
            monomial = _unpack(mask, 2 * p.n - 1, 1)
            lhs, rhs = base.get(mask, zero), other.get(mask, zero)
            return AssocVerdict(False, CompositionWitness(slot, monomial, lhs, rhs))
    return AssocVerdict(True)


def is_associative(p: SparsePoly) -> AssocVerdict:
    """Decide associativity, with a deterministic failure witness.

    Multilinear input goes through :func:`associative_multilinear`: the
    prefix step, then full closed forms under ``DECISION_BUDGET``, with a
    shortcut for symmetric operations (the first two slot compositions
    agreeing already settles the symmetric case).  The report commands decide
    by recognition instead (``classify._decide``).

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
    p = SparsePoly._trusted(p.ring, n, p._at(width), p.top, width)
    zero, m, used, field = p.ring.zero, 2 * n - 1, reduce(int.__or__, p.coeffs, 0), (1 << width) - 1
    read = [j for j in range(1, n + 1) if used >> width * (j - 1) & field]  # the arguments p reads
    bases: dict[int, SparsePoly] = {}
    for slot in range(2, n + 1):
        # slot s's composition can hold x_j for an argument j read before
        # s, x_(j+n-1) for one after s, and x_(s+i-1) when p reads x_s
        held = {j if j < s else j + n - 1 for s in (1, slot) for j in read if j != s}
        held.update(s + i - 1 for s in (1, slot) if s in read for i in read)
        for k in sorted(held):
            if k not in bases:
                bases[k] = _cut(p, 1, k)
            base, other = bases[k].coeffs, _cut(p, slot, k).coeffs  # both at ``width``
            e = _first_difference(base, other)
            if e is not None:
                lhs, rhs = base.get(e, zero), other.get(e, zero)
                return AssocVerdict(False, CompositionWitness(slot, _unpack(e, m, width), lhs, rhs))
    raise InternalInvariantError(f"slot compositions of {p.render()} agree with a squared variable")
