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
variable is first compared on x1 alone: in colex order every monomial in x1
comes before every monomial that uses a later variable, so a difference
there is the witness the full comparison would find.  Setting x2..x_(2n-1)
to 0 leaves f(f(x1)) in slot 1, with f = p(x1, 0, .., 0), and
p(x1, c, 0, .., 0) in slot 2, with c = p(0, .., 0); both are read from p's
terms in x1 and x2 alone.
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
    expanded in full by one substitution into p: the nested call is p's terms
    shifted into the window x_slot..x_(slot+n-1), the other slots take the
    outer variables."""
    n = p.nvars
    m = _check_slot(n, slot)
    before, after = (0,) * (slot - 1), (0,) * (n - slot)
    inner = SparsePoly._trusted(p.ring, m, {before + e + after: c for e, c in p.terms.items()})
    outer = [SparsePoly.variable(p.ring, m, j) for j in (*range(1, slot), *range(slot + n, m + 1))]
    return p.substitute(outer[: slot - 1] + [inner] + outer[slot - 1 :])


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


def _x1_parts(p: SparsePoly) -> tuple[dict, dict]:
    """The monomials in x1 alone of slots 1 and 2, as univariate term dicts,
    read off p (see the module docstring): f(f(x1)) for the terms f of p in
    x1 alone, and the sum of a*c^e2*x1^e1 over the terms a*x1^e1*x2^e2 of p
    in x1 and x2 alone, with c the constant term."""
    zero = p.ring.zero
    c = p.terms.get((0,) * p.nvars, zero)
    f, slot2 = {}, {}
    for (e1, e2, *rest), a in p.terms.items():
        if not any(rest):
            slot2[(e1,)] = slot2.get((e1,), zero) + a * c**e2
            if not e2:
                f[(e1,)] = a
    f = SparsePoly._trusted(p.ring, 1, f)
    return f.substitute([f]).terms, {e: v for e, v in slot2.items() if v}


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
    """Full compositions to compare, as (slot, slot 1's, the slot's), in the
    order that keeps the witness: slot 2, then, unless ``symmetric()``
    holds, slots 3..n.  Lazy, so a caller that stops at a difference builds
    nothing further."""
    base = compose(p, 1)
    yield 2, base, compose(p, 2)
    if p.nvars > 2 and not symmetric():
        for slot in range(3, p.nvars + 1):
            yield slot, base, compose(p, slot)


def _multilinear_verdict(p: MultilinearPoly, compose) -> AssocVerdict:
    """The verdict on multilinear p from ``_comparisons`` of its closed forms,
    each ``compose(p, slot)``, with the witness at the first difference."""
    zero = p.ring.zero
    for slot, base, other in _comparisons(p, compose, p.is_symmetric):
        if other.coeffs != base.coeffs:
            mask = _first_difference(base.coeffs, other.coeffs)
            monomial = tuple((mask >> j) & 1 for j in range(2 * p.n - 1))
            lhs, rhs = base.coeffs.get(mask, zero), other.coeffs.get(mask, zero)
            return AssocVerdict(False, CompositionWitness(slot, monomial, lhs, rhs))
    return AssocVerdict(True)


def associative_multilinear(p: MultilinearPoly) -> AssocVerdict:
    """Associativity for multilinear operations, comparing the slot
    compositions built by the closed-form sums."""
    if p.n < 2:
        raise ValueError("arity must be at least 2")
    return _multilinear_verdict(p, compose_closed_form)


def _closed_forms_verdict(p: MultilinearPoly) -> tuple[AssocVerdict, tuple]:
    """The n closed-form slot compositions of p, slots 1..n, each built once,
    and :func:`associative_multilinear`'s verdict decided from them."""
    forms = tuple(compose_closed_form(p, slot) for slot in range(1, p.n + 1))
    return _multilinear_verdict(p, lambda _, slot: forms[slot - 1]), forms


def is_associative(p: SparsePoly) -> AssocVerdict:
    """Decide associativity, with a deterministic failure witness.

    Multilinear input goes through :func:`associative_multilinear`, with
    a shortcut for symmetric operations (the first two slot compositions
    agreeing already settles the symmetric case).  Anything with a squared
    variable is decided from p's terms and by substitution, so the verdict
    is about the input itself, not about a normal form.

    Both routes compare slot 2 against slot 1, then slots 3..n.  The
    squared-variable route first compares slots 1 and 2 on x1 alone, read
    off p by :func:`_x1_parts`; those monomials come first in colex order,
    so a difference there is the same witness the full comparison finds.
    """
    n = p.nvars
    if n < 2:
        raise ValueError("arity must be at least 2")
    ml = p.to_multilinear()
    if ml is not None:
        return associative_multilinear(ml)
    zero = p.ring.zero
    lhs, rhs = _x1_parts(p)
    e = _first_difference(lhs, rhs)
    if e is not None:
        monomial = e + (0,) * (2 * n - 2)
        return AssocVerdict(False, CompositionWitness(2, monomial, lhs.get(e, zero), rhs.get(e, zero)))
    for slot, base, other in _comparisons(p, compose_substitution, lambda: False):
        e = _first_difference(base.terms, other.terms, _colex_key)
        if e is not None:
            lhs, rhs = base.terms.get(e, zero), other.terms.get(e, zero)
            return AssocVerdict(False, CompositionWitness(slot, e, lhs, rhs))
    return AssocVerdict(True)
