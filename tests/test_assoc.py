from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyassoc import (
    GaussianInt,
    MultilinearPoly,
    Ring,
    SparsePoly,
    XorShift64Star,
    associated_value,
    associative_multilinear,
    compose_closed_form,
    compose_substitution,
    is_associative,
    parse_poly,
)

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"


def dense_closed_form(p, slot):
    """Reference: the per-mask coefficient formula over all 2^(2n-1) masks."""
    n = p.n
    slot_bit = 1 << (slot - 1)
    prefix = slot_bit - 1
    window = ((1 << n) - 1) << (slot - 1)
    suffix = ((1 << (2 * n - 1)) - 1) ^ prefix ^ window
    coeffs = {}
    for s in range(1 << (2 * n - 1)):
        outer = (s & prefix) | ((s & suffix) >> (n - 1))
        inner = (s & window) >> (slot - 1)
        if s & window:
            coeffs[s] = p.coeff(outer | slot_bit) * p.coeff(inner)
        else:
            coeffs[s] = p.coeff(outer | slot_bit) * p.coeff(0) + p.coeff(outer)
    return MultilinearPoly(p.ring, 2 * n - 1, coeffs)


def dense_first_difference(p):
    """Reference witness: (slot, monomial, lhs, rhs) at the first differing
    mask of a dense scan, slots in order; None when all slots agree."""
    base = dense_closed_form(p, 1)
    for slot in range(2, p.n + 1):
        other = dense_closed_form(p, slot)
        for mask in range(1 << (2 * p.n - 1)):
            if base.coeff(mask) != other.coeff(mask):
                monomial = tuple((mask >> j) & 1 for j in range(2 * p.n - 1))
                return slot, monomial, base.coeff(mask), other.coeff(mask)
    return None


def expand_composition(p, slot):
    """Reference: the slot composition expanded outer term by outer term, each
    times the power of p (moved onto the window x_slot..x_(slot+n-1)) that the
    term's exponent of x_slot asks for."""
    n, m = p.nvars, 2 * p.nvars - 1
    window = {(0,) * (slot - 1) + e + (0,) * (n - slot): c for e, c in p.terms.items()}
    inner = SparsePoly(p.ring, m, window)
    out = {}
    for e, c in p.terms.items():
        base = e[: slot - 1] + (0,) * n + e[slot:]
        for fe, fc in (inner ** e[slot - 1]).terms.items():
            monomial = tuple(map(add, base, fe))
            out[monomial] = out.get(monomial, p.ring.zero) + c * fc
    return SparsePoly(p.ring, m, out)


def colex_first_difference(p):
    """Reference witness of the substitution route: (slot, monomial, lhs, rhs)
    at the first differing monomial of a full colex-sorted scan, slots in
    order; None when all slots agree."""
    base = expand_composition(p, 1).terms
    zero = p.ring.zero
    for slot in range(2, p.nvars + 1):
        other = expand_composition(p, slot).terms
        for e in sorted(base.keys() | other.keys(), key=lambda e: tuple(reversed(e))):
            lhs, rhs = base.get(e, zero), other.get(e, zero)
            if lhs != rhs:
                return slot, e, lhs, rhs
    return None


def random_table(rng, ring, n, constant):
    """A table over about a quarter of the masks, with or without x^0."""
    coeffs = {m: rng.element(ring, 3) for m in range(1, 1 << n) if rng.randint(0, 3) == 0}
    if constant:
        coeffs[0] = rng.element(ring, 3) or 1
    return MultilinearPoly(ring, n, coeffs)


def test_compose_closed_form_rejects_bad_slot():
    p = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z).to_multilinear()
    for slot in (0, 4):
        with pytest.raises(ValueError):
            compose_closed_form(p, slot)


def test_compose_substitution_binary_examples():
    plus = parse_poly("x1 + x2", 2, Ring.Z)
    assert compose_substitution(plus, 1) == parse_poly("x1 + x2 + x3", 3, Ring.Z)
    times = parse_poly("x1*x2", 2, Ring.Z)
    assert compose_substitution(times, 1) == parse_poly("x1*x2*x3", 3, Ring.Z)
    skewed = parse_poly("2*x1*x2 + x1", 2, Ring.Z)
    assert compose_substitution(skewed, 1) == parse_poly(
        "4*x1*x2*x3 + 2*x1*x3 + 2*x1*x2 + x1", 3, Ring.Z
    )
    assert compose_substitution(skewed, 2) == parse_poly(
        "4*x1*x2*x3 + 2*x1*x2 + x1", 3, Ring.Z
    )


def test_compose_closed_form_single_coefficients():
    times = parse_poly("x1*x2", 2, Ring.Z).to_multilinear()
    composed = compose_closed_form(times, 1)
    assert composed.coeff(0b111) == 1
    assert sum(1 for v in composed.coeffs.values() if v) == 1

    const = SparsePoly.constant(Ring.Z, 2, 5).to_multilinear()
    for slot in (1, 2):
        table = compose_closed_form(const, slot)
        assert table.coeff(0) == 5
        assert table.degree() == 0

    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z).to_multilinear()
    assert compose_closed_form(cubic, 1).coeff((1 << 5) - 1) == 81


def test_closed_form_matches_substitution_exhaustive_binary():
    for c0, c1, c2, c12 in product((-1, 0, 1), repeat=4):
        ml = MultilinearPoly(Ring.Z, 2, {0: c0, 1: c1, 2: c2, 3: c12})
        sparse = ml.to_sparse()
        for slot in (1, 2):
            assert compose_closed_form(ml, slot).to_sparse() == compose_substitution(
                sparse, slot
            )


def test_closed_form_matches_substitution_random():
    rng = XorShift64Star(97)
    for ring in (Ring.Z, Ring.ZI):
        tables = [
            MultilinearPoly(ring, n, {m: rng.element(ring, 3) for m in range(1 << n)})
            for n in (3, 4)
            for _ in range(60)
        ]
        tables += [
            random_table(rng, ring, n, constant)
            for n in range(2, 7)
            for constant in (False, True)
            for _ in range(4)
        ]
        for ml in tables:
            sparse = ml.to_sparse()
            for slot in range(1, ml.n + 1):
                closed = compose_closed_form(ml, slot)
                assert closed == dense_closed_form(ml, slot)
                assert closed.to_sparse() == compose_substitution(sparse, slot)


def test_is_associative_positive_fixtures():
    assert is_associative(parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)).associative
    assert is_associative(parse_poly("x1 - x2 + x3", 3, Ring.Z)).associative
    assert is_associative(SparsePoly.constant(Ring.Z, 4, 7)).associative
    assert is_associative(parse_poly("x1", 2, Ring.Z)).associative
    assert is_associative(parse_poly("x1*x2*x3*x4", 4, Ring.Z)).associative


def test_is_associative_witness_fixture():
    verdict = is_associative(parse_poly("2*x1*x2 + x1", 2, Ring.Z))
    assert not verdict.associative
    w = verdict.witness
    assert (w.slot, w.subset, w.lhs, w.rhs) == (2, (1, 3), 2, 0)
    assert w.monomial == (1, 0, 1)
    assert w.monomial_str() == "x1*x3"


def test_witness_indicator_point_distinguishes():
    rng = XorShift64Star(101)
    found = 0
    for _ in range(300):
        ml = MultilinearPoly(Ring.Z, 3, {m: rng.element(Ring.Z, 2) for m in range(8)})
        verdict = associative_multilinear(ml)
        if verdict.associative:
            continue
        found += 1
        w = verdict.witness
        point = w.indicator_point
        sparse = ml.to_sparse()
        assert associated_value(sparse, 1, point) != associated_value(sparse, w.slot, point)
    assert found > 100


def test_non_multilinear_inputs_disprove_by_expansion():
    square = SparsePoly(Ring.Z, 2, {(2, 0): 1})  # x1^2
    verdict = is_associative(square)
    assert not verdict.associative
    w = verdict.witness
    assert w.subset is None
    base = compose_substitution(square, 1)
    other = compose_substitution(square, w.slot)
    zero = Ring.Z.zero
    assert base.terms.get(w.monomial, zero) == w.lhs
    assert other.terms.get(w.monomial, zero) == w.rhs
    assert w.lhs != w.rhs

    cube_plus = parse_poly("x1^2*x2 + x2", 2, Ring.Z)
    assert not is_associative(cube_plus).associative

    rng = XorShift64Star(107)
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for n in (2, 3):
            for _ in range(12):
                terms = {
                    tuple(rng.randint(0, 2) for _ in range(n)): rng.element(ring, 3)
                    for _ in range(rng.randint(1, 4))
                }
                terms[(2,) + (0,) * (n - 1)] = rng.element(ring, 3) or 1
                p = SparsePoly(ring, n, terms)
                w = is_associative(p).witness
                got = None if w is None else (w.slot, w.monomial, w.lhs, w.rhs)
                assert got == colex_first_difference(p)


SETTINGS = settings(max_examples=300, deadline=None, database=None)


@st.composite
def sparse_polys(draw, min_nvars=1):
    """A polynomial over Z, Q or Z[i] in min_nvars..4 variables, exponents 0-3."""
    ring = draw(st.sampled_from((Ring.Z, Ring.Q, Ring.ZI)))
    nvars = draw(st.integers(min_nvars, 4))
    small = st.integers(-3, 3)
    value = {
        Ring.Z: small,
        Ring.Q: st.builds(Fraction, small, st.integers(1, 4)),
        Ring.ZI: st.builds(GaussianInt, small, small),
    }[ring]
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return SparsePoly(ring, nvars, draw(st.dictionaries(exps, value, max_size=4)))


@SETTINGS
@given(sparse_polys())
def test_compose_substitution_matches_term_expansion(p):
    for slot in range(1, p.nvars + 1):
        assert compose_substitution(p, slot) == expand_composition(p, slot)


@settings(SETTINGS, max_examples=1000)
@given(sparse_polys(min_nvars=2))
def test_witness_matches_term_expansion(p):
    w = is_associative(p).witness
    got = None if w is None else (w.slot, w.monomial, w.lhs, w.rhs)
    assert got == colex_first_difference(p)


def test_symmetric_shortcut_agrees_with_full_check():
    rng = XorShift64Star(103)
    for _ in range(120):
        c = [rng.element(Ring.Z, 2) for _ in range(4)]
        ml = MultilinearPoly(
            Ring.Z, 3, {m: c[m.bit_count()] for m in range(8)}
        )
        assert ml.is_symmetric()
        base = compose_closed_form(ml, 1)
        full = all(
            compose_closed_form(ml, i).coeffs == base.coeffs for i in range(2, 4)
        )
        assert associative_multilinear(ml).associative == full


def test_degree_consequences_for_associative_operations():
    seen_nonlinear = 0
    for values in product((-1, 0, 1), repeat=8):
        ml = MultilinearPoly(Ring.Z, 3, dict(enumerate(values)))
        if not associative_multilinear(ml).associative:
            continue
        if ml.degree() > 1:
            seen_nonlinear += 1
            assert ml.coeff((1 << 3) - 1) != 0
            assert ml.is_symmetric()
    assert seen_nonlinear == 4


def test_witness_is_minimal_in_mask_order():
    rng = XorShift64Star(109)
    tables = [
        MultilinearPoly(Ring.Z, 2, {m: rng.element(Ring.Z, 2) for m in range(4)})
        for _ in range(150)
    ]
    tables += [
        random_table(rng, ring, n, constant)
        for ring in (Ring.Z, Ring.Q, Ring.ZI)
        for n in range(3, 6)
        for constant in (False, True)
        for _ in range(6)
    ]
    for ml in tables:
        verdict = associative_multilinear(ml)
        if verdict.associative:
            assert dense_first_difference(ml) is None
            continue
        w = verdict.witness
        assert (w.slot, w.monomial, w.lhs, w.rhs) == dense_first_difference(ml)
        base = compose_closed_form(ml, 1)
        other = compose_closed_form(ml, w.slot)
        witness_mask = sum(1 << (j - 1) for j in w.subset)
        for mask in range(witness_mask):
            assert base.coeff(mask) == other.coeff(mask)
        # every slot before the witness slot agrees everywhere
        for slot in range(2, w.slot):
            assert compose_closed_form(ml, slot).coeffs == base.coeffs


def test_arity_below_two_rejected():
    with pytest.raises(ValueError):
        is_associative(SparsePoly(Ring.Z, 1, {(1,): 1}))
