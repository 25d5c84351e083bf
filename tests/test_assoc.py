import importlib
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyassoc import (
    BudgetError,
    Frac,
    GaussianInt,
    MultilinearPoly,
    NotAssociative,
    Ring,
    ShiftedProduct,
    SparsePoly,
    XorShift64Star,
    associated_value,
    associative_multilinear,
    classify,
    compose_closed_form,
    compose_substitution,
    from_size_coeffs,
    is_associative,
    parse_poly,
    reconstruct,
)
from polyassoc import assoc, poly
from polyassoc.assoc import _cut, _first_difference, _prefix_witness, _pulled_masks

# the module, which the package's classify() hides
classify_module = importlib.import_module("polyassoc.classify")

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
        for slot in (1, 2):
            assert compose_closed_form(ml, slot) == compose_substitution(ml, slot)


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
            for slot in range(1, ml.n + 1):
                closed = compose_closed_form(ml, slot)
                assert closed == dense_closed_form(ml, slot)
                assert closed == compose_substitution(ml, slot)


def test_census_spot_check_substitutes_on_masks():
    # the multilinear case of substitution stays at width 1, so the spot
    # check's view of it wraps the substitution's own mask table
    rng = XorShift64Star(59)
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for n in range(2, 7):
            for constant in (False, True):
                ml = random_table(rng, ring, n, constant)
                for slot in range(1, n + 1):
                    composed = compose_substitution(ml, slot)
                    view = composed.to_multilinear()
                    assert composed.width == 1 and type(view) is MultilinearPoly
                    assert view.coeffs is composed.coeffs
                    assert view == compose_closed_form(ml, slot)


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
        assert associated_value(ml, 1, point) != associated_value(ml, w.slot, point)
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


def ring_values(ring):
    small = st.integers(-3, 3)
    return {
        Ring.Z: small,
        Ring.Q: st.builds(Fraction, small, st.integers(1, 4)),
        Ring.ZI: st.builds(GaussianInt, small, small),
    }[ring]


@st.composite
def sparse_polys(draw, min_nvars=1, max_exp=3):
    """A polynomial over Z, Q or Z[i] in min_nvars..4 variables, exponents 0..max_exp."""
    ring = draw(st.sampled_from((Ring.Z, Ring.Q, Ring.ZI)))
    nvars = draw(st.integers(min_nvars, 4))
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return SparsePoly(ring, nvars, draw(st.dictionaries(exps, ring_values(ring), max_size=4)))


def shifted_product(ring, n, a, b):
    """-b + a * (x1 + b) * ... * (xn + b), associative for every a and b in R."""
    p = SparsePoly.constant(ring, n, a)
    for j in range(1, n + 1):
        p = p * (SparsePoly.variable(ring, n, j) + b)
    return p - b


@st.composite
def decision_inputs(draw):
    """Input for the decision over Z, Q or Z[i] at n = 2..4: an associative
    family member, the member plus a tail term (a squared last variable or
    any term of exponents 0-2, so witnesses fall past x1 too), or free
    sparse input, multilinear or not."""
    kind = draw(st.sampled_from(("member", "member+square", "member+term", "free", "table")))
    if kind in ("free", "table"):
        return draw(sparse_polys(min_nvars=2, max_exp=3 if kind == "free" else 1))
    ring = draw(st.sampled_from((Ring.Z, Ring.Q, Ring.ZI)))
    n = draw(st.integers(2, 4))
    c, a, b = (draw(ring_values(ring)) for _ in range(3))
    xs = [SparsePoly.variable(ring, n, j) for j in range(1, n + 1)]
    member = draw(st.sampled_from((
        SparsePoly.constant(ring, n, c),
        xs[0],
        xs[-1],
        sum(xs, SparsePoly.constant(ring, n, c)),
        shifted_product(ring, n, a, b),
    )))
    if kind == "member":
        return member
    coeff = draw(ring_values(ring).filter(bool))
    if kind == "member+square":
        exps = (0,) * (n - 1) + (2,)
    else:
        exps = draw(st.tuples(*[st.integers(0, 2)] * n))
    return member + SparsePoly(ring, n, {exps: coeff})


@SETTINGS
@given(sparse_polys())
def test_compose_substitution_matches_term_expansion(p):
    for slot in range(1, p.nvars + 1):
        assert compose_substitution(p, slot) == expand_composition(p, slot)


def two_substitution_composition(p, slot):
    """Reference: the slot composition by its literal definition, the nested
    call p(x_slot, .., x_(slot+n-1)) substituted first, then p of it and the
    outer variables."""
    n, m = p.nvars, 2 * p.nvars - 1
    xs = [SparsePoly.variable(p.ring, m, j) for j in range(1, m + 1)]
    inner = p.substitute(xs[slot - 1 : slot - 1 + n])
    return p.substitute(xs[: slot - 1] + [inner] + xs[slot - 1 + n :])


@SETTINGS
@given(st.one_of(sparse_polys(min_nvars=2), sparse_polys(min_nvars=2, max_exp=1)))
def test_compose_substitution_matches_the_two_substitution_definition(p):
    for slot in range(1, p.nvars + 1):
        got, want = compose_substitution(p, slot), two_substitution_composition(p, slot)
        assert (got.ring, got.nvars, got.terms) == (want.ring, want.nvars, want.terms)


@settings(SETTINGS, max_examples=1000)
@given(decision_inputs())
def test_witness_matches_term_expansion(p):
    w = is_associative(p).witness
    got = None if w is None else (w.slot, w.monomial, w.lhs, w.rhs)
    assert got == colex_first_difference(p)
    ml = p.to_multilinear()
    if ml is not None:
        assert got == dense_first_difference(ml)


@pytest.mark.parametrize("text, n, slot, monomial", [
    ("x1 + x2 + x2^2", 2, 2, (0, 1, 1)),
    ("x1*x2 + x2^2", 2, 2, (0, 2, 1)),
    ("1 + x1 + x2 + x3 + x3^2", 3, 2, (0, 0, 2, 0, 0)),
    ("x1 + x2 + x3 + x4 + 2*x4^2", 4, 2, (0, 0, 0, 2, 0, 0, 0)),
    ("2*x1*x2 + x1", 2, 2, (1, 0, 1)),
])
def test_witness_past_x1_comes_from_the_full_comparison(text, n, slot, monomial):
    p = parse_poly(text, n, Ring.Z)
    w = is_associative(p).witness
    assert (w.slot, w.monomial) == (slot, monomial)
    assert (w.slot, w.monomial, w.lhs, w.rhs) == colex_first_difference(p)
    # slots 1 and 2 agree at k = 1
    assert _cut(p, 1, 1) == _cut(p, 2, 1)


@st.composite
def multilinear_tables(draw):
    """A multilinear table over Z, Q or Z[i] at n = 2..5 on any set of masks."""
    ring = draw(st.sampled_from((Ring.Z, Ring.Q, Ring.ZI)))
    n = draw(st.integers(2, 5))
    masks = st.integers(0, (1 << n) - 1)
    return MultilinearPoly(ring, n, draw(st.dictionaries(masks, ring_values(ring))))


def _pulled_coeff(p, slot, mask):
    """The coefficient of ``mask`` in the slot composition of multilinear p,
    read off p as [W = 0]*c_O + c_(O | {slot})*c_W from the masks that
    ``_pulled_masks`` names (see the assoc module docstring)."""
    get, zero = p.coeffs.get, p.ring.zero
    outer, nested, window = _pulled_masks(p.nvars, slot, mask)
    product = get(nested, zero) * get(window, zero)
    return product if window else get(outer, zero) + product


@SETTINGS
@given(multilinear_tables())
def test_pulled_coefficient_matches_the_closed_form(p):
    for slot in range(1, p.n + 1):
        composition = compose_closed_form(p, slot)
        for mask in range(1 << (2 * p.n - 1)):
            pulled = _pulled_coeff(p, slot, mask)
            assert pulled == composition.coeff(mask)
            assert type(pulled) is type(p.ring.zero)


@pytest.mark.parametrize("text, ring, n, mask, lhs, rhs", [
    ("1 + x1*x2*x3 + x2", Ring.Z, 3, 0, 1, 2),
    ("2*x1 + x2*x3", Ring.Z, 3, 1, 4, 2),
    ("3 + 2*x1 + x2", Ring.Z, 2, 0, 9, 6),
    ("1 + 2*x1 + 2*x2 + x1*x2", Ring.Z, 2, 1, 4, 3),
    ("1/2 + x1/3 + x2", Ring.Q, 2, 0, Fraction(2, 3), 1),
    ("1 + x1/2 + x2/2 + x1*x2", Ring.Q, 2, 1, Fraction(1, 4), Fraction(3, 2)),
    ("i + x1 + i*x2*x3", Ring.ZI, 3, 0, GaussianInt(0, 2), GaussianInt(0, 1)),
    ("i*x1 + x2*x3", Ring.ZI, 3, 1, GaussianInt(-1), GaussianInt(0, 1)),
])
def test_witness_at_mask_0_or_1(text, ring, n, mask, lhs, rhs):
    # masks 0 and 1 come first in colex order, so the first difference of
    # slot 2 there is the witness
    p = parse_poly(text, n, ring).to_multilinear()
    w = associative_multilinear(p).witness
    monomial = (mask,) + (0,) * (2 * n - 2)
    assert w == assoc.CompositionWitness(2, monomial, lhs, rhs)
    assert (w.slot, w.monomial, w.lhs, w.rhs) == dense_first_difference(p)
    assert type(w.lhs) is type(w.rhs) is type(ring.zero)


@st.composite
def prefix_inputs(draw):
    """A multilinear table over Z, Q or Z[i] at n = 2..6: any table, or a
    shifted product or translated sum with one coefficient changed, which
    often agrees with slot 1 on every mask below 2^n."""
    ring = draw(st.sampled_from((Ring.Z, Ring.Q, Ring.ZI)))
    n = draw(st.integers(2, 6))
    masks = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        return MultilinearPoly(ring, n, draw(st.dictionaries(masks, ring_values(ring))))
    a, b = draw(ring_values(ring).filter(bool)), draw(ring_values(ring))
    if draw(st.booleans()):
        coeffs = dict(reconstruct(ShiftedProduct(a, Frac(ring, ring.coerce(b))), n, ring).coeffs)
    else:
        coeffs = {0: b, **{1 << j: 1 for j in range(n)}}
    mask = draw(masks)
    coeffs[mask] = coeffs.get(mask, 0) + draw(ring_values(ring))
    return MultilinearPoly(ring, n, coeffs)


@settings(SETTINGS, max_examples=600)
@given(prefix_inputs())
def test_prefix_witness_is_the_full_comparisons_witness(p):
    # the full comparison's first difference of slots 1 and 2; the prefix step
    # finds exactly those below 2^n, the masks in x1..xn alone
    base, other = compose_closed_form(p, 1).coeffs, compose_closed_form(p, 2).coeffs
    mask, zero = _first_difference(base, other), p.ring.zero
    w = _prefix_witness(p)
    if mask is None or mask >> p.n:
        assert w is None
        return
    monomial = tuple((mask >> j) & 1 for j in range(2 * p.n - 1))
    assert w == assoc.CompositionWitness(2, monomial, base.get(mask, zero), other.get(mask, zero))
    assert type(w.lhs) is type(w.rhs) is type(zero)
    assert associative_multilinear(p).witness == w


@SETTINGS
@given(prefix_inputs())
def test_a_shifted_product_candidate_is_matched_by_its_ladder_as_by_its_table(p):
    # _families compares the candidate with its ladder, size by size, instead of
    # building the table; the answer must be the table comparison's
    a = p.coeff((1 << p.n) - 1)
    if not a:
        return
    candidate = ShiftedProduct(a, Frac(p.ring, p.coeff((1 << (p.n - 1)) - 1), a))
    try:
        rebuilt = reconstruct(candidate, p.n, p.ring).coeffs == p.coeffs
    except ValueError:  # the offset leaves the ring
        rebuilt = False
    assert classify_module._families(p) == ([candidate] if rebuilt else [])


def shifted_product_table(n):
    """-1 + 2*(x1+1)*...*(xn+1): a = 2, b = 1, all 2^n masks."""
    return from_size_coeffs(Ring.Z, n, [1] + [2] * n)


def test_decision_charges_each_closed_form_before_building_it(monkeypatch):
    built, closed_form = [], assoc.compose_closed_form
    monkeypatch.setattr(
        assoc, "compose_closed_form", lambda p, s: built.append(s) or closed_form(p, s)
    )
    # two forms, then the symmetric shortcut; at n = 12 they charge 2^11 * 2^12 + 2^11
    # pairs each, within the budget, and at n = 13 the first form alone passes it
    assert is_associative(shifted_product_table(8)).associative and built == [1, 2]
    assert 2 * (2**11 * 2**12 + 2**11) <= assoc.DECISION_BUDGET
    built.clear()
    with pytest.raises(BudgetError) as err:
        is_associative(shifted_product_table(13))
    assert err.value.required == 2**12 * 2**13 + 2**12 > assoc.DECISION_BUDGET
    assert built == []


@pytest.mark.parametrize("n", [13, 16])
def test_prefix_step_finds_a_witness_at_x_n_without_compositions(monkeypatch, n):
    # SP(n) + x_n differs from slot 1 at x_n, below 2^n
    p = shifted_product_table(n) + SparsePoly.variable(Ring.Z, n, n)
    monkeypatch.setattr(assoc, "compose_closed_form", None)
    w = is_associative(p).witness
    assert (w.slot, w.monomial_str(), w.lhs, w.rhs) == (2, f"x{n}", 6, 4)
    assert classify(p) == NotAssociative(w)


def test_classify_recognises_a_dense_shifted_product_without_compositions(monkeypatch):
    monkeypatch.setattr(assoc, "compose_closed_form", None)
    assert classify(shifted_product_table(12)) == ShiftedProduct(2, Frac(Ring.Z, 1))


@SETTINGS
@given(st.one_of(sparse_polys(min_nvars=2), sparse_polys(min_nvars=2, max_exp=1)))
def test_prefix_cut_matches_the_full_substitution(p):
    for slot in range(1, p.nvars + 1):
        full = compose_substitution(p, slot).terms
        for k in range(1, 2 * p.nvars):
            cut = _cut(p, slot, k)
            want = {e[:k]: c for e, c in full.items() if not any(e[k:])}
            assert (cut.ring, cut.nvars, cut.terms) == (p.ring, k, want)
            assert [type(c) for c in cut.terms.values()] == [type(want[e]) for e in cut.terms]
    ml = p.to_multilinear()
    if ml is not None:
        # the cut at k = 1 and the pulled coefficients give the same
        # constant and x1 coefficients
        for slot in (1, 2):
            part = _cut(p, slot, 1).terms
            assert set(part) <= {(0,), (1,)}
            for e in (0, 1):
                assert part.get((e,), p.ring.zero) == _pulled_coeff(ml, slot, e)


@pytest.mark.parametrize("text, ring, n, monomial, lhs, rhs", [
    ("x1^2", Ring.Z, 2, (2, 0, 0), 0, 1),
    ("(x1+x2+x3+x4)^3", Ring.Z, 4, (3, 0, 0, 0, 0, 0, 0), 0, 1),
    ("3*x1^3*x2^2 + 2", Ring.ZI, 2, (3, 0, 0), GaussianInt(0), GaussianInt(12)),
])
def test_squared_variable_x1_step_builds_no_composition(monkeypatch, text, ring, n, monomial, lhs, rhs):
    p = parse_poly(text, n, ring)
    cuts = []

    def cut(p, slot, k):
        cuts.append(k)
        return _cut(p, slot, k)

    monkeypatch.setattr(assoc, "_cut", cut)
    w = is_associative(p).witness
    assert w == assoc.CompositionWitness(2, monomial, lhs, rhs)
    assert type(w.lhs) is type(w.rhs) is type(ring.zero)
    # no cut goes past the witness's last variable, so no full composition is built
    last = max(j + 1 for j, e in enumerate(monomial) if e)
    assert cuts and max(cuts) <= last


def test_substitution_folds_one_term_values_without_multiplying(monkeypatch):
    # A variable or a constant substituted into a power folds into the term;
    # only values of two or more terms are multiplied, as packed tables, and
    # no cut multiplies SparsePoly values.
    p = parse_poly("(x1 + x2 + x3 + x4 + 2)^3", 4, Ring.Z)
    expected = is_associative(p)
    operands = []
    mul_terms = poly._mul_terms

    def record(a, b):
        operands.append((len(a), len(b)))
        return mul_terms(a, b)

    def refuse(self, other):
        raise AssertionError("a cut multiplied SparsePoly values")

    monkeypatch.setattr(poly, "_mul_terms", record)
    monkeypatch.setattr(SparsePoly, "__mul__", refuse)
    assert is_associative(p) == expected
    assert operands and all(min(sizes) >= 2 for sizes in operands), operands


@pytest.mark.parametrize("text, n", [
    ("(x1 + x2 + x3 + x4 + 2)^3", 4),
    ("x1 + x2 + x3 + x4 + x5 + x5^2 + 3", 5),  # a witness at x5: ten cuts
])
def test_each_cut_builds_one_polynomial_its_result(monkeypatch, text, n):
    # the values of a cut are plain tables: one polynomial per cut, plus the
    # up-front repack of p at the cuts' width
    p = parse_poly(text, n, Ring.Z)
    expected = is_associative(p)
    trusted, cut = SparsePoly._trusted.__func__, assoc._cut
    built, cuts = [], []

    def count_built(cls, *args, **kwargs):
        built.append(cls)
        return trusted(cls, *args, **kwargs)

    def count_cuts(p, slot, k):
        cuts.append(k)
        return cut(p, slot, k)

    monkeypatch.setattr(SparsePoly, "_trusted", classmethod(count_built))
    monkeypatch.setattr(assoc, "_cut", count_cuts)
    assert is_associative(p) == expected
    assert cuts and len(built) == len(cuts) + 1


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
