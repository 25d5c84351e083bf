from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from polyassoc import (
    Constant,
    Frac,
    GaussianInt,
    LeftProjection,
    MultilinearPoly,
    NotAssociative,
    OracleConfig,
    RightProjection,
    Ring,
    ShiftedProduct,
    SkewMap,
    SparsePoly,
    TranslatedSum,
    TwistedSum,
    analyze,
    classify,
    is_medial,
    iterate_binary,
    parse_poly,
    reconstruct,
    skew_is_endomorphism,
    verify_skew,
)
from polyassoc import structure

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"


def test_group_status_by_family():
    # expected answers straight from the family formulas: a translated sum
    # has skew (2-n)x - c, a twisted sum skew x, the rest no skew at all
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for n in range(2, 7):
            cases = [(Constant(ring.coerce(5)), "no", None),
                     (LeftProjection(), "no", None),
                     (RightProjection(), "no", None)]
            for c in range(-3, 4):
                skew = SkewMap(ring.coerce(2 - n), ring.coerce(-c))
                cases.append((TranslatedSum(ring.coerce(c)), "yes", skew))
            if n >= 3:
                for omega in ring.roots_of_unity(n - 1):
                    if omega != ring.one:
                        cases.append((TwistedSum(omega), "yes", SkewMap(ring.one, ring.zero)))
            for cls, expected_group, expected_skew in cases:
                group, skew, notes = cls.group(ring, n)
                assert (group, skew, notes) == (expected_group, expected_skew, ())
                if skew is not None:
                    assert {type(skew.alpha), type(skew.beta)} == {type(ring.one)}
            product = ShiftedProduct(ring.coerce(9), Frac(ring, 1, 3))
            group, skew, notes = product.group(ring, n)
            assert group == ("field-restricted" if ring.is_field else "no")
            assert skew is None and len(notes) == 1
    group, _, _ = TwistedSum(GaussianInt(0, 1)).group(Ring.ZI, 5)
    assert group == "yes"


def test_verify_skew_fixtures():
    assert verify_skew(parse_poly("x1 + x2 + x3", 3, Ring.Z), SkewMap(-1, 0))
    assert verify_skew(parse_poly("x1 - x2 + x3", 3, Ring.Z), SkewMap(1, 0))
    assert verify_skew(parse_poly("x1 + x2 + x3 + 1", 3, Ring.Z), SkewMap(-1, -1))
    assert not verify_skew(parse_poly("x1 + x2 + x3 + 1", 3, Ring.Z), SkewMap(-1, 0))


def test_skew_is_endomorphism_fixtures():
    assert skew_is_endomorphism(parse_poly("x1 + x2 + x3", 3, Ring.Z), SkewMap(-1, 0))
    assert skew_is_endomorphism(parse_poly("x1 - x2 + x3", 3, Ring.Z), SkewMap(1, 0))
    p = reconstruct(TranslatedSum(2), 4, Ring.Z)
    assert verify_skew(p, SkewMap(-2, -2))
    assert skew_is_endomorphism(p, SkewMap(-2, -2))


def test_skew_identities_over_grids():
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for n in range(2, 7):
            for c in range(-3, 4):
                cls = TranslatedSum(ring.coerce(c))
                p = reconstruct(cls, n, ring)
                _, skew, _ = cls.group(ring, n)
                assert verify_skew(p, skew)
                assert skew_is_endomorphism(p, skew)
        for n in range(3, 7):
            for omega in ring.roots_of_unity(n - 1):
                if omega == ring.one:
                    continue
                cls = TwistedSum(omega)
                p = reconstruct(cls, n, ring)
                _, skew, _ = cls.group(ring, n)
                assert verify_skew(p, skew)
                assert skew_is_endomorphism(p, skew)


def test_skew_rendering():
    assert SkewMap(-1, -4).render(Ring.Z) == "-x-4"
    assert SkewMap(1, 0).render(Ring.Z) == "x"
    assert SkewMap(-1, 0).render(Ring.Z) == "-x"
    assert SkewMap(0, -4).render(Ring.Z) == "-4"


def test_is_medial_symbolic():
    assert is_medial(parse_poly("x1 + x2", 2, Ring.Z)) == (True, "symbolic")
    assert is_medial(parse_poly("x1*x2*x3", 3, Ring.Z)) == (True, "symbolic")
    assert is_medial(parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)) == (True, "symbolic")
    # a non-associative, non-medial operation
    assert is_medial(parse_poly("2*x1*x2 + x1", 2, Ring.Z)) == (False, "symbolic")


def _medial_by_substitution(p):
    """Reference: both sides of the medial identity expanded in n^2 variables."""
    n = p.nvars
    m = n * n
    rows = [
        p.substitute([SparsePoly.variable(p.ring, m, r * n + c + 1) for c in range(n)])
        for r in range(n)
    ]
    cols = [
        p.substitute([SparsePoly.variable(p.ring, m, r * n + c + 1) for r in range(n)])
        for c in range(n)
    ]
    return p.substitute(rows) == p.substitute(cols)


def _ring_values(ring, nonzero=False):
    small = st.integers(-3, 3)
    num = st.sampled_from((-3, -2, -1, 1, 2, 3)) if nonzero else small
    return {
        Ring.Z: num,
        Ring.Q: st.builds(Fraction, num, st.integers(1, 4)),
        Ring.ZI: st.builds(GaussianInt, num, small),
    }[ring]


def _family_members(ring, n):
    members = [LeftProjection(), RightProjection()]
    for c in range(-2, 3):
        members += [Constant(ring.coerce(c)), TranslatedSum(ring.coerce(c))]
    for a in (-2, 1, 3):
        for b in (0, 1, -2):
            members.append(ShiftedProduct(ring.coerce(a), Frac(ring, b)))
    if n == 3:
        members += [TwistedSum(ring.coerce(-1)), ShiftedProduct(ring.coerce(9), Frac(ring, 1, 3))]
    return [reconstruct(cls, n, ring) for cls in members]


@st.composite
def medial_inputs(draw):
    """A multilinear table over Z, Q or Z[i] at n = 2 or 3: sparse or dense,
    with a zero or nonzero constant term; a family member; or a family
    member plus one multilinear term."""
    ring = draw(st.sampled_from((Ring.Z, Ring.Q, Ring.ZI)))
    n = draw(st.sampled_from((2, 3)))
    values, nonzero = _ring_values(ring), _ring_values(ring, nonzero=True)
    kind = draw(st.sampled_from(("sparse", "dense", "member", "member+term")))
    if kind in ("member", "member+term"):
        p = draw(st.sampled_from(_family_members(ring, n)))
        if kind == "member":
            return p
        exps = draw(st.tuples(*[st.integers(0, 1)] * n))
        return p + SparsePoly(ring, n, {exps: draw(nonzero)})
    masks = range(1, 1 << n)
    if kind == "dense":
        coeffs = {mask: draw(nonzero) for mask in masks}
    else:
        coeffs = draw(st.dictionaries(st.sampled_from(masks), values, max_size=3))
    if draw(st.booleans()):
        coeffs[0] = draw(nonzero)
    return MultilinearPoly(ring, n, coeffs)


@settings(max_examples=400, deadline=None, database=None)
@given(medial_inputs())
def test_is_medial_matches_the_substitution(p):
    expected = _medial_by_substitution(p)
    event("medial" if expected else "not medial")
    assert is_medial(p) == (expected, "symbolic")


@settings(max_examples=300, deadline=None, database=None)
@given(medial_inputs(), st.integers(1, 2**64 - 1))
def test_sampled_medial_check_equals_the_symbolic_verdict(p, seed):
    # one or two points of the full 64-bit box separate the medial tables
    # from the rest, at any seed
    row_keys, col_keys, values = structure._medial_sides(p.to_multilinear())
    medial = dict(zip(row_keys, values)) == dict(zip(col_keys, values))
    event("medial" if medial else "not medial")
    sides = structure._sampled_sides(p)
    ok = structure._samples_agree(p.ring, p.degree() ** 2, p.nvars ** 2, sides, seed)
    assert ok == medial


def test_is_medial_reads_multilinear_input_without_substituting(monkeypatch):
    def ternary_product(a, b):
        return "-" + b + " + " + a + "*" + "*".join(f"(x{j} + {b})" for j in (1, 2, 3))

    cases = [
        parse_poly(CUBIC_EXAMPLE, 3, Ring.Z),
        parse_poly("2*x1*x2 + x1", 2, Ring.Z),
        parse_poly(ternary_product("3/2", "1/2"), 3, Ring.Q),
        parse_poly(ternary_product("(1 + i)", "(2 - i)"), 3, Ring.ZI),
        parse_poly(ternary_product("3/2", "1/2") + " + x1*x2", 3, Ring.Q),
        parse_poly(ternary_product("(1 + i)", "(2 - i)") + " + i*x3", 3, Ring.ZI),
    ]
    expected = [_medial_by_substitution(p) for p in cases]
    assert expected == [True, False, True, True, False, False]

    def refuse(*args):
        raise AssertionError("is_medial expanded or sampled multilinear input")

    monkeypatch.setattr(SparsePoly, "substitute", refuse)
    monkeypatch.setattr(structure, "_samples_agree", refuse)
    assert [is_medial(p) for p in cases] == [(e, "symbolic") for e in expected]


def test_is_medial_samples_a_squared_variable():
    # x1^2 is medial: both sides are x11^4; x1^2 + x2 is not
    assert is_medial(parse_poly("x1^2", 2, Ring.Z)) == (True, "sampled")
    assert is_medial(parse_poly("x1^2 + x2", 2, Ring.Z)) == (False, "sampled")


def test_is_medial_sampled_for_large_arity():
    # sized by each input's degree bound, at the fixed default seed
    for p in (
        reconstruct(TranslatedSum(3), 4, Ring.Z),
        reconstruct(Constant(2), 4, Ring.Z),
        reconstruct(ShiftedProduct(8, Frac(Ring.Z, 1, 2)), 4, Ring.Z),
        reconstruct(TwistedSum(GaussianInt(0, 1)), 5, Ring.ZI),
        reconstruct(TranslatedSum(Fraction(1, 3)), 5, Ring.Q),
    ):
        ok, method = is_medial(p)
        assert ok and method == "sampled"


def test_is_medial_sampled_count_follows_the_degree_bound(monkeypatch):
    # SP(5) has degree 5, so the medial identity has degree at most 25, and
    # 2 points at half-width 2^63 - 1 bound the error by 2^-64
    calls = []

    def counted(ring, degree, width, values, seed):
        calls.append((degree, width))
        drawn = []
        ok = real(ring, degree, width, lambda point: drawn.append(point) or values(point), seed)
        calls.append(len(drawn))
        return ok

    real = structure._samples_agree
    monkeypatch.setattr(structure, "_samples_agree", counted)
    p = parse_poly("-1 + 2*" + "*".join(f"(x{i} + 1)" for i in range(1, 6)), 5, Ring.Z)
    assert is_medial(p) == (True, "sampled")
    assert calls == [(25, 25), 2]


def test_is_medial_sampled_rejects_non_medial():
    for text, ring in (("1/2*x1*x2 + x3 - x4", Ring.Q), ("i*x1*x2 + x3^2 + x4", Ring.ZI)):
        assert is_medial(parse_poly(text, 4, ring)) == (False, "sampled")


def test_iterate_binary():
    plus = parse_poly("x1 + x2", 2, Ring.Z)
    assert iterate_binary(plus, 4) == parse_poly("x1 + x2 + x3 + x4", 4, Ring.Z)
    left = parse_poly("x1", 2, Ring.Z)
    assert iterate_binary(left, 3) == parse_poly("x1", 3, Ring.Z)
    right = parse_poly("x2", 2, Ring.Z)
    assert iterate_binary(right, 3) == parse_poly("x3", 3, Ring.Z)


def test_reducibility_translated_sums():
    status, reduction, _ = TranslatedSum(4).reduction(Ring.Z, 3)
    assert status == "yes"
    assert reduction.params == {"c0": "2"}
    assert iterate_binary(reduction.binary_op, 3) == reconstruct(TranslatedSum(4), 3, Ring.Z)
    status, reduction, note = TranslatedSum(1).reduction(Ring.Z, 3)
    assert status == "no" and reduction is None and "not divisible" in note
    # over the rationals division always succeeds
    status, reduction, _ = TranslatedSum(Fraction(1)).reduction(Ring.Q, 3)
    assert status == "yes" and reduction.params == {"c0": "1/2"}


def test_reducibility_twisted_and_projections():
    status, _, _ = TwistedSum(-1).reduction(Ring.Z, 3)
    assert status == "no"
    for cls, expected in (
        (Constant(5), parse_poly("5", 3, Ring.Z)),
        (LeftProjection(), parse_poly("x1", 3, Ring.Z)),
        (RightProjection(), parse_poly("x3", 3, Ring.Z)),
    ):
        status, reduction, _ = cls.reduction(Ring.Z, 3)
        assert status == "yes"
        assert iterate_binary(reduction.binary_op, 3) == expected


def test_reducibility_shifted_products():
    status, reduction, _ = ShiftedProduct(Fraction(4), Frac(Ring.Q, 0)).reduction(Ring.Q, 3)
    assert status == "yes"
    assert reduction.params == {"a0": "2", "roots": "2, -2"}
    assert iterate_binary(reduction.binary_op, 3) == reconstruct(
        ShiftedProduct(Fraction(4), Frac(Ring.Q, 0)), 3, Ring.Q
    )
    status, _, note = ShiftedProduct(Fraction(2), Frac(Ring.Q, 0)).reduction(Ring.Q, 3)
    assert status == "no" and note == "no element r of Q has r^2 = 2"
    status, _, note = ShiftedProduct(9, Frac(Ring.Z, 1, 3)).reduction(Ring.Z, 3)
    assert status == "out-of-scope"
    status, _, note = ShiftedProduct(Fraction(4), Frac(Ring.Q, 1)).reduction(Ring.Q, 3)
    assert status == "out-of-scope" and "offset 0" in note


def test_analyze_reports():
    p = parse_poly("x1 + x2 + x3 + 4", 3, Ring.Z)
    report = analyze(p, classify(p))
    assert report.group == "yes"
    assert report.skew.render(Ring.Z) == "-x-4"
    assert report.skew_verified and report.skew_endomorphism
    assert report.medial and report.medial_method == "symbolic"
    assert report.reducible == "yes" and report.reduction.params == {"c0": "2"}

    alt = parse_poly("x1 - x2 + x3", 3, Ring.Z)
    report = analyze(alt, classify(alt))
    assert report.group == "yes" and report.skew.render(Ring.Z) == "x"
    assert report.reducible == "no"

    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    report = analyze(cubic, classify(cubic))
    assert report.group == "no"
    assert report.skew is None
    assert report.medial
    assert report.reducible == "out-of-scope"
    assert report.notes

    with pytest.raises(ValueError):
        analyze(p, NotAssociative(None))


def test_skew_present_iff_group_on_whole_ring():
    cases = [
        (Constant(2), Ring.Z, 3),
        (LeftProjection(), Ring.Z, 3),
        (TranslatedSum(1), Ring.Z, 3),
        (TwistedSum(-1), Ring.Z, 3),
        (ShiftedProduct(Fraction(2), Frac(Ring.Q, 0)), Ring.Q, 2),
        (ShiftedProduct(1, Frac(Ring.Z, 0)), Ring.Z, 2),
    ]
    for cls, ring, n in cases:
        group, skew, _ = cls.group(ring, n)
        assert (skew is not None) == (group == "yes")


def test_exact_medial_route_multiplies_no_gaussian_integer(monkeypatch):
    # the Z[i] shifted product of the benchmark's analyze requests at n = 3
    p = parse_poly("(-1-i)*(x1 + (-1-2*i))*(x2 + (-1-2*i))*(x3 + (-1-2*i)) - (-1-2*i)", 3, Ring.ZI)
    skewed = p + parse_poly("i*x1*x2", 3, Ring.ZI)

    def refuse(self, other):
        raise AssertionError("a GaussianInt was multiplied")

    monkeypatch.setattr(GaussianInt, "__mul__", refuse)
    monkeypatch.setattr(GaussianInt, "__rmul__", refuse)
    row_keys, col_keys, values = structure._medial_sides(p.to_multilinear())
    assert len(values) == 2**9 and {type(v) for v in values} == {tuple}
    assert is_medial(p) == (True, "symbolic")
    assert is_medial(skewed) == (False, "symbolic")
