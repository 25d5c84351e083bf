from fractions import Fraction

import pytest

from polyassoc import (
    Constant,
    Frac,
    GaussianInt,
    LeftProjection,
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
    group_status,
    is_medial,
    iterate_binary,
    parse_poly,
    reconstruct,
    reducibility,
    skew_is_endomorphism,
    verify_skew,
)

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"


def test_group_status_by_family():
    group, skew, _ = group_status(TranslatedSum(0), Ring.Z, 3)
    assert group == "yes" and skew == SkewMap(-1, 0)
    group, skew, _ = group_status(TwistedSum(-1), Ring.Z, 3)
    assert group == "yes" and skew == SkewMap(1, 0)
    group, skew, notes = group_status(ShiftedProduct(Fraction(1), Frac(Ring.Q, 0)), Ring.Q, 3)
    assert group == "field-restricted" and skew is None and notes
    group, skew, notes = group_status(ShiftedProduct(9, Frac(Ring.Z, 1, 3)), Ring.Z, 3)
    assert group == "no" and notes
    for cls in (Constant(5), LeftProjection(), RightProjection()):
        assert group_status(cls, Ring.Z, 3)[0] == "no"
    with pytest.raises(ValueError):
        group_status(NotAssociative(None), Ring.Z, 3)


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
    for ring in (Ring.Z, Ring.ZI):
        for n in range(2, 6):
            for c in range(-3, 4):
                cls = TranslatedSum(ring.coerce(c))
                p = reconstruct(cls, n, ring)
                _, skew, _ = group_status(cls, ring, n)
                assert verify_skew(p, skew)
                assert skew_is_endomorphism(p, skew)
        for n in (3, 4, 5):
            for omega in ring.roots_of_unity(n - 1):
                if omega == ring.one:
                    continue
                cls = TwistedSum(omega)
                p = reconstruct(cls, n, ring)
                _, skew, _ = group_status(cls, ring, n)
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


def test_is_medial_sampled_for_large_arity():
    # default config: 1000 samples at the fixed default seed
    for p in (
        reconstruct(TranslatedSum(3), 4, Ring.Z),
        reconstruct(Constant(2), 4, Ring.Z),
        reconstruct(ShiftedProduct(8, Frac(Ring.Z, 1, 2)), 4, Ring.Z),
        reconstruct(TwistedSum(GaussianInt(0, 1)), 5, Ring.ZI),
        reconstruct(TranslatedSum(Fraction(1, 3)), 5, Ring.Q),
    ):
        ok, method = is_medial(p)
        assert ok and method == "sampled"


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
    status, reduction, _ = reducibility(TranslatedSum(4), Ring.Z, 3)
    assert status == "yes"
    assert reduction.params == {"c0": "2"}
    assert iterate_binary(reduction.binary_op, 3) == reconstruct(TranslatedSum(4), 3, Ring.Z)
    status, reduction, note = reducibility(TranslatedSum(1), Ring.Z, 3)
    assert status == "no" and reduction is None and "not divisible" in note
    # over the rationals division always succeeds
    status, reduction, _ = reducibility(TranslatedSum(Fraction(1)), Ring.Q, 3)
    assert status == "yes" and reduction.params == {"c0": "1/2"}


def test_reducibility_twisted_and_projections():
    status, _, _ = reducibility(TwistedSum(-1), Ring.Z, 3)
    assert status == "no"
    for cls, expected in (
        (Constant(5), parse_poly("5", 3, Ring.Z)),
        (LeftProjection(), parse_poly("x1", 3, Ring.Z)),
        (RightProjection(), parse_poly("x3", 3, Ring.Z)),
    ):
        status, reduction, _ = reducibility(cls, Ring.Z, 3)
        assert status == "yes"
        assert iterate_binary(reduction.binary_op, 3) == expected


def test_reducibility_shifted_products():
    status, reduction, _ = reducibility(ShiftedProduct(Fraction(4), Frac(Ring.Q, 0)), Ring.Q, 3)
    assert status == "yes"
    assert reduction.params == {"a0": "2", "roots": "2, -2"}
    assert iterate_binary(reduction.binary_op, 3) == reconstruct(
        ShiftedProduct(Fraction(4), Frac(Ring.Q, 0)), 3, Ring.Q
    )
    status, _, note = reducibility(ShiftedProduct(Fraction(2), Frac(Ring.Q, 0)), Ring.Q, 3)
    assert status == "no" and "no exact" in note
    status, _, note = reducibility(ShiftedProduct(9, Frac(Ring.Z, 1, 3)), Ring.Z, 3)
    assert status == "out-of-scope"
    status, _, note = reducibility(
        ShiftedProduct(Fraction(4), Frac(Ring.Q, 1)), Ring.Q, 3
    )
    assert status == "out-of-scope" and "offset 0" in note


def test_analyze_reports():
    p = parse_poly("x1 + x2 + x3 + 4", 3, Ring.Z)
    report = analyze(p, classify(p), Ring.Z)
    assert report.group == "yes"
    assert report.skew.render(Ring.Z) == "-x-4"
    assert report.skew_verified and report.skew_endomorphism
    assert report.medial and report.medial_method == "symbolic"
    assert report.reducible == "yes" and report.reduction.params == {"c0": "2"}

    alt = parse_poly("x1 - x2 + x3", 3, Ring.Z)
    report = analyze(alt, classify(alt), Ring.Z)
    assert report.group == "yes" and report.skew.render(Ring.Z) == "x"
    assert report.reducible == "no"

    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    report = analyze(cubic, classify(cubic), Ring.Z)
    assert report.group == "no"
    assert report.skew is None
    assert report.medial
    assert report.reducible == "out-of-scope"
    assert report.notes

    with pytest.raises(ValueError):
        analyze(p, NotAssociative(None), Ring.Z)


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
        group, skew, _ = group_status(cls, ring, n)
        assert (skew is not None) == (group == "yes")
