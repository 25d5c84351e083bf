from fractions import Fraction
from itertools import product

import pytest

from polyassoc import (
    Constant,
    Frac,
    GaussianInt,
    LadderViolation,
    LeftProjection,
    MultilinearPoly,
    NotAssociative,
    RightProjection,
    Ring,
    ShiftedProduct,
    SparsePoly,
    TranslatedSum,
    TwistedSum,
    classify,
    extract_type6,
    from_size_coeffs,
    is_associative,
    parse_poly,
    reconstruct,
    verify_condpol,
)

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"


def test_classify_cubic_example():
    cls = classify(parse_poly(CUBIC_EXAMPLE, 3, Ring.Z))
    assert cls == ShiftedProduct(9, Frac(Ring.Z, 1, 3))


def test_classify_twisted_sums():
    assert classify(parse_poly("x1 - x2 + x3", 3, Ring.Z)) == TwistedSum(-1)
    cls = classify(parse_poly("x1 + i*x2 - x3 - i*x4 + x5", 5, Ring.ZI))
    assert cls == TwistedSum(GaussianInt(0, 1))


def test_classify_remaining_families():
    assert classify(parse_poly("x1*x2", 2, Ring.Z)) == ShiftedProduct(1, Frac(Ring.Z, 0))
    assert classify(parse_poly("5", 4, Ring.Z)) == Constant(5)
    assert classify(parse_poly("x1", 3, Ring.Z)) == LeftProjection()
    assert classify(parse_poly("x3", 3, Ring.Z)) == RightProjection()
    assert classify(parse_poly("x1 + x2 + x3 + 2", 3, Ring.Z)) == TranslatedSum(2)
    assert classify(parse_poly("x1 + x2", 2, Ring.Z)) == TranslatedSum(0)


def test_classify_not_associative():
    cls = classify(parse_poly("2*x1*x2 + x1", 2, Ring.Z))
    assert isinstance(cls, NotAssociative)
    assert cls.witness.subset == (1, 3)


def test_classify_rejects_small_arity():
    with pytest.raises(ValueError):
        classify(SparsePoly(Ring.Z, 1, {(1,): 1}))


def test_extract_type6_cubic_ladder():
    ml = from_size_coeffs(Ring.Z, 3, [0, 1, 3, 9])
    cls = extract_type6(ml)
    assert cls == ShiftedProduct(9, Frac(Ring.Z, 1, 3))
    # the two ladder identities behind the example
    b = Frac(Ring.Z, 1, 3)
    assert b**2 * 9 == 1
    assert b**3 * 9 - b == 0


def test_extract_type6_plain_product():
    ml = from_size_coeffs(Ring.Z, 2, [0, 0, 1])
    assert extract_type6(ml) == ShiftedProduct(1, Frac(Ring.Z, 0))


def test_extract_type6_ladder_violation():
    ml = from_size_coeffs(Ring.Z, 3, [0, 1, 0, 1])  # b = 0 forces c_1 = 0
    rejected = extract_type6(ml)
    assert isinstance(rejected, NotAssociative)
    assert rejected.witness == LadderViolation(
        "ladder", 1, "size-1 coefficient breaks c_k = a*b^(n-k)"
    )


def test_extract_type6_other_rejections():
    asym = MultilinearPoly(Ring.Z, 2, {0b11: 1, 0b01: 1})
    rejected = extract_type6(asym)
    assert isinstance(rejected, NotAssociative)
    assert rejected.witness.kind == "not-symmetric"

    no_top = from_size_coeffs(Ring.Z, 3, [0, 0, 1, 0])
    rejected = extract_type6(no_top)
    assert rejected.witness.kind == "zero-top-coefficient"

    bad_constant = from_size_coeffs(Ring.Z, 2, [1, 0, 1])
    rejected = extract_type6(bad_constant)
    assert rejected.witness.kind == "constant-term"

    with pytest.raises(ValueError):
        extract_type6(from_size_coeffs(Ring.Z, 2, [1, 1, 0]))


def test_verify_condpol_fixtures():
    assert verify_condpol([0, 1, 3, 9])
    assert not verify_condpol([1, 0, 1])  # j=1, k=0 gives 1 != 0
    assert verify_condpol([0, 0, 0, 0])


def test_condpol_matches_associativity_on_symmetric_tables():
    for coeffs in product(range(-2, 3), repeat=4):
        ml = from_size_coeffs(Ring.Z, 3, list(coeffs))
        assert verify_condpol(list(coeffs)) == is_associative(ml.to_sparse()).associative


def test_reconstruct_fixtures():
    cubic = reconstruct(ShiftedProduct(9, Frac(Ring.Z, 1, 3)), 3, Ring.Z)
    assert cubic == parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    assert reconstruct(TranslatedSum(0), 3, Ring.Z) == parse_poly("x1 + x2 + x3", 3, Ring.Z)
    assert reconstruct(TwistedSum(-1), 3, Ring.Z) == parse_poly("x1 - x2 + x3", 3, Ring.Z)
    assert reconstruct(TwistedSum(-1), 5, Ring.Z) == parse_poly(
        "x1 - x2 + x3 - x4 + x5", 5, Ring.Z
    )
    # only the nonzero size class is filled, so a wide product stays one term
    wide = reconstruct(ShiftedProduct(3, Frac(Ring.Z, 0)), 40, Ring.Z)
    assert wide.terms == {(1,) * 40: 3}


def test_reconstruct_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        reconstruct(TwistedSum(-1), 4, Ring.Z)  # (-1)^3 != 1
    with pytest.raises(ValueError):
        reconstruct(TwistedSum(1), 3, Ring.Z)
    with pytest.raises(ValueError):
        reconstruct(TwistedSum(-1), 2, Ring.Z)
    with pytest.raises(ValueError):
        reconstruct(ShiftedProduct(0, Frac(Ring.Z, 0)), 2, Ring.Z)
    with pytest.raises(ValueError):
        # a*b = 1/2 leaves Z
        reconstruct(ShiftedProduct(1, Frac(Ring.Z, 1, 2)), 2, Ring.Z)
    with pytest.raises(ValueError):
        reconstruct(NotAssociative(None), 3, Ring.Z)


def _membership_ok(ring, n, a, b):
    for k in range(n + 1):
        value = b ** (n - k) * a
        if k == 0:
            value = value - b
        if value.in_base_ring() is None:
            return False
    return True


def test_round_trip_over_parameter_grids():
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for n in (2, 3, 4):
            for c in range(-3, 4):
                cls = Constant(ring.coerce(c))
                assert classify(reconstruct(cls, n, ring)) == cls
                cls = TranslatedSum(ring.coerce(c))
                assert classify(reconstruct(cls, n, ring)) == cls
            for cls in (LeftProjection(), RightProjection()):
                assert classify(reconstruct(cls, n, ring)) == cls
    for ring in (Ring.Z, Ring.ZI):
        for n in (3, 4, 5):
            for omega in ring.roots_of_unity(n - 1):
                if omega == ring.one:
                    continue
                cls = TwistedSum(omega)
                assert classify(reconstruct(cls, n, ring)) == cls


def test_round_trip_shifted_products():
    b_values = [
        Frac(Ring.Z, 0),
        Frac(Ring.Z, 1),
        Frac(Ring.Z, -1),
        Frac(Ring.Z, 1, 2),
        Frac(Ring.Z, -1, 2),
        Frac(Ring.Z, 1, 3),
        Frac(Ring.Z, -1, 3),
    ]
    checked = 0
    for n in (2, 3):
        for a in range(-3, 4):
            if a == 0:
                continue
            for b in b_values:
                if not _membership_ok(Ring.Z, n, a, b):
                    continue
                cls = ShiftedProduct(a, b)
                p = reconstruct(cls, n, Ring.Z)
                assert is_associative(p).associative
                assert classify(p) == cls
                checked += 1
    assert checked >= 20


def test_reconstruct_soundness():
    # every valid reconstruction is associative
    for n in (2, 3, 4):
        for c in (-2, 0, 2):
            assert is_associative(reconstruct(TranslatedSum(c), n, Ring.Z)).associative
            assert is_associative(reconstruct(Constant(c), n, Ring.Z)).associative
    for omega in (GaussianInt(0, 1), GaussianInt(0, -1), GaussianInt(-1)):
        p = reconstruct(TwistedSum(omega), 5, Ring.ZI)
        assert is_associative(p).associative
