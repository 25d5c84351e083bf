"""Acceptance suite: one criterion per test, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every check is exact (no tolerances); the stated limits
are wall-clock budgets.
"""

import time
from itertools import product

from polyassoc import (
    Constant,
    Frac,
    GaussianInt,
    LeftProjection,
    MultilinearPoly,
    OracleConfig,
    RightProjection,
    Ring,
    ShiftedProduct,
    SparsePoly,
    TranslatedSum,
    TwistedSum,
    XorShift64Star,
    assoc_pointwise,
    associated_value,
    classify,
    compose_closed_form,
    compose_substitution,
    enumerate_associative,
    from_size_coeffs,
    is_associative,
    is_medial,
    iterate_binary,
    parse_poly,
    reconstruct,
    skew_is_endomorphism,
    verify_condpol,
    verify_skew,
)

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"


def _pass(num, label, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nacceptance {num}: PASS - {label}{timing}")


def test_criterion_1_worked_cubic_example():
    start = time.perf_counter()
    p = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    assert is_associative(p).associative
    cls = classify(p)
    assert cls == ShiftedProduct(9, Frac(Ring.Z, 1, 3))
    assert cls.a == 9
    assert cls.b == Frac(Ring.Z, 1, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, "cubic worked example is shifted-product with a=9, b=1/3", elapsed)


def test_criterion_2_twisted_sums_round_trip():
    start = time.perf_counter()
    cls_z = classify(parse_poly("x1 - x2 + x3", 3, Ring.Z))
    assert cls_z == TwistedSum(-1)
    assert classify(reconstruct(cls_z, 3, Ring.Z)) == cls_z
    elapsed_z = time.perf_counter() - start
    assert elapsed_z < 1.0

    start = time.perf_counter()
    cls_zi = classify(parse_poly("x1 + i*x2 - x3 - i*x4 + x5", 5, Ring.ZI))
    assert cls_zi == TwistedSum(GaussianInt(0, 1))
    assert GaussianInt(0, 1) ** 4 == 1
    assert classify(reconstruct(cls_zi, 5, Ring.ZI)) == cls_zi
    elapsed_zi = time.perf_counter() - start
    assert elapsed_zi < 1.0
    _pass(2, "twisted sums over Z (omega=-1) and Z[i] (omega=i) round-trip",
          elapsed_z + elapsed_zi)


def test_criterion_3_dual_path_composition():
    start = time.perf_counter()
    mismatches = 0
    for table in product((-1, 0, 1), repeat=4):
        ml = MultilinearPoly(Ring.Z, 2, dict(enumerate(table)))
        for slot in (1, 2):
            if compose_closed_form(ml, slot) != compose_substitution(ml, slot):
                mismatches += 1
    rng = XorShift64Star(20177)
    for n in (3, 4):
        for _ in range(1000):
            ml = MultilinearPoly(
                Ring.Z, n, {m: rng.randint(-4, 4) for m in range(1 << n)}
            )
            for slot in range(1, n + 1):
                if compose_closed_form(ml, slot) != compose_substitution(ml, slot):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 30.0
    _pass(3, "closed-form and substitution compositions agree "
             "(81 exhaustive binary tables, 1000 random each at n=3,4)", elapsed)


def _family_memberships(ml, ring):
    """Independent matchers for the six families, straight from their formulas."""
    n = ml.n
    matches = []
    if all(ml.coeff(m) == ring.zero for m in range(1, 1 << n)):
        matches.append("constant")
    if ml.coeffs == {1: ring.one}:
        matches.append("left-projection")
    if ml.coeffs == {1 << (n - 1): ring.one}:
        matches.append("right-projection")
    singles = [ml.coeff(1 << k) for k in range(n)]
    larger_zero = all(
        ml.coeff(m) == ring.zero for m in range(1 << n) if m.bit_count() >= 2
    )
    if larger_zero and all(c == ring.one for c in singles):
        matches.append("translated-sum")
    if n >= 3 and larger_zero and ml.coeff(0) == ring.zero:
        for omega in ring.roots_of_unity(n - 1):
            if omega == ring.one:
                continue
            if singles == [omega**k for k in range(n)]:
                matches.append("twisted-sum")
                break
    a = ml.coeff((1 << n) - 1)
    if a != ring.zero:
        b = Frac(ring, ml.coeff((1 << n) - 2), a)
        try:
            if reconstruct(ShiftedProduct(a, b), n, ring) == ml:
                matches.append("shifted-product")
        except ValueError:
            pass
    return matches


def test_criterion_4_census_validates_classification():
    start = time.perf_counter()
    binary = enumerate_associative(2, Ring.Z, 2)
    assert binary.total == 625 and binary.checked == 625
    ternary = enumerate_associative(3, Ring.Z, 1)
    assert ternary.total == 6561 and ternary.checked == 6561
    # every table of both boxes: the decision agrees with the grid oracle
    for n, bound in ((2, 2), (3, 1)):
        for coeffs in product(range(-bound, bound + 1), repeat=1 << n):
            table = MultilinearPoly(Ring.Z, n, dict(enumerate(coeffs)))
            decided = is_associative(table).associative
            assert assoc_pointwise(table, OracleConfig(mode="grid")) == decided
    unclassified = double_classified = 0
    for result in (binary, ternary):
        for ml, cls in result.survivors:
            assert cls.type_tag != "not-associative"
            memberships = _family_memberships(ml, Ring.Z)
            if len(memberships) == 0:
                unclassified += 1
            elif len(memberships) > 1:
                double_classified += 1
            assert memberships == [cls.type_tag]
    elapsed = time.perf_counter() - start
    assert unclassified == 0 and double_classified == 0
    assert elapsed < 60.0
    _pass(4, "census (625 binary + 6561 ternary tables): symbolic verdicts match the "
             "grid oracle; every associative table lands in exactly one family", elapsed)


def test_criterion_5_condpol_equivalence():
    start = time.perf_counter()
    discrepancies = 0
    for coeffs in product(range(-2, 3), repeat=4):
        ml = from_size_coeffs(Ring.Z, 3, list(coeffs))
        if verify_condpol(list(coeffs)) != is_associative(ml).associative:
            discrepancies += 1
    elapsed = time.perf_counter() - start
    assert discrepancies == 0
    assert elapsed < 10.0
    _pass(5, "coefficient-compatibility equations match associativity on all "
             "625 symmetric ternary tables", elapsed)


def test_criterion_6_structure_suite():
    start = time.perf_counter()
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for n in range(2, 7):
            groups = [TranslatedSum(ring.coerce(c)) for c in range(-3, 4)]
            if n >= 3:
                groups += [TwistedSum(w) for w in ring.roots_of_unity(n - 1) if w != ring.one]
            for cls in groups:
                p = reconstruct(cls, n, ring)
                _, skew, _ = cls.group(ring, n)
                assert verify_skew(p, skew)
                assert skew_is_endomorphism(p, skew)

    medial_checked = 0
    for n in (2, 3):
        families = []
        for c in range(-2, 3):
            families.append(reconstruct(Constant(c), n, Ring.Z))
            families.append(reconstruct(TranslatedSum(c), n, Ring.Z))
        families.append(reconstruct(LeftProjection(), n, Ring.Z))
        families.append(reconstruct(RightProjection(), n, Ring.Z))
        if n == 3:
            families.append(reconstruct(TwistedSum(-1), 3, Ring.Z))
        for a in (-2, -1, 1, 2, 9):
            for b in (Frac(Ring.Z, 0), Frac(Ring.Z, 1), Frac(Ring.Z, -1), Frac(Ring.Z, 1, 3)):
                try:
                    families.append(reconstruct(ShiftedProduct(a, b), n, Ring.Z))
                except ValueError:
                    continue
        for p in families:
            ok, method = is_medial(p)
            assert ok and method == "symbolic"
            medial_checked += 1
    elapsed = time.perf_counter() - start
    assert medial_checked >= 30
    assert elapsed < 30.0
    _pass(6, "skew and endomorphism identities hold on the parameter grids; "
             f"mediality symbolic for {medial_checked} reconstructed operations", elapsed)


def test_criterion_7_reducibility():
    status, reduction, _ = TranslatedSum(4).reduction(Ring.Z, 3)
    assert status == "yes" and reduction.params["c0"] == "2"
    assert iterate_binary(reduction.binary_op, 3) == reconstruct(TranslatedSum(4), 3, Ring.Z)

    status, reduction, _ = TranslatedSum(1).reduction(Ring.Z, 3)
    assert status == "no" and reduction is None

    for omega, ring, n in ((-1, Ring.Z, 3), (GaussianInt(0, 1), Ring.ZI, 5)):
        status, _, _ = TwistedSum(ring.coerce(omega)).reduction(ring, n)
        assert status == "no"

    from fractions import Fraction

    status, reduction, _ = ShiftedProduct(Fraction(4), Frac(Ring.Q, 0)).reduction(Ring.Q, 3)
    assert status == "yes"
    assert reduction.params == {"a0": "2", "roots": "2, -2"}
    assert iterate_binary(reduction.binary_op, 3) == reconstruct(
        ShiftedProduct(Fraction(4), Frac(Ring.Q, 0)), 3, Ring.Q
    )
    _pass(7, "reducibility verdicts exact: c=4 splits with c0=2, c=1 does not, "
             "twisted sums never reduce, a=4 has roots +-2 over Q")


def test_criterion_8_negative_path_witness():
    p = parse_poly("2*x1*x2 + x1", 2, Ring.Z)
    verdict = is_associative(p)
    assert not verdict.associative
    w = verdict.witness
    assert w.slot == 2
    assert w.subset == (1, 3)
    assert (w.lhs, w.rhs) == (2, 0)
    point = (1, 0, 1)
    assert associated_value(p, 1, point) == 3
    assert associated_value(p, 2, point) == 1
    assert not assoc_pointwise(p, OracleConfig(mode="grid"))
    _pass(8, "negative fixture: witness slot 2, S={1,3}; oracle values 3 != 1 at (1,0,1)")
