import ast
import importlib
import pickle
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
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
    assoc_pointwise,
    classify,
    compose_closed_form,
    from_size_coeffs,
    is_associative,
    parse_poly,
    reconstruct,
    verify_condpol,
)
from polyassoc.assoc import AssocVerdict, CompositionWitness
from polyassoc.classify import InternalInvariantError, LinearFamily, Reduction, classify_associative
from polyassoc.census import CensusRow, EnumerationResult
from polyassoc.structure import StructureReport

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


# Parsed text, not reconstruct output, so recognition is checked against
# tables written out here rather than against the family definitions.
LINEAR_FIXTURES = [
    (Ring.Z, 4, "-3", Constant(-3)),
    (Ring.Z, 2, "0", Constant(0)),
    (Ring.Q, 3, "2/3", Constant(Fraction(2, 3))),
    (Ring.ZI, 3, "1 - 2*i", Constant(GaussianInt(1, -2))),
    (Ring.Z, 4, "x1", LeftProjection()),
    (Ring.Q, 2, "x1", LeftProjection()),
    (Ring.ZI, 3, "x1", LeftProjection()),
    (Ring.Z, 2, "x2", RightProjection()),
    (Ring.Q, 4, "x4", RightProjection()),
    (Ring.ZI, 3, "x3", RightProjection()),
    (Ring.Z, 3, "x1 + x2 + x3 - 5", TranslatedSum(-5)),
    (Ring.Q, 2, "x1 + x2 + 1/2", TranslatedSum(Fraction(1, 2))),
    (Ring.ZI, 2, "x1 + x2 + i", TranslatedSum(GaussianInt(0, 1))),
    (Ring.Z, 5, "x1 - x2 + x3 - x4 + x5", TwistedSum(-1)),
    (Ring.Q, 3, "x1 - x2 + x3", TwistedSum(Fraction(-1))),
    (Ring.ZI, 3, "x1 - x2 + x3", TwistedSum(GaussianInt(-1))),
    (Ring.ZI, 5, "x1 - i*x2 - x3 + i*x4 + x5", TwistedSum(GaussianInt(0, -1))),
]


@pytest.mark.parametrize("ring, n, text, expected", LINEAR_FIXTURES)
def test_classify_linear_families_from_text(ring, n, text, expected):
    assert classify(parse_poly(text, n, ring)) == expected


@pytest.mark.parametrize(
    "ring, n, text",
    [
        (Ring.Z, 2, "x1 - x2"),  # twisted sums need n >= 3
        (Ring.ZI, 2, "x1 + i*x2"),
        (Ring.Z, 4, "x1 - x2 + x3 - x4"),  # (-1)^3 != 1
        (Ring.Q, 4, "x1 - x2 + x3 - x4"),
        (Ring.ZI, 3, "x1 + i*x2 - x3"),  # i^2 != 1
    ],
)
def test_twisted_tables_outside_the_family_are_rejected(ring, n, text):
    p = parse_poly(text, n, ring)
    assert isinstance(classify(p), NotAssociative)
    # no family's table matches, so classifying it as associative is an error
    with pytest.raises(InternalInvariantError):
        classify_associative(p.to_multilinear())


def test_classify_not_associative():
    cls = classify(parse_poly("2*x1*x2 + x1", 2, Ring.Z))
    assert isinstance(cls, NotAssociative)
    assert cls.witness.subset == (1, 3)


def test_classify_rejects_small_arity():
    with pytest.raises(ValueError):
        classify(SparsePoly(Ring.Z, 1, {(1,): 1}))


def test_classify_associative_rejects_small_arity():
    for coeffs in ({1: 1}, {0: 5}, {}):
        with pytest.raises(ValueError, match="arity must be at least 2"):
            classify_associative(MultilinearPoly(Ring.Z, 1, coeffs))


def test_extract_type6_cubic_ladder():
    # type 6 is the shifted-product family, read off the table by classify_associative
    cubic = from_size_coeffs(Ring.Z, 3, [0, 1, 3, 9])
    assert classify_associative(cubic) == ShiftedProduct(9, Frac(Ring.Z, 1, 3))
    # the ladder behind the example: a*b^2 = 1 and a*b^3 - b = 0
    assert ShiftedProduct(9, Frac(Ring.Z, 1, 3)).ladder(Ring.Z, 3) == [0, 1, 3, 9]


def test_extract_type6_plain_product():
    product_table = from_size_coeffs(Ring.Z, 2, [0, 0, 1])
    assert classify_associative(product_table) == ShiftedProduct(1, Frac(Ring.Z, 0))


@pytest.mark.parametrize(
    "table",
    [
        from_size_coeffs(Ring.Z, 3, [0, 1, 0, 1]),  # b = 0 forces c_1 = 0
        MultilinearPoly(Ring.Z, 2, {0b11: 1, 0b01: 1}),  # not symmetric
        from_size_coeffs(Ring.Z, 3, [0, 0, 1, 0]),  # degree 2 with a zero top
        from_size_coeffs(Ring.Z, 2, [1, 0, 1]),  # c_0 != a*b^n - b
    ],
    ids=["ladder", "not-symmetric", "zero-top", "constant-term"],
)
def test_tables_no_family_rebuilds_are_internal_errors(table):
    assert not is_associative(table).associative
    with pytest.raises(InternalInvariantError):
        classify_associative(table)


def _box_tables(ring, n, bound):
    side = range(-bound, bound + 1)
    values = [GaussianInt(re, im) for re in side for im in side] if ring is Ring.ZI else side
    for coeffs in product(values, repeat=1 << n):
        yield MultilinearPoly(ring, n, dict(enumerate(coeffs)))


def _composition_witness(forms):
    """(slot, mask, lhs, rhs) at the first mask, slots in order, where a
    closed-form composition differs from slot 1's; None when all agree."""
    base, zero = forms[0].coeffs, forms[0].ring.zero
    for slot, form in enumerate(forms[1:], 2):
        other = form.coeffs
        differing = [m for m in base.keys() | other.keys() if base.get(m) != other.get(m)]
        if differing:
            mask = min(differing)
            return slot, mask, base.get(mask, zero), other.get(mask, zero)
    return None


def test_recognition_agrees_with_the_decision_on_whole_boxes():
    # the decision here is composition equality at every slot, not is_associative,
    # which classify() itself calls when no family matches
    checked = 0
    for ring, n, bound in ((Ring.Z, 2, 2), (Ring.Z, 3, 1), (Ring.ZI, 2, 1)):
        for table in _box_tables(ring, n, bound):
            checked += 1
            want = _composition_witness([compose_closed_form(table, s) for s in range(1, n + 1)])
            if ring is Ring.Z:  # the Z[i] box is checked against the grid in test_oracle
                assert assoc_pointwise(table, OracleConfig(mode="grid")) == (want is None)
            cls = classify(table)
            if want is not None:
                assert isinstance(cls, NotAssociative)
                w = cls.witness
                mask = sum(e << j for j, e in enumerate(w.monomial))
                assert (w.slot, mask, w.lhs, w.rhs) == want
                with pytest.raises(InternalInvariantError):
                    classify_associative(table)
                continue
            assert cls == classify_associative(table)
            assert reconstruct(cls, n, ring) == table
    assert checked == 13_747


def test_verify_condpol_fixtures():
    assert verify_condpol([0, 1, 3, 9])
    assert not verify_condpol([1, 0, 1])  # j=1, k=0 gives 1 != 0
    assert verify_condpol([0, 0, 0, 0])


def test_condpol_matches_associativity_on_symmetric_tables():
    for coeffs in product(range(-2, 3), repeat=4):
        ml = from_size_coeffs(Ring.Z, 3, list(coeffs))
        assert verify_condpol(list(coeffs)) == is_associative(ml).associative


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
    for not_a_classification in ("x1", None):
        with pytest.raises(TypeError):
            reconstruct(not_a_classification, 3, Ring.Z)


@dataclass(frozen=True)
class _GaussianRational:
    """re + im*i with Fraction parts: a reference fraction field of Z[i]."""

    re: Fraction
    im: Fraction

    def __mul__(self, other):
        return _GaussianRational(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __sub__(self, other):
        return _GaussianRational(self.re - other.re, self.im - other.im)

    def __truediv__(self, other):
        norm = other.re**2 + other.im**2
        return self * _GaussianRational(other.re / norm, -other.im / norm)

    def __pow__(self, k):
        out = _GaussianRational(Fraction(1), Fraction(0))
        for _ in range(k):
            out = out * self
        return out


def _reference(ring, x):
    """A ring element in the test's own fraction field."""
    if ring is Ring.ZI:
        return _GaussianRational(Fraction(x.re), Fraction(x.im))
    return Fraction(x)


def _back_in_ring(ring, value):
    """The ring element equal to a reference value, or None outside the ring."""
    if ring is Ring.ZI:
        parts = (value.re, value.im)
        if any(part.denominator != 1 for part in parts):
            return None
        return GaussianInt(*(part.numerator for part in parts))
    if ring is Ring.Q:
        return value
    return value.numerator if value.denominator == 1 else None


LADDER_ELEMENTS = {
    Ring.Z: st.integers(-6, 6),
    Ring.Q: st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    Ring.ZI: st.builds(GaussianInt, st.integers(-3, 3), st.integers(-3, 3)),
}


@st.composite
def shifted_product_params(draw):
    """(ring, n, a, num, den) with a != 0, n = 2..7 and den = 1 in half the
    draws (always over Q), any nonzero den in the others.  Half the draws are
    family members whatever den is (num = 1 + den*s, a = den^(n-1)*(1 + den*t));
    the others scale a by a random power of den, so some sizes stay in R."""
    ring = draw(st.sampled_from([Ring.Z, Ring.Q, Ring.ZI]))
    n = draw(st.integers(2, 7))
    elements = LADDER_ELEMENTS[ring]
    den = ring.one if ring is Ring.Q or draw(st.booleans()) else draw(elements.filter(bool))
    if draw(st.booleans()):
        num = 1 + den * draw(elements)
        a = den ** (n - 1) * (1 + den * draw(elements))
    else:
        num = draw(elements)
        a = draw(elements.filter(bool)) * den ** draw(st.integers(0, n))
    assume(a != 0)
    return ring, n, a, num, den


@settings(max_examples=600, deadline=None, database=None)
@given(shifted_product_params())
def test_ladder_matches_a_fraction_field_reference(params):
    # c_k = a*b^(n-k) for k >= 1 and c_0 = a*b^n - b in the test's own fraction
    # field (Fractions, or pairs of them over Z[i]); each in the ring, or the
    # ValueError naming the first size that leaves it
    ring, n, a, num, den = params
    ref_a, ref_b = _reference(ring, a), _reference(ring, num) / _reference(ring, den)
    reference = [ref_a * ref_b**n - ref_b] + [ref_a * ref_b ** (n - k) for k in range(1, n + 1)]
    expected = [_back_in_ring(ring, value) for value in reference]
    b = Frac(ring, num, den)
    cls = ShiftedProduct(a, b)
    if None in expected:
        with pytest.raises(ValueError) as raised:
            cls.ladder(ring, n)
        message = f"parameters a={ring.element_str(a)}, b={b} leave the ring at subset size"
        assert str(raised.value) == f"{message} {expected.index(None)}"
        return
    ladder = cls.ladder(ring, n)
    assert ladder == expected
    assert all(type(c) is type(ring.one) for c in ladder)


def _membership_ok(n, a, b):
    """a*b^k in Z for k < n and a*b^n - b in Z, computed in Fraction."""
    b = Fraction(b.num, b.den)
    return all((a * b**k).denominator == 1 for k in range(n)) and (
        (a * b**n - b).denominator == 1
    )


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
                if not _membership_ok(n, a, b):
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


def test_only_classify_dispatches_on_a_family():
    # each family answers its own questions; NotAssociative is not a family
    classify_module = importlib.import_module("polyassoc.classify")
    families = {
        name for name, obj in vars(classify_module).items()
        if isinstance(obj, type) and issubclass(obj, (LinearFamily, ShiftedProduct))
    }
    assert {"Constant", "LinearFamily", "ShiftedProduct", "TwistedSum"} <= families
    offenders = []
    for path in Path(classify_module.__file__).parent.glob("*.py"):
        if path.name == "classify.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                if named & families:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_value_objects_compare_hash_and_pickle_by_fields():
    b = Frac(Ring.Z, 1, 3)
    witness = CompositionWitness(2, (1, 0, 1), 3, -1)
    builds = [
        lambda: ShiftedProduct(9, Frac(Ring.Z, 1, 3)),
        lambda: TwistedSum(GaussianInt(0, 1)),
        lambda: Constant(Fraction(2, 3)),
        LeftProjection,
        lambda: SkewMap(-1, 2),
        lambda: CompositionWitness(2, (1, 0, 1), 3, -1),
        lambda: AssocVerdict(False, CompositionWitness(2, (1, 0, 1), 3, -1)),
        lambda: AssocVerdict(True),
        lambda: NotAssociative(witness),
        lambda: CensusRow("constant", "c=0", 1),
        lambda: OracleConfig("random", 5),
    ]
    for build in builds:
        value, copy = build(), build()
        assert value is not copy and value == copy and hash(value) == hash(copy)
        assert not value != copy
        assert pickle.loads(pickle.dumps(value)) == value
    # equal fields in different classes differ; a different field differs
    assert Constant(3) != TranslatedSum(3) and LeftProjection() != RightProjection()
    assert ShiftedProduct(9, b) != ShiftedProduct(3, b)
    assert AssocVerdict(True) != AssocVerdict(False)
    back = pickle.loads(pickle.dumps(ShiftedProduct(9, b)))
    assert type(back.b) is Frac and back.b.ring is Ring.Z and back == ShiftedProduct(9, b)
    assert repr(ShiftedProduct(9, 2)) == "ShiftedProduct(a=9, b=2)"
    assert repr(witness) == "CompositionWitness(slot=2, monomial=(1, 0, 1), lhs=3, rhs=-1)"
    assert repr(LeftProjection()) == "LeftProjection()"
    for value, name in [(witness, "lhs"), (Constant(3), "value"), (SkewMap(1, 0), "alpha")]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 0


def test_value_object_constructors_take_keywords():
    assert OracleConfig(mode="random", seed=3) == OracleConfig("random", 3)
    assert OracleConfig().mode == "grid"
    report = StructureReport(
        group="no", skew=None, skew_verified=None, skew_endomorphism=None, medial=True,
        medial_method="symbolic", reducible="out-of-scope", reduction=None,
    )
    assert report.notes == () and report.medial_method == "symbolic"
    result = EnumerationResult(
        ring=Ring.Z, n=2, bound=0, total=1, checked=1, bulk_rejected=0,
        survivors=[], census=[],
    )
    assert result.total == 1 and result.census == []
    with pytest.raises(TypeError):
        hash(result)
    op = SparsePoly.variable(Ring.Z, 2, 1)
    first, second = Reduction(op), Reduction(op)
    assert first.params == {} and first.params is not second.params
