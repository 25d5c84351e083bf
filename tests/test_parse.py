import sys
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyassoc import (
    BudgetError,
    GaussianInt,
    ParseError,
    Ring,
    SparsePoly,
    XorShift64Star,
    parse_poly,
)
from polyassoc import parse

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"


def test_parse_cubic_example():
    p = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    expected = SparsePoly(
        Ring.Z,
        3,
        {
            (1, 1, 1): 9,
            (1, 1, 0): 3,
            (0, 1, 1): 3,
            (1, 0, 1): 3,
            (1, 0, 0): 1,
            (0, 1, 0): 1,
            (0, 0, 1): 1,
        },
    )
    assert p == expected


def test_parse_alternating_sum():
    p = parse_poly("x1 - x2 + x3", 3, Ring.Z)
    assert p == SparsePoly(Ring.Z, 3, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 1})


def test_imaginary_unit_requires_gaussian_ring():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + i*x2", 2, Ring.Z)
    assert err.value.position == 5
    assert "position 6" in str(err.value)
    p = parse_poly("x1 + i*x2", 2, Ring.ZI)
    assert p.terms[(0, 1)] == GaussianInt(0, 1)


def test_division_requires_rationals():
    with pytest.raises(ParseError):
        parse_poly("x1/2", 2, Ring.Z)
    with pytest.raises(ParseError):
        parse_poly("x1/2", 2, Ring.ZI)
    p = parse_poly("x1/2 + 1/3", 2, Ring.Q)
    assert p.terms[(1, 0)] == Fraction(1, 2)
    assert p.terms[(0, 0)] == Fraction(1, 3)


def test_division_demands_literal_denominator():
    with pytest.raises(ParseError):
        parse_poly("2/x1", 2, Ring.Q)
    with pytest.raises(ParseError):
        parse_poly("1/(3)", 2, Ring.Q)
    with pytest.raises(ParseError):
        parse_poly("1/0", 2, Ring.Q)


def test_dangling_operator_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 +", 3, Ring.Z)
    assert err.value.position == 4
    assert "position 5" in str(err.value)


def test_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + x3", 2, Ring.Z)
    assert err.value.position == 5


def test_exponents():
    assert parse_poly("x1^2", 1, Ring.Z) == SparsePoly(Ring.Z, 1, {(2,): 1})
    assert parse_poly("x1**2", 1, Ring.Z) == parse_poly("x1^2", 1, Ring.Z)
    assert parse_poly("2^3", 1, Ring.Z) == SparsePoly.constant(Ring.Z, 1, 8)
    # right-associative literal towers
    assert parse_poly("x1^2^3", 1, Ring.Z) == SparsePoly(Ring.Z, 1, {(8,): 1})
    with pytest.raises(ParseError):
        parse_poly("x1^-1", 1, Ring.Z)
    with pytest.raises(ParseError):
        parse_poly("x1^x1", 1, Ring.Z)
    with pytest.raises(ParseError):
        parse_poly("x1^65", 1, Ring.Z)
    assert parse_poly("x1^64", 1, Ring.Z).degree() == 64


def test_unary_minus_and_precedence():
    assert parse_poly("-x1^2", 1, Ring.Z) == SparsePoly(Ring.Z, 1, {(2,): -1})
    assert parse_poly("-2*x1", 1, Ring.Z) == SparsePoly(Ring.Z, 1, {(1,): -2})
    assert parse_poly("--x1", 1, Ring.Z) == SparsePoly(Ring.Z, 1, {(1,): 1})
    assert parse_poly("x1 - -x1", 1, Ring.Z) == SparsePoly(Ring.Z, 1, {(1,): 2})
    assert parse_poly("1 + 2*3", 1, Ring.Z) == SparsePoly.constant(Ring.Z, 1, 7)
    assert parse_poly("(1 + 2)*3", 1, Ring.Z) == SparsePoly.constant(Ring.Z, 1, 9)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("9 x1", 1, Ring.Z)
    with pytest.raises(ParseError):
        parse_poly("x1 x2", 2, Ring.Z)
    with pytest.raises(ParseError):
        parse_poly("2(x1)", 1, Ring.Z)


def test_malformed_inputs():
    for bad in ["", "()", "(x1", "x1)", "x", "x1 *", "* x1", "$", "3..", "x1 + @"]:
        with pytest.raises(ParseError):
            parse_poly(bad, 2, Ring.Z)


def test_digit_runs_up_to_the_int_conversion_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_poly("9" * limit + "*x1", 2, Ring.Z) == SparsePoly(
        Ring.Z, 2, {(1, 0): int("9" * limit)}
    )
    with pytest.raises(ParseError) as err:
        parse_poly("9" * (limit + 1) + "*x1", 2, Ring.Z)
    assert err.value.position == 0


def test_non_decimal_digits_are_not_numbers():
    for source, position in [("x\u00b2", 0), ("x1 + \u00b2", 5), ("x1^\u00b3", 3)]:
        with pytest.raises(ParseError) as err:
            parse_poly(source, 2, Ring.Z)
        assert err.value.position == position


@pytest.mark.parametrize(
    "source, nvars, rendered",
    [
        ("\u0663*x1", 2, "3*x1"),  # ARABIC-INDIC DIGIT THREE is a decimal digit
        ("x\u0663", 3, "x3"),
        (" x1\u3000+\xa0x2", 2, "x1 + x2"),  # ideographic and no-break spaces
        ("x1\x1c+x2", 2, "x1 + x2"),  # FILE SEPARATOR is whitespace to str.isspace
        ("x1**2", 2, "x1^2"),
    ],
)
def test_unicode_digits_whitespace_and_double_star_are_accepted(source, nvars, rendered):
    assert parse_poly(source, nvars, Ring.Z).render() == rendered


def test_whitespace_insensitive():
    a = parse_poly("x1+x2 * x1", 2, Ring.Z)
    b = parse_poly("  x1 +x2*x1  ", 2, Ring.Z)
    assert a == b


def random_sparse(rng, ring, nvars):
    table = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        table[exps] = rng.element(ring, 9)
    return SparsePoly(ring, nvars, table)


def test_render_parse_round_trip():
    rng = XorShift64Star(61)
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for nvars in (1, 2, 3, 4):
            for _ in range(60):
                p = random_sparse(rng, ring, nvars)
                assert parse_poly(p.render(), nvars, ring) == p


def test_rational_round_trip_with_denominators():
    p = SparsePoly(Ring.Q, 2, {(1, 1): Fraction(-3, 7), (0, 0): Fraction(5, 2)})
    assert parse_poly(p.render(), 2, Ring.Q) == p


def test_parse_total_on_fuzz():
    rng = XorShift64Star(67)
    alphabet = "x12i+-*/^() "
    for _ in range(400):
        length = rng.randint(0, 12)
        source = "".join(alphabet[rng.randint(0, len(alphabet) - 1)] for _ in range(length))
        try:
            parse_poly(source, 2, Ring.Q)
        except ParseError as err:
            assert 0 <= err.position <= len(source)


@settings(max_examples=400, deadline=None, database=None)
@given(
    st.text("x0123i+-*/^() \t\u3000\xa0\u0663\u00b2$", max_size=12),
    st.sampled_from((Ring.Z, Ring.Q, Ring.ZI)),
)
def test_parse_fuzz_round_trips_or_points_into_the_source(source, ring):
    try:
        p = parse_poly(source, 3, ring)
    except ParseError as err:
        assert 0 <= err.position <= len(source)  # len(source) is the end of input
    else:
        assert parse_poly(p.render(), 3, ring) == p


def test_deep_input_is_parsed_in_loops():
    x1 = SparsePoly.variable(Ring.Z, 2, 1)
    assert parse_poly("-" * 3000 + "x1", 2, Ring.Z) == x1
    assert parse_poly("-" * 3001 + "x1^2", 2, Ring.Z) == -(x1**2)
    assert parse_poly("x1" + "^1" * 1500, 2, Ring.Z) == x1
    assert parse_poly("x1" + "^1" * 1500 + "^2", 2, Ring.Z) == x1
    # a literal past the cap raised to 0 is 1, not an error
    assert parse_poly("x1^65^0", 2, Ring.Z) == x1
    assert parse_poly("x1^100^0", 2, Ring.Z) == x1
    assert parse_poly("(" * 200 + "x1" + ")" * 200, 2, Ring.Z) == x1
    assert parse_poly("-(" * 200 + "x1" + ")" * 200, 2, Ring.Z) == x1


def test_nesting_past_the_old_limit_parses():
    x1 = SparsePoly.variable(Ring.Z, 2, 1)
    for depth in (201, 250, 5000):
        assert parse_poly("(" * depth + "x1" + ")" * depth, 2, Ring.Z) == x1


def test_nesting_costs_no_python_stack():
    x1 = SparsePoly.variable(Ring.Z, 2, 1)
    assert parse_poly("(" * 100_000 + "x1" + ")" * 100_000, 2, Ring.Z) == x1
    assert parse_poly("-(" * 100_001 + "x1" + ")" * 100_001, 2, Ring.Z) == -x1
    unclosed = "(" * 100_000 + "x1"
    with pytest.raises(ParseError) as err:
        parse_poly(unclosed, 2, Ring.Z)
    assert (err.value.message, err.value.position) == ("expected ')'", len(unclosed))


def test_nesting_parses_from_a_deep_caller():
    def from_depth(frames: int) -> SparsePoly:
        if frames:
            return from_depth(frames - 1)
        return parse_poly("(" * 200 + "x1" + ")" * 200, 2, Ring.Z)

    # 250 frames leave too little of the default recursion limit for a
    # parser that recursed four frames per '('
    assert from_depth(250) == SparsePoly.variable(Ring.Z, 2, 1)


def test_exponent_cap_messages():
    for source, shown, position in [
        ("x1^65", "65", 3),
        ("x1^00065", "65", 3),
        ("x1^2^7", "128", 3),
        ("x1^0^100", "100", 5),
        ("x1^3^4", "81", 3),
        ("x1^99^64", str(99**64), 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse_poly(source, 2, Ring.Z)
        assert str(err.value) == f"exponent {shown} exceeds the cap 64 at position {position + 1}"


def test_exponent_cap_message_shows_an_unprintable_power_as_written():
    nines = "9" * 100
    with pytest.raises(ParseError) as err:
        parse_poly(f"x1^{nines}^64", 2, Ring.Z)
    assert str(err.value) == f"exponent {nines}^64 exceeds the cap 64 at position 4"
    # the power is printed while str() can convert it under the live limit
    source, power = "x1^" + "9" * 20 + "^64", (10**20 - 1) ** 64  # 1,280 digits
    limit = sys.get_int_max_str_digits()
    try:
        for lowered, shown in ((0, str(power)), (4300, str(power)), (640, "9" * 20 + "^64")):
            sys.set_int_max_str_digits(lowered)
            with pytest.raises(ParseError) as err:
                parse_poly(source, 2, Ring.Z)
            assert err.value.message == f"exponent {shown} exceeds the cap 64"
    finally:
        sys.set_int_max_str_digits(limit)


def test_term_cap_bounds_each_product_and_power_before_it_is_built():
    six = "(x1+x2+x3+x4+x5+x6)"
    # C(19, 14) = 11,628 terms, under TERM_CAP
    assert len(parse_poly(f"{six}^14", 6, Ring.Z).terms) == 11_628
    with pytest.raises(BudgetError) as err:
        parse_poly(f"{six}^16", 6, Ring.Z)  # C(21, 16) = 20,349
    assert err.value.required == 20_349
    # t1*t2 = 792^2 passes the cap, but the product has only the
    # C(20, 6) - C(19, 6) = 11,628 monomials of degree 14 in 6 variables
    assert parse_poly(f"{six}^7*{six}^7", 6, Ring.Z) == parse_poly(f"{six}^14", 6, Ring.Z)
    with pytest.raises(BudgetError) as err:
        parse_poly(f"{six}^8*{six}^8", 6, Ring.Z)  # C(22, 6) - C(21, 6)
    assert err.value.required == 20_349
    # C(30, 10) = 30,045,015 multisets of ten of U's 21 terms, but U^10 has
    # only the 201 monomials x1^0..x1^200
    u = "(" + "+".join(["1", "x1"] + [f"x1^{e}" for e in range(2, 21)]) + ")"
    assert len(parse_poly(f"{u}^10", 2, Ring.Z).terms) == 201
    assert parse_poly(f"{u}^5*{u}^5", 2, Ring.Z) == parse_poly(f"{u}^10", 2, Ring.Z)


@st.composite
def products_of_sums(draw):
    """Two polynomials over Z, Q or Z[i] in 1..4 variables, each a product of
    one to three random sums of up to four terms with exponents 0..3, in
    its own subset of the variables."""
    ring = draw(st.sampled_from((Ring.Z, Ring.Q, Ring.ZI)))
    nvars = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    values = {
        Ring.Z: small,
        Ring.Q: st.builds(Fraction, small, st.integers(1, 4)),
        Ring.ZI: st.builds(GaussianInt, small, small),
    }[ring]
    factors = []
    for _ in range(2):
        used = draw(st.sets(st.integers(0, nvars - 1)))
        exps = st.tuples(*[st.integers(0, 3 if j in used else 0) for j in range(nvars)])
        p = SparsePoly.constant(ring, nvars, 1)
        for _ in range(draw(st.integers(1, 3))):
            p = p * SparsePoly(ring, nvars, draw(st.dictionaries(exps, values, max_size=4)))
        factors.append(p)
    return factors


@settings(max_examples=300, deadline=None, database=None)
@given(products_of_sums())
def test_product_bound_is_never_below_the_built_product(factors):
    f, g = factors
    # a cap of 1 applies the monomial count to every product but one of two
    # constants, whose v = 0 variables a real cap never reaches
    with patch.object(parse, "TERM_CAP", 1):
        assert parse._product_bound(f, g) >= len((f * g).terms)


@settings(max_examples=300, deadline=None, database=None)
@given(products_of_sums(), st.integers(0, 4))
def test_power_bound_is_never_below_the_built_power(factors, k):
    base = factors[0]
    # a cap of 1 applies the monomial count to every power of two or more terms
    with patch.object(parse, "TERM_CAP", 1):
        assert parse._power_bound(base, k) >= len((base**k).terms)
