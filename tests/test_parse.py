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
from polyassoc import parse, poly

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


S6 = "(x1+x2+x3+x4+x5+x6)"
# 21 terms; its powers merge to few monomials, U^10 to the 201 of x1^0..x1^200
U = "(" + "+".join(["1", "x1"] + [f"x1^{e}" for e in range(2, 21)]) + ")"


def test_pair_budget_charges_each_product_before_it_is_built():
    # S6^k is k-1 products by S6, the j-th multiplying C(j+5, 5) * 6 pairs:
    # S6^15 takes 6 * (C(20, 6) - 1) = 232,554, under PAIR_BUDGET
    assert len(parse_poly(f"{S6}^14", 6, Ring.Z).coeffs) == 11_628
    assert len(parse_poly(f"{S6}^15", 6, Ring.Z).coeffs) == 15_504
    for source, required in (
        (f"{S6}^16", 6 * (54_264 - 1)),  # C(21, 6) = 54,264
        # each S6^8 takes 6 * (C(13, 6) - 1) = 10,290 pairs, their product 1,287^2
        (f"{S6}^8*{S6}^8", 2 * 10_290 + 1_287**2),
        # each S6^7 takes 6 * (C(12, 6) - 1) = 5,538 pairs, their product 792^2,
        # though it merges to the 11,628 terms of S6^14
        (f"{S6}^7*{S6}^7", 2 * 5_538 + 792**2),
    ):
        with pytest.raises(BudgetError) as err:
            parse_poly(source, 6, Ring.Z)
        assert err.value.required == required > parse.PAIR_BUDGET
    # U^10 takes 21 * (21 + 41 + ... + 181) = 19,089 pairs
    assert len(parse_poly(f"{U}^10", 2, Ring.Z).coeffs) == 201
    assert parse_poly(f"{U}^5*{U}^5", 2, Ring.Z) == parse_poly(f"{U}^10", 2, Ring.Z)


def test_parse_reads_only_the_packed_table():
    def refuse(*args):
        raise AssertionError("parse read more than SparsePoly.coeffs")

    with patch.object(SparsePoly, "terms", property(refuse)), \
            patch.object(SparsePoly, "degree", refuse):
        assert len(parse_poly(f"{U}^10", 2, Ring.Z).coeffs) == 201
        assert len(parse_poly(f"{U}^5*{U}^5", 2, Ring.Z).coeffs) == 201
        assert len(parse_poly(f"{S6}^15", 6, Ring.Z).coeffs) == 15_504


def _tower_in_cap(exponents):
    """True when the right-associative tower is at most ``EXPONENT_CAP``."""
    value = 1
    for e in reversed(exponents):
        value = e**value
    return value <= parse.EXPONENT_CAP


@st.composite
def budgeted_sources(draw):
    """A ring, an arity of 1..4 and an expression in it: sums of two to four
    and products of two or three operands, and powers, nested up to three
    deep over variables and small constants, each power a tower of one or
    two exponents 0..6 within the cap."""
    ring = draw(st.sampled_from((Ring.Z, Ring.Q, Ring.ZI)))
    nvars = draw(st.integers(1, 4))
    atoms = [f"x{j}" for j in range(1, nvars + 1)]
    atoms += ["2", {Ring.Z: "3", Ring.Q: "1/2", Ring.ZI: "i"}[ring]]
    towers = st.lists(st.integers(0, 6), min_size=1, max_size=2).filter(_tower_in_cap)

    def expression(depth):
        kind = draw(st.sampled_from(("atom", "sum", "product", "power")[: 4 if depth else 1]))
        if kind == "atom":
            return draw(st.sampled_from(atoms))
        if kind == "power":
            return f"({expression(depth - 1)})^" + "^".join(map(str, draw(towers)))
        count = draw(st.integers(2, 3 if kind == "product" else 4))
        operands = [expression(depth - 1) for _ in range(count)]
        return "(" + ("+" if kind == "sum" else ")*(").join(operands) + ")"

    return ring, nvars, expression(3)


@settings(max_examples=300, deadline=None, database=None)
@given(budgeted_sources(), st.integers(0, 100))
def test_no_parse_multiplies_more_pairs_than_the_budget(case, budget):
    # budgets this small refuse about two sources in five
    ring, nvars, source = case
    counted = 0
    mul_terms = poly._mul_terms

    def counting(a, b):
        nonlocal counted
        counted += len(a) * len(b)
        return mul_terms(a, b)

    with patch.object(parse, "PAIR_BUDGET", budget), patch.object(poly, "_mul_terms", counting):
        try:
            got = parse_poly(source, nvars, ring)
        except BudgetError as err:
            assert err.required > budget
            got = None
    assert counted <= budget
    if got is not None:
        assert got == parse_poly(source, nvars, ring)
