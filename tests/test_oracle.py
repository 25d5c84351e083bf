import json
import os
import signal
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from polyassoc import (
    BudgetError,
    Constant,
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
    candidates_text,
    census_csv,
    compose_closed_form,
    compose_substitution,
    enumerate_associative,
    from_size_coeffs,
    is_associative,
    parse_poly,
    reconstruct,
    verify_condpol,
)
from polyassoc import assoc, census, oracle, structure
from polyassoc.classify import _decide, classification_params, param_sort_key
from polyassoc.cli import main

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"


def test_xorshift_pinned_sequence():
    rng = XorShift64Star(1)
    assert [rng.next_u64() for _ in range(4)] == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
        5599127315341312413,
    ]


def test_element_draws_plain_ints_over_z_and_q():
    z, q, zi = XorShift64Star(5), XorShift64Star(5), XorShift64Star(5)
    z_draws = [z.element(Ring.Z, 100) for _ in range(200)]
    q_draws = [q.element(Ring.Q, 100) for _ in range(200)]
    assert q_draws == z_draws
    assert all(type(v) is int for v in q_draws)
    zi_draws = [zi.element(Ring.ZI, 100) for _ in range(100)]
    assert all(type(v) is GaussianInt for v in zi_draws)
    assert [(v.re, v.im) for v in zi_draws] == list(zip(z_draws[::2], z_draws[1::2]))


def test_xorshift_determinism_and_ranges():
    a = XorShift64Star(42)
    b = XorShift64Star(42)
    seq_a = [a.randint(-5, 5) for _ in range(50)]
    seq_b = [b.randint(-5, 5) for _ in range(50)]
    assert seq_a == seq_b
    assert all(-5 <= v <= 5 for v in seq_a)
    assert len(set(seq_a)) > 3
    assert XorShift64Star(0).next_u64() == XorShift64Star(1 << 64).next_u64()
    with pytest.raises(ValueError):
        XorShift64Star(1).randint(3, 2)


@pytest.mark.parametrize(
    "lo, hi, count",
    [(-5, 5, 200), (0, 2**63, 500), (0, 0, 10), (-100, 100, 1), (-3, 3, 0), (1, 2**64, 50)],
)
def test_randints_equals_repeated_randint(lo, hi, count):
    batch, single = XorShift64Star(11), XorShift64Star(11)
    assert batch.randints(lo, hi, count) == [single.randint(lo, hi) for _ in range(count)]
    assert batch.state == single.state


def test_randints_rejects_often_on_a_half_range():
    # span 2^63 + 1 leaves a limit just over 2^63, so about half of all draws are rejected
    class Counting(XorShift64Star):
        calls = 0

        def next_u64(self):
            self.calls += 1
            return super().next_u64()

    rng = Counting(3)
    draws = rng.randints(0, 2**63, 500)
    assert all(0 <= v <= 2**63 for v in draws)
    assert rng.calls > 800


def test_randints_empty_range_raises():
    with pytest.raises(ValueError, match="empty range"):
        XorShift64Star(1).randints(3, 2, 5)


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Q, Ring.ZI])
def test_elements_equals_repeated_element(ring):
    batch, single = XorShift64Star(9), XorShift64Star(9)
    drawn = batch.elements(ring, 100, 300)
    assert drawn == [single.element(ring, 100) for _ in range(300)]
    assert [type(v) for v in drawn] == [GaussianInt if ring is Ring.ZI else int] * 300
    assert batch.state == single.state


def test_randints_refuses_a_range_wider_than_64_bits():
    rng = XorShift64Star(1)
    with pytest.raises(ValueError, match="2\\^64"):
        rng.randint(0, 2**64)
    assert rng.state == 1
    assert rng.randint(0, 2**64 - 1) == 5180492295206395165


def sampled_points(ring, degree, width=2, seed=5):
    """The points ``_samples_agree`` draws when every point agrees."""
    points = []
    assert oracle._samples_agree(ring, degree, width, lambda p: points.append(p) or [0], seed)
    return points


def sample_set_size(ring):
    """|S| at half-width 2^63 - 1: 2^64 - 1 over Z and Q, (2^64 - 1)^2 over Z[i]."""
    return (2**64 - 1) ** (2 if ring is Ring.ZI else 1)


def least_count(ring, degree):
    """The least k with |S|^k >= 2^64 * degree^k."""
    size = sample_set_size(ring)
    return next(k for k in range(1, 65) if size**k >= 2**64 * degree**k)


@pytest.mark.parametrize(
    "ring, degree, width",
    [(ring, d, w) for ring in (Ring.Z, Ring.Q)
     for d, w in [(0, 1), (1, 9), (19, 19), (25, 22), (100, 64), (961, 2)]]
    + [(Ring.ZI, 25, 7), (Ring.ZI, 101, 8)],
)
def test_sample_count_meets_the_error_bound(ring, degree, width):
    # the points are the first k of the seeded stream, each of ``width`` coordinates
    k = least_count(ring, degree)
    points = sampled_points(ring, degree, width, seed=7)
    stream = XorShift64Star(7).elements(ring, 2**63 - 1, k * width)
    assert points == [stream[j * width:(j + 1) * width] for j in range(k)]


@pytest.mark.parametrize("ring, degree, count", [
    (Ring.Z, 0, 1), (Ring.Q, 0, 1), (Ring.ZI, 0, 1),
    (Ring.Z, 1, 2), (Ring.Q, 25, 2), (Ring.Z, 961, 2), (Ring.Q, 2**32 - 1, 2),
    (Ring.Z, 2**32, 3), (Ring.ZI, 1, 1), (Ring.ZI, 2**64 - 2, 1), (Ring.ZI, 2**64 - 1, 2),
])
def test_sample_count_by_degree(ring, degree, count):
    assert least_count(ring, degree) == len(sampled_points(ring, degree)) == count


@pytest.mark.parametrize("ring", [Ring.Z, Ring.Q, Ring.ZI])
def test_sampling_refuses_a_degree_past_half_the_set(ring, monkeypatch):
    # |S| <= 2d leaves no valid box: refused before a generator is built;
    # one degree below, the 64 points of the widest bound are drawn
    size = sample_set_size(ring)
    assert len(sampled_points(ring, size // 2)) == 64

    def refuse(seed):
        raise AssertionError("a point was drawn")

    oracle._sample_points.cache_clear()
    monkeypatch.setattr(oracle, "XorShift64Star", refuse)
    with pytest.raises(BudgetError, match=f"degree {size // 2 + 1} needs more than {size}"):
        sampled_points(ring, size // 2 + 1)


def test_sample_points_are_drawn_once_per_key(monkeypatch):
    # a second check with the same (ring, degree, width, seed) reads the same
    # stream points without a generator, whatever the first did to its lists;
    # k = 1 at d = 3 over Z[i], as (2^64 - 1)^2 >= 2^64 * 3
    oracle._sample_points.cache_clear()
    expected = [XorShift64Star(13).elements(Ring.ZI, 2**63 - 1, 3)]
    first = sampled_points(Ring.ZI, 3, width=3, seed=13)
    for point in first:
        point.clear()
    monkeypatch.setattr(oracle, "XorShift64Star", None)
    assert sampled_points(Ring.ZI, 3, width=3, seed=13) == expected
    oracle._sample_points.cache_clear()


def test_sampling_stops_at_the_first_disagreement():
    # k = 2 at d = 1 over Z: values that differ at the first point stop the
    # check there, and values that differ at the second fail it
    for first_differing in (1, 2):
        points = []
        assert not oracle._samples_agree(
            Ring.Z, 1, 3, lambda p: points.append(p) or [0, len(points) // first_differing], 5
        )
        assert len(points) == first_differing


def polys_equal_oracle(p: SparsePoly, q: SparsePoly, cfg: OracleConfig) -> bool:
    """Reference: pointwise equality, independent of any symbolic normal form.

    Grid mode is conclusive: the grid extends one past the per-variable
    degree in each variable, and a polynomial over an integral domain
    vanishing on such a grid is zero.  Random mode samples, with the
    difference's degree bound max(deg p, deg q).
    """
    if p.ring is not q.ring or p.nvars != q.nvars:
        raise ValueError("polynomials must share ring and arity")
    if cfg.mode == "random":
        return oracle._samples_agree(
            p.ring,
            max(p.degree(), q.degree()),
            p.nvars,
            lambda point: [p.evaluate(point), q.evaluate(point)],
            cfg.seed,
        )
    sides = [
        max(p.degree_in_var(j), q.degree_in_var(j)) + 1
        for j in range(1, p.nvars + 1)
    ]
    oracle._check_grid_guard(prod(sides))
    points = product(*(range(s) for s in sides))
    return all(p.evaluate(point) == q.evaluate(point) for point in points)


def test_polys_equal_oracle_grid():
    cfg = OracleConfig(mode="grid")
    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z).to_multilinear()
    closed = compose_closed_form(cubic, 1)
    expanded = compose_substitution(cubic, 1)
    assert polys_equal_oracle(closed, expanded, cfg)
    assert polys_equal_oracle(
        parse_poly("x1 + x2", 2, Ring.Z), parse_poly("x2 + x1", 2, Ring.Z), cfg
    )
    assert not polys_equal_oracle(
        parse_poly("x1*x2", 2, Ring.Z), parse_poly("x1 + x2", 2, Ring.Z), cfg
    )
    with pytest.raises(ValueError):
        polys_equal_oracle(
            parse_poly("x1", 2, Ring.Z), parse_poly("x1", 3, Ring.Z), cfg
        )


def test_polys_equal_oracle_random():
    cfg = OracleConfig(mode="random", seed=9)
    assert polys_equal_oracle(
        parse_poly("(x1 + x2)^2", 2, Ring.Z),
        parse_poly("x1^2 + 2*x1*x2 + x2^2", 2, Ring.Z),
        cfg,
    )
    assert not polys_equal_oracle(
        parse_poly("x1^2", 2, Ring.Z), parse_poly("x1", 2, Ring.Z), cfg
    )


def test_associated_value_fixture():
    p = parse_poly("2*x1*x2 + x1", 2, Ring.Z)
    assert associated_value(p, 1, (1, 0, 1)) == 3
    assert associated_value(p, 2, (1, 0, 1)) == 1


def literal_value(p: SparsePoly, point):
    """p at ``point`` by the ring's element operators alone: the sum over the
    terms of c * x_j * .. * x_j, each x_j multiplied in e_j times."""
    total = p.ring.zero
    for exps, c in p.terms.items():
        for x, e in zip(map(p.ring.coerce, point), exps):
            for _ in range(e):
                c = c * x
        total = total + c
    return total


@st.composite
def points_of_polynomials(draw):
    """p over Z, Q or Z[i] at n = 2..5, multilinear (by masks or by exponent
    tuples) or with exponents up to 3, and n*n coordinates, each an int, a
    bool or a ring element."""
    ring = draw(st.sampled_from(list(COEFFS)))
    n = draw(st.integers(2, 5))
    top = draw(st.sampled_from([1, 3]))
    exps = st.tuples(*[st.integers(0, top)] * n)
    p = SparsePoly(ring, n, draw(st.dictionaries(exps, COEFFS[ring], max_size=4)))
    if top == 1 and draw(st.booleans()):
        p = MultilinearPoly(ring, n, p.to_multilinear().coeffs)
    coordinate = st.one_of(SMALL, st.booleans(), COEFFS[ring])
    return p, draw(st.lists(coordinate, min_size=n * n, max_size=n * n))


@settings(max_examples=150, deadline=None, database=None)
@given(points_of_polynomials())
def test_native_chains_equal_the_nested_definition(case):
    # the compositions and the medial sides, chained in native values and
    # wrapped once, against nested evaluations by the ring's own operators
    p, flat = case
    ring, n = p.ring, p.nvars
    point = flat[: 2 * n - 1]
    nested = [
        literal_value(p, point[:s] + [literal_value(p, point[s:s + n])] + point[s + n:])
        for s in range(n)
    ]
    chained = [ring.element(v) for v in oracle._compositions(p, range(n))(point)]
    assert chained == nested
    assert [associated_value(p, s, point) for s in range(1, n + 1)] == nested
    assert p.evaluate(point[:n]) == literal_value(p, point[:n])
    rows = literal_value(p, [literal_value(p, flat[r * n:(r + 1) * n]) for r in range(n)])
    cols = literal_value(p, [literal_value(p, flat[c::n]) for c in range(n)])
    sides = [ring.element(v) for v in structure._sampled_sides(p)(flat)]
    assert sides == [rows, cols]
    for value in chained + sides + [p.evaluate(point[:n])]:
        assert type(value) is type(ring.one)


def test_assoc_pointwise():
    cfg = OracleConfig(mode="grid")
    assert assoc_pointwise(parse_poly(CUBIC_EXAMPLE, 3, Ring.Z), cfg)
    assert not assoc_pointwise(parse_poly("2*x1*x2 + x1", 2, Ring.Z), cfg)
    assert assoc_pointwise(SparsePoly.constant(Ring.Z, 3, 7), cfg)
    assert not assoc_pointwise(SparsePoly(Ring.Z, 2, {(2, 0): 1}), cfg)
    assert assoc_pointwise(parse_poly("x1 - x2 + x3", 3, Ring.Z), cfg)


def test_grid_guard(monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("input with a squared variable evaluated")

    # a squared variable: both modes reject by the slot degrees, evaluating
    # nothing; grid mode still raises where the exact grid passes the guard
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_compositions", no_evaluation)
        patch.setattr(SparsePoly, "plan", no_evaluation)  # every kernel's data
        patch.setattr(oracle, "_subset_sum", no_evaluation)
        for p in [SparsePoly(Ring.Z, 2, {(40, 40): 1, (1, 0): 1}),
                  parse_poly("(((x1^64)^64)^64)*x2", 2, Ring.Z),
                  parse_poly("(x1 + x2 + x3 + x4 + 1)^3", 4, Ring.Z)]:
            with pytest.raises(BudgetError):
                assoc_pointwise(p, OracleConfig(mode="grid"))
            assert not assoc_pointwise(p, OracleConfig(mode="random"))
        for p in [parse_poly("x1^2*x2", 2, Ring.Z),
                  parse_poly("(x1 + x2 + x3 + 1)^2", 3, Ring.Z)]:
            assert not assoc_pointwise(p, OracleConfig(mode="grid"))
            assert not assoc_pointwise(p, OracleConfig(mode="random"))
    big = SparsePoly(Ring.Z, 2, {(2000, 2000): 1})
    with pytest.raises(BudgetError):
        polys_equal_oracle(big, big, OracleConfig(mode="grid"))
    # multilinear: a one-term product needs at most two points per equation,
    # so n = 10 stays exact by family although its nine 2^19-point grids do
    # not fit; being symmetric, it is also exact by its point values
    one_term = SparsePoly(Ring.Z, 10, {(1,) * 10: 1})
    assert oracle._assoc_by_families(one_term.to_multilinear())
    assert assoc_pointwise(one_term, OracleConfig(mode="grid"))
    assert assoc_pointwise(one_term, OracleConfig(mode="random"))

    # the bound is taken from the term counts before any subset sum is read
    def no_sums(*args):
        raise AssertionError("subset sum read over the guard")

    monkeypatch.setattr(oracle, "_subset_sum", no_sums)
    # n = 14, every subset of size <= 3: 470 terms, 92 of them with x_s, so
    # each slot may give 92 * 470 + 378 masks and each equation twice that;
    # x1's coefficient 2 keeps the table off the symmetric route
    small_sets = {
        tuple(1 if j in s else 0 for j in range(14)): 1
        for k in range(4)
        for s in combinations(range(14), k)
    }
    small_sets[(1,) + (0,) * 13] = 2
    with pytest.raises(BudgetError) as err:
        assoc_pointwise(SparsePoly(Ring.Z, 14, small_sets), OracleConfig(mode="grid"))
    assert err.value.required == 13 * 2 * (92 * 470 + 378)
    # the dense table at n = 10, x1's coefficient 2: each equation is capped
    # by its 2^19-point grid
    dense = {e: 1 for e in product((0, 1), repeat=10)}
    dense[(1,) + (0,) * 9] = 2
    with pytest.raises(BudgetError) as err:
        assoc_pointwise(SparsePoly(Ring.Z, 10, dense), OracleConfig(mode="grid"))
    assert err.value.required == 9 * 2**19


def full_grid_assoc(p: SparsePoly) -> bool:
    """Reference for multilinear p: every equation at every 0/1 point."""
    n = p.nvars
    return all(
        associated_value(p, i, point) == associated_value(p, i + 1, point)
        for i in range(1, n)
        for point in product((0, 1), repeat=2 * n - 1)
    )


def assert_support_route_agrees(p: SparsePoly) -> None:
    expected = is_associative(p).associative
    assert full_grid_assoc(p) == expected
    assert assoc_pointwise(p, OracleConfig(mode="grid")) == expected


def test_support_points_agree_with_full_grid_on_z_box():
    for values in product(range(-2, 3), repeat=4):
        assert_support_route_agrees(MultilinearPoly(Ring.Z, 2, dict(enumerate(values))))


def test_support_points_agree_with_full_grid_on_gaussian_box():
    units = [GaussianInt(re, im) for re in (-1, 0, 1) for im in (-1, 0, 1)]
    for values in product(units, repeat=4):
        assert_support_route_agrees(MultilinearPoly(Ring.ZI, 2, dict(enumerate(values))))


SMALL = st.integers(-3, 3)
COEFFS = {
    Ring.Z: SMALL,
    Ring.Q: st.builds(Fraction, SMALL, st.integers(1, 3)),
    Ring.ZI: st.builds(GaussianInt, SMALL, SMALL),
}


@st.composite
def sparse_multilinear(draw):
    """Up to four random terms at n = 2..6, alone or added to a member of an
    associative family, so that both verdicts and near misses occur."""
    ring = draw(st.sampled_from(list(COEFFS)))
    n = draw(st.integers(2, 6))
    families = [Constant(draw(SMALL)), LeftProjection(), RightProjection(),
                TranslatedSum(draw(SMALL))]
    if n >= 3 and n % 2:
        families.append(TwistedSum(-1))
    if n <= 4:  # a shifted product fills the whole table
        families.append(ShiftedProduct(draw(st.sampled_from([1, -1, 2])), draw(SMALL)))
    base = draw(st.one_of(st.none(), st.sampled_from(families)))
    terms = dict(reconstruct(base, n, ring).terms) if base is not None else {}
    masks = st.tuples(*[st.integers(0, 1)] * n)
    for exps, c in draw(st.dictionaries(masks, COEFFS[ring], max_size=4)).items():
        terms[exps] = terms.get(exps, 0) + c
    return SparsePoly(ring, n, terms)


@settings(max_examples=120, deadline=None, database=None)
@given(sparse_multilinear())
def test_support_points_agree_with_full_grid_on_sparse_inputs(p):
    assert_support_route_agrees(p)


@st.composite
def multilinear_tables(draw, max_n, near=False):
    """A table at n = 2..max_n over Z, Q or Z[i]: every mask drawn, or a
    family member, as it is or with one term added, since random tables are
    nearly all rejected at the first point.  ``near``: a family member with
    one coefficient changed, always."""
    ring = draw(st.sampled_from(list(COEFFS)))
    n = draw(st.integers(2, max_n))
    if not near and draw(st.booleans()):
        values = draw(st.lists(COEFFS[ring], min_size=1 << n, max_size=1 << n))
        return MultilinearPoly(ring, n, dict(enumerate(values)))
    families = [Constant(draw(SMALL)), LeftProjection(), RightProjection(),
                TranslatedSum(draw(SMALL)),
                ShiftedProduct(draw(st.sampled_from([1, -1, 2])), draw(SMALL))]
    if n % 2:
        families.append(TwistedSum(-1))
    coeffs = dict(reconstruct(draw(st.sampled_from(families)), n, ring).to_multilinear().coeffs)
    if near or draw(st.booleans()):
        mask = draw(st.integers(0, (1 << n) - 1))
        change = COEFFS[ring].filter(bool) if near else COEFFS[ring]
        coeffs[mask] = coeffs.get(mask, 0) + draw(change)
    return MultilinearPoly(ring, n, coeffs)


@settings(max_examples=100, deadline=None, database=None)
@given(multilinear_tables(6))
def test_subset_sums_equal_evaluate_at_every_indicator_point(p):
    sums = oracle._SubsetSums(p)
    for point in product((0, 1), repeat=p.nvars):
        mask = sum(bit << j for j, bit in enumerate(point))
        assert sums[mask] == sums.den * p.evaluate(point)


@settings(max_examples=100, deadline=None, database=None)
@given(st.one_of(multilinear_tables(5), multilinear_tables(6, near=True)))
def test_grid_mode_equals_full_grid_on_tables(p):
    assert assoc_pointwise(p, OracleConfig(mode="grid")) == full_grid_assoc(p)


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(multilinear_tables(5), multilinear_tables(5, near=True)),
       st.integers(1, 2**64 - 1))
def test_random_mode_equals_grid_mode_on_tables(p, seed):
    # one or two points of the full 64-bit box catch every failing table
    expected = assoc_pointwise(p, OracleConfig(mode="grid"))
    event("associative" if expected else "not associative")
    assert assoc_pointwise(p, OracleConfig(mode="random", seed=seed)) == expected


def test_every_monomial_of_both_compositions_is_checked(monkeypatch):
    # The soundness argument needs equation s to reach the indicator point of
    # every monomial of slot s's and slot s+1's compositions.  Each
    # equation's families are recorded, and the call's one set of window
    # parts; the stub passes every family, so that each is reached.  The
    # family route is called directly, since symmetric tables do not reach it.
    families, parts = {}, []
    find_families, window_parts = oracle._families, oracle._window_parts

    def record_families(masks, lo, hi):
        found = families[lo.bit_length()] = find_families(masks, lo, hi)
        return found

    def record_parts(masks, n):
        parts.append(window_parts(masks, n))
        return parts[-1]

    monkeypatch.setattr(oracle, "_families", record_families)
    monkeypatch.setattr(oracle, "_window_parts", record_parts)
    monkeypatch.setattr(oracle, "_family_holds", lambda *args: True)
    cases = [
        ("2*x2", 3),
        ("x1*x3 + 2", 3),
        ("x2*x3 + x1 - 3", 4),
        ("x1*x2*x4 + 2*x3 + x4", 4),
        ("x1 + x2 + x3 + x4 + 1", 4),
        ("x1 - x2 + x3 - x4 + x5", 5),
        ("-1 + 2*(x1 + 1)*(x2 + 1)*(x3 + 1)*(x4 + 1)", 4),
        (CUBIC_EXAMPLE, 3),
    ]
    for text, n in cases:
        p = parse_poly(text, n, Ring.Z)
        families.clear()
        parts.clear()
        ml = p.to_multilinear()
        assert oracle._assoc_by_families(ml)
        assert len(parts) == 1, text
        for s in range(1, n):
            checked = {(k, c) for k in families[s] for c in parts[0]}
            for slot in (s, s + 1):
                for mask in compose_closed_form(ml, slot).coeffs:
                    # x1..x_s, then x_(s+n) on: the family; x_(s+1)..x_(s+n-1): C
                    k = mask & ((1 << s) - 1) | mask >> (s + n - 1) << s
                    c = mask >> s & ((1 << (n - 1)) - 1)
                    assert (k, c) in checked, (text, s, slot, mask)


# Every family of both equations of this table holds at its first window
# part and has U and V not proportional, with beta and delta not both zero:
# only the beta = delta = 0 test rejects it.
NON_PROPORTIONAL = "x1*x2*x3 - x1*x2 + x1*x3 - 2*x2*x3 + x1 - x2 + x3"


def test_family_check_equals_its_points(monkeypatch):
    # A family passes iff the equation holds at each of its points, read by
    # evaluating both compositions there.  Every family is recorded with its
    # verdict, and the route is told that each holds, so that it goes on.
    seen = []
    family_holds = oracle._family_holds

    def record(sums, lo, hi, k, relation):
        seen.append((lo.bit_length(), k, family_holds(sums, lo, hi, k, relation)))
        return True

    monkeypatch.setattr(oracle, "_family_holds", record)
    cases = [(NON_PROPORTIONAL, 3, Ring.Z), ("x1*x2 + 2*x2*x3 + x1 - x3", 3, Ring.Q),
             ("x1 + i*x2 - x3 + (1+i)*x2*x4", 4, Ring.ZI),
             ("-1 + 2*(x1 + 1)*(x2 + 1)*(x3 + 1) + x2*x3", 3, Ring.Z)]
    for text, n, ring in cases:
        p = parse_poly(text, n, ring)
        parts = oracle._window_parts(list(p.to_multilinear().coeffs), n)
        seen.clear()
        assert assoc_pointwise(p, OracleConfig(mode="grid"))
        assert not all(holds for _, _, holds in seen), text
        for s, k, holds in seen:
            points = [
                [mask >> j & 1 for j in range(2 * n - 1)]
                for c in parts
                for mask in [k & ((1 << s) - 1) | c << s | k >> s << (s + n - 1)]
            ]
            assert holds == all(
                associated_value(p, s, x) == associated_value(p, s + 1, x) for x in points
            ), (text, s, k)


def test_family_route_work_follows_the_terms(monkeypatch):
    # Work counts, not time: with every family passing, so that each is
    # reached, a call builds at most four (U, V) relations, one per family
    # bits (a, b), and equation s checks at most min(3t, 2^n) families: the
    # terms, each without x_s, each without x_(s+1).
    relations, checks = [], {}
    build_relation = oracle._relation

    def count_relation(sums, n, key, parts):
        relations.append(key)
        return build_relation(sums, n, key, parts)

    def count_check(sums, lo, hi, k, relation):
        checks[lo] = checks.get(lo, 0) + 1
        return True

    monkeypatch.setattr(oracle, "_relation", count_relation)
    monkeypatch.setattr(oracle, "_family_holds", count_check)
    sp8 = "-1 + 2*" + "*".join(f"(x{j} + 1)" for j in range(1, 9))
    cases = [
        parse_poly("3*x1*x2*x3*x5 + 3*x2*x3*x4 + x1*x5 + x3*x5 + x4*x5 + 3*x1 + 2*x4 + 2*x5",
                   5, Ring.Z),
        parse_poly("x1*x2*x3 + x4", 12, Ring.Z),
        parse_poly("x31", 31, Ring.Z),
        reconstruct(TwistedSum(-1), 5, Ring.Z),
        reconstruct(TwistedSum(GaussianInt(0, 1)), 5, Ring.ZI),
        parse_poly(sp8 + " + x1*x2", 8, Ring.Z),
    ]
    for p in cases:
        ml = p.to_multilinear()
        relations.clear()
        checks.clear()
        assert oracle._assoc_by_families(ml)
        assert len(relations) == len(set(relations)) <= 4, (p.render(), relations)
        bound = min(3 * len(ml.coeffs), 1 << ml.n)
        assert len(checks) == ml.n - 1 and max(checks.values()) <= bound, (p.render(), checks)


def test_non_proportional_families_reject():
    p = parse_poly(NON_PROPORTIONAL, 3, Ring.Z)
    assert not is_associative(p).associative
    assert not assoc_pointwise(p, OracleConfig(mode="grid"))


def test_grid_mode_reads_subset_sums_alone(monkeypatch):
    # The grid route shares no code with the decision's closed form or with
    # substitution, and evaluates nothing: with those patched to raise it
    # gives the decision's answers.
    cases = [reconstruct(ShiftedProduct(2, 1), 5, ring) for ring in COEFFS]
    cases += [reconstruct(TranslatedSum(3), 5, Ring.Z), reconstruct(TwistedSum(-1), 5, Ring.ZI),
              parse_poly(NON_PROPORTIONAL, 3, Ring.Z)]
    expected = [is_associative(p).associative for p in cases]
    assert expected == [True] * 5 + [False]

    def unreachable(*args, **kwargs):
        raise AssertionError("the grid route left its subset sums")

    for module, name in [(assoc, "compose_closed_form"), (assoc, "_pulled_masks"),
                         (SparsePoly, "substitute"), (SparsePoly, "plan")]:
        monkeypatch.setattr(module, name, unreachable)
    assert [assoc_pointwise(p, OracleConfig(mode="grid")) for p in cases] == expected


def _near_misses(ring, n):
    """The tables of six to eight family members at arity n over ``ring``, each
    with one coefficient changed, one term dropped or one term added, in every way."""
    members = [Constant(2), LeftProjection(), RightProjection(), TranslatedSum(1),
               ShiftedProduct(2, 1), ShiftedProduct(-1, 0)]
    if n >= 3 and n % 2:
        members.append(TwistedSum(-1))
    if ring is Ring.ZI and n == 5:
        members.append(TwistedSum(GaussianInt(0, 1)))
    for cls in members:
        coeffs = reconstruct(cls, n, ring).to_multilinear().coeffs
        for mask in range(1 << n):
            if mask in coeffs:
                yield {**coeffs, mask: coeffs[mask] + ring.one}
                yield {m: c for m, c in coeffs.items() if m != mask}
            else:
                yield {**coeffs, mask: ring.coerce(2)}


def test_near_misses_of_every_family_get_one_verdict_from_every_route():
    # recognition, the grid oracle and the witness search agree on the
    # tables one change away from a family, and give the same witness
    verdicts = []
    for ring in COEFFS:
        for n in range(2, 6):
            for table in _near_misses(ring, n):
                ml = MultilinearPoly(ring, n, table)
                witness, _ = _decide(ml)
                assert assoc.associative_multilinear(ml).witness == witness, ml.render()
                assert assoc_pointwise(ml, OracleConfig(mode="grid")) == (witness is None)
                verdicts.append(witness is None)
    assert verdicts.count(False) >= len(verdicts) / 2


def test_each_subset_sum_is_computed_once(monkeypatch):
    # each subset sum of the family route is kept once computed, across all equations
    sums = []
    subset_sum = oracle._subset_sum

    def record_sum(terms, mask):
        sums.append(mask)
        return subset_sum(terms, mask)

    cases = [("x1 + x2 + x3", 3), ("x1*x2*x4 + 2*x3 + x4", 4),
             ("-1 + 2*(x1 + 1)*(x2 + 1)*(x3 + 1)*(x4 + 1)", 4)]
    monkeypatch.setattr(oracle, "_subset_sum", record_sum)
    for text, n in cases:
        sums.clear()
        p = parse_poly(text, n, Ring.Z)
        assert oracle._assoc_by_families(p.to_multilinear()) == is_associative(p).associative
        assert sums and len(sums) == len(set(sums)), text


def test_dense_shifted_product_grid_finishes_quickly():
    # SP(9) = -1 + 2*(x1 + 1)*...*(x9 + 1): 512 terms, every equation's whole
    # 2^17-point grid a candidate, so (n-1) * 2^n family checks on the family route
    p = from_size_coeffs(Ring.Z, 9, [1] + [2] * 9)

    def expire(signum, frame):
        raise TimeoutError("SP(9) still checked after 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        assert oracle._assoc_by_families(p)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def symmetric_sizes(draw):
    """c_0 .. c_n of a symmetric table at n = 2..7 over Z, Q or Z[i]: a shifted
    product, one with a size coefficient changed, a translated sum, or a
    random list."""
    ring = draw(st.sampled_from(list(COEFFS)))
    n, coeffs = draw(st.integers(2, 7)), COEFFS[ring]
    kind = draw(st.sampled_from(["product", "changed", "sum", "random"]))
    if kind == "sum":
        return ring, n, [draw(coeffs), 1] + [0] * (n - 1)
    if kind == "random":
        return ring, n, draw(st.lists(coeffs, min_size=n + 1, max_size=n + 1))
    a, b = draw(coeffs.filter(bool)), draw(coeffs)
    sizes = [a * b**n - b] + [a * b ** (n - k) for k in range(1, n + 1)]
    if kind == "changed":
        sizes[draw(st.integers(0, n))] += draw(coeffs.filter(bool))
    return ring, n, sizes


@settings(max_examples=150, deadline=None, database=None)
@given(symmetric_sizes())
def test_symmetric_route_agrees_with_the_families_and_the_decision(case):
    ring, n, sizes = case
    p = from_size_coeffs(ring, n, sizes)
    assert p._size_coeffs() is not None
    expected = is_associative(p).associative
    event("associative" if expected else "not associative")
    assert oracle._assoc_on_support(p) == expected
    assert oracle._assoc_by_families(p) == expected
    assert verify_condpol([ring.coerce(c) for c in sizes]) == expected


def test_symmetric_pivot_agrees_with_every_pair_of_pairs():
    # the grid check compares 2n-1 pairs with the first nonzero one; the
    # equations read T_r * (S_(m+1) - 1) = T_(r+1) * S_m for every r < n-1
    # and m < n, n(n-1) comparisons.  Every Z table of size coefficients in
    # [-3, 3] at n = 2, 3, [-2, 2] at n = 4 and [-1, 1] at n = 5: 6,598 tables
    tables = 0
    for n, width in ((2, 3), (3, 3), (4, 2), (5, 1)):
        for sizes in product(range(-width, width + 1), repeat=n + 1):
            values = [sum(comb(j, k) * c for k, c in enumerate(sizes)) for j in range(n + 1)]
            steps = [y - x for x, y in zip(values, values[1:])]
            expected = all(
                steps[r] * (values[m + 1] - 1) == steps[r + 1] * values[m]
                for r in range(n - 1) for m in range(n)
            )
            assert oracle._assoc_on_support(from_size_coeffs(Ring.Z, n, list(sizes))) == expected
            tables += 1
    assert tables == 6598


def test_symmetric_tables_take_no_family_work(monkeypatch, capsys):
    # SP(n) is checked from its n+1 point values at every arity: no subset
    # sum is read and no family checked, so no guard applies
    def unreachable(*args):
        raise AssertionError("a symmetric table reached the family route")

    monkeypatch.setattr(oracle, "_subset_sum", unreachable)
    monkeypatch.setattr(oracle, "_family_holds", unreachable)
    for n in range(4, 15):
        sp = from_size_coeffs(Ring.Z, n, [1] + [2] * n)
        assert assoc_pointwise(sp, OracleConfig(mode="grid"))
    for n in range(10, 14):
        text = "-1 + 2*" + "*".join(f"(x{j} + 1)" for j in range(1, n + 1))
        assert main(["check", "--ring", "z", "--n", str(n), "--poly", text, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"] == {"mode": "grid", "agrees": True}


@st.composite
def powers_of_few_terms(draw):
    """Up to three terms with exponents 0..3 at n = 2..4 over Z, Q or Z[i]."""
    ring = draw(st.sampled_from(list(COEFFS)))
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return SparsePoly(ring, n, draw(st.dictionaries(exps, COEFFS[ring], max_size=3)))


@settings(max_examples=100, deadline=None, database=None)
@given(powers_of_few_terms())
def test_composition_degrees_are_exact(p):
    n = p.nvars
    degrees = [p.degree_in_var(j) for j in range(1, n + 1)]
    for slot in range(1, n + 1):
        composed = compose_substitution(p, slot)
        assert oracle._composition_degrees(degrees, slot) == [
            composed.degree_in_var(j) for j in range(1, 2 * n)
        ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equal_slot_degrees_only_when_multilinear(n):
    for degrees in (d for d in product(range(4), repeat=n) if max(d) >= 2):
        vectors = {tuple(oracle._composition_degrees(list(degrees), s)) for s in range(1, n + 1)}
        assert len(vectors) > 1, degrees


def test_oracle_config_validation():
    for mode in ("exhaustive", "exact"):
        with pytest.raises(ValueError, match=mode):
            OracleConfig(mode=mode)


def test_oracle_agrees_with_symbolic_on_random_inputs():
    rng = XorShift64Star(113)
    cfg = OracleConfig(mode="random", seed=17)
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            terms[exps] = rng.element(Ring.Z, 3)
        p = SparsePoly(Ring.Z, 3, terms)
        symbolic = is_associative(p).associative
        if symbolic:
            assert assoc_pointwise(p, cfg)
        else:
            # random disagreement is possible in principle but the grid is exact
            assert not assoc_pointwise(p, OracleConfig(mode="grid"))


@st.composite
def small_polys(draw):
    """Up to four terms with exponents 0..2 at n = 2..4 over Z, Q or Z[i]."""
    ring = draw(st.sampled_from(list(COEFFS)))
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return SparsePoly(ring, n, draw(st.dictionaries(exps, COEFFS[ring], max_size=4)))


@settings(max_examples=80, deadline=None, database=None)
@given(small_polys())
def test_random_oracle_rejects_every_non_associative_input(p):
    if not is_associative(p).associative:
        assert not assoc_pointwise(p, OracleConfig(mode="random"))


def test_enumerate_binary_box():
    result = enumerate_associative(2, Ring.Z, 2)
    assert result.total == 625
    assert result.checked == 625
    assert result.bulk_rejected == 0
    assert len(result.survivors) == 28
    by_type = {}
    for _, cls in result.survivors:
        by_type[cls.type_tag] = by_type.get(cls.type_tag, 0) + 1
    assert by_type == {
        "constant": 5,
        "left-projection": 1,
        "right-projection": 1,
        "translated-sum": 5,
        "shifted-product": 16,
    }
    assert "twisted-sum" not in by_type
    assert sum(row.count for row in result.census) == 28


def test_enumerate_ternary_box():
    result = enumerate_associative(3, Ring.Z, 1)
    assert result.total == 6561
    assert len(result.survivors) == 13
    twisted = [row for row in result.census if row.type_tag == "twisted-sum"]
    assert twisted == [type(twisted[0])("twisted-sum", "omega=-1", 1)]
    alt = parse_poly("x1 - x2 + x3", 3, Ring.Z)
    assert any(ml == alt for ml, _ in result.survivors)


def test_enumerate_gaussian_box():
    result = enumerate_associative(2, Ring.ZI, 1)
    assert result.total == 9**4
    assert result.checked == 9**4
    assert all(cls.type_tag != "twisted-sum" for _, cls in result.survivors)
    assert all(cls.type_tag != "not-associative" for _, cls in result.survivors)
    # i*x1*x2 is a shifted product with a = i
    target = MultilinearPoly(Ring.ZI, 2, {0b11: GaussianInt(0, 1)})
    assert any(ml == target for ml, _ in result.survivors)


def test_prune_validated_against_unpruned():
    plain = enumerate_associative(2, Ring.Z, 2)
    pruned = enumerate_associative(2, Ring.Z, 2, prune=True)
    assert [ml for ml, _ in plain.survivors] == [ml for ml, _ in pruned.survivors]
    assert plain.census == pruned.census
    assert pruned.checked + pruned.bulk_rejected == pruned.total
    assert pruned.checked < plain.checked


def test_prune_gaussian_small():
    plain = enumerate_associative(2, Ring.ZI, 1)
    pruned = enumerate_associative(2, Ring.ZI, 1, prune=True)
    assert plain.census == pruned.census
    assert pruned.checked + pruned.bulk_rejected == pruned.total


def test_pruned_gaussian_ternary_census():
    # 3^16 nominal candidates; the filters make the walk tractable
    result = enumerate_associative(3, Ring.ZI, 1, prune=True, budget=10**8)
    assert result.total == 3**16
    assert result.checked + result.bulk_rejected == result.total
    assert result.checked < 10_000
    twisted = [row for row in result.census if row.type_tag == "twisted-sum"]
    assert len(twisted) == 1
    assert twisted[0].params == "omega=-1" and twisted[0].count == 1
    # omega = +-i would need omega^2 = 1, so no other twisted sums exist
    assert set(Ring.ZI.roots_of_unity(2)) == {GaussianInt(1), GaussianInt(-1)}


# (n, ring, bound, total, checked, bulk_rejected) of pruned walks, pinned so
# that a change to how the walk visits the box cannot move either count.
PRUNED_WALKS = [
    (3, Ring.Z, 1, 6561, 90, 6471),
    (2, Ring.Z, 2, 625, 120, 505),
    (2, Ring.ZI, 1, 6561, 684, 5877),
    (2, Ring.ZI, 2, 390625, 15100, 375525),
    (3, Ring.ZI, 1, 43046721, 6156, 43040565),
    (4, Ring.Z, 1, 43046721, 270, 43046451),
]


@pytest.mark.parametrize("n, ring, bound, total, checked, bulk", PRUNED_WALKS)
def test_pruned_walk_counts(n, ring, bound, total, checked, bulk):
    result = enumerate_associative(n, ring, bound, prune=True, budget=total)
    assert (result.total, result.checked, result.bulk_rejected) == (total, checked, bulk)


def reference_walk(n, ring, bound, prune):
    """Reference: (survivors, checked, bulk_rejected) from deciding every
    table the walk must decide, each built whole and passed to
    ``associative_multilinear``.  Without pruning that is the whole box; with
    it, the tables the filters keep: a zero top coefficient with degree <= 1
    and idempotent coefficients of x1 and x_n, or a nonzero top coefficient
    with one coefficient per subset size."""
    domain = ring.box(bound)
    top = (1 << n) - 1
    idempotents = [v for v in domain if v * v == v]
    if not prune:
        tables = product(domain, repeat=top + 1)
    else:
        per_mask = [
            domain if m == 0
            else [ring.zero] if m.bit_count() > 1
            else idempotents if m in (1, 1 << (n - 1))
            else domain
            for m in range(top)
        ]
        low = [table + (ring.zero,) for table in product(*per_mask)]
        uniform = [
            tuple(by_size[m.bit_count()] for m in range(top + 1))
            for by_size in product(domain, repeat=n + 1)
            if by_size[n]
        ]
        tables = low + uniform
    checked, survivors = 0, []
    for table in tables:
        checked += 1
        ml = MultilinearPoly(ring, n, dict(enumerate(table)))
        if oracle.associative_multilinear(ml).associative:
            survivors.append(ml)
    survivors.sort(key=lambda ml: [ring.coords(ml.coeff(m)) for m in range(top + 1)])
    return survivors, checked, len(domain) ** (top + 1) - checked


@pytest.mark.parametrize("n, ring, bound, prune", [
    (3, Ring.Z, 1, False),
    (2, Ring.ZI, 1, False),
    (2, Ring.ZI, 2, True),
    (3, Ring.ZI, 1, True),
    (4, Ring.Z, 1, True),
    (2, Ring.ZI, 1, True),
    (2, Ring.Z, 2, False),
])
def test_walk_matches_deciding_every_table(n, ring, bound, prune):
    result = enumerate_associative(n, ring, bound, prune=prune, budget=10**8)
    survivors, checked, bulk = reference_walk(n, ring, bound, prune)
    assert [ml for ml, _ in result.survivors] == survivors
    assert (result.checked, result.bulk_rejected) == (checked, bulk)


# (n, ring, bound, prune, checked) of the four boxes the census benchmark walks
CENSUS_BOXES = [
    (3, Ring.Z, 1, False, 6561),
    (2, Ring.ZI, 1, False, 6561),
    (2, Ring.ZI, 2, True, 15100),
    (3, Ring.ZI, 1, True, 6156),
]


def test_walk_builds_only_the_associative_tables(monkeypatch):
    recognised, work = [], {}
    recognise = census.classify_associative

    def counted(ml):
        recognised.append(ml)
        return recognise(ml)

    def tallied(name):
        f = getattr(assoc, name)

        def wrapper(*args):
            work[name] = work.get(name, 0) + 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(census, "classify_associative", counted)
    for name in ("compose_closed_form", "compose_substitution"):
        wrapper = tallied(name)
        monkeypatch.setattr(assoc, name, wrapper)
        monkeypatch.setattr(census, name, wrapper, raising=False)
    for n, ring, bound, prune, checked in CENSUS_BOXES:
        recognised.clear()
        result = enumerate_associative(n, ring, bound, prune=prune, budget=10**8)
        # every table a failed or solved equation leaves out is settled
        # unbuilt; only the leaves are built, each recognised once
        assert sorted(map(str, recognised)) == sorted(str(ml) for ml, _ in result.survivors)
        assert result.checked == checked
        assert result.census == _census_rows_by_reference(result.survivors, ring)
    # a survivor is checked by recognition here and by the grid oracle in
    # ``enumerate``; the library walk builds no composition
    assert work == {}


def _census_rows_by_reference(survivors, ring):
    """The census rows from ``classification_params`` and ``param_sort_key``,
    each class read by both, grouped and sorted by (key, type, text)."""
    groups = {}
    for _, cls in survivors:
        text = " ".join(f"{k}={v}" for k, v in classification_params(cls, ring).items())
        groups.setdefault((param_sort_key(cls, ring), cls.type_tag, text), []).append(cls)
    return [census.CensusRow(tag, text, len(members))
            for (_, tag, text), members in sorted(groups.items())]


def test_a_wrong_root_makes_the_walk_differ_from_deciding_every_table(monkeypatch):
    root = census._root

    def off_by_one(lead, rest, modulus):
        return (root(lead, rest, modulus) + 1) % modulus  # the image of the root plus one

    ring, n, bound = Ring.Z, 3, 1
    survivors, _, _ = reference_walk(n, ring, bound, False)
    monkeypatch.setattr(census, "_root", off_by_one)
    _, _, found = census._enumerate_chunk((ring, n, bound, ring.box(bound), False))
    # a list whose solve is off never tries its true root, so the tables
    # through that root are lost; each table still kept is associative
    assert {ml.render() for ml in found} < {ml.render() for ml in survivors}


@pytest.mark.parametrize("n, ring, bound, kept", [(2, Ring.ZI, 2, 252), (5, Ring.Z, 1, 13)])
def test_unpruned_walks_that_solve_most_keep_their_pruned_survivors(n, ring, bound, kept):
    # every list of an unpruned walk is solved where its A is nonzero, against
    # the whole box: over Z[i] n = 2, bound 2 that is 390,625 tables
    box = ring.box_size(bound) ** (1 << n)
    full = enumerate_associative(n, ring, bound, prune=False, budget=box)
    pruned = enumerate_associative(n, ring, bound, prune=True, budget=box)
    assert len(full.survivors) == kept
    assert full.survivors == pruned.survivors and full.census == pruned.census
    assert (full.checked, full.bulk_rejected) == (box, 0)


def test_the_walk_computes_on_residues_not_gaussian_integers(monkeypatch):
    calls = {}
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__pow__", "__eq__", "__bool__", "__hash__"):
        def counted(*args, f=getattr(GaussianInt, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return f(*args)

        monkeypatch.setattr(GaussianInt, name, counted)
    ring = Ring.ZI
    checked, _, survivors = census._enumerate_chunk((ring, 2, 2, ring.box(2), True))
    assert (checked, len(survivors)) == (15100, 252)
    # the idempotent filter squares and compares each of the 25 box values
    # once, and the pruned split tests each top once; the walk's nodes and
    # solves cost no operator, and a survivor only wraps its values
    assert calls == {"__mul__": 25, "__eq__": 25, "__bool__": 25}


def test_equations_are_built_once_per_list_structure(monkeypatch):
    built = []
    equations = census._equations

    def counted(n, lists):
        built.append([masks for masks, _ in lists])
        return equations(n, lists)

    monkeypatch.setattr(census, "_equations", counted)
    ring = Ring.ZI
    census._enumerate_chunk((ring, 2, 1, ring.box(1), True))
    # one structure per kind of top, in the order of the box: nonzero (a
    # list per subset size), then zero (a list per mask); c_0's list comes
    # last in both, since every equation is linear in c_0
    assert built == [[[3], [1, 2], [0]], [[3], [1], [2], [0]]]


def test_equations_drop_what_commutativity_or_one_list_settles():
    # slot 1 = slot 2 at n = 2, one list per mask: list 0 sets the top, list
    # m + 1 mask m.  Of the 8 masks, 2, 3, 6 and 7 read c_1*c_2 against
    # c_2*c_1 or the like on both sides, and are dropped
    per_mask = census._equations(2, [([3], []), ([0], []), ([1], []), ([2], [])])
    assert per_mask == [[], [], [(-1, 2, 2, 2, 0, 1)], [  # mask 1: c1*c1 = c1 + c12*c0
        (1, 1, 2, 1, 1, 3),  # mask 0: c0 + c1*c0 = c0 + c2*c0
        (-1, 3, 3, 3, 0, 1),  # mask 4: c2*c2 = c2 + c12*c0
        (-1, 0, 2, -1, 0, 3),  # mask 5: c12*c1 = c12*c2
    ]]
    # one list per subset size sets c1 = c2: masks 0 and 5 then read equal
    # sides, and mask 4 repeats mask 1
    per_size = census._equations(2, [([3], []), ([0], []), ([1, 2], [])])
    assert per_size == [[], [], [(-1, 2, 2, 2, 0, 1)]]


def test_enumerate_budget_and_argument_errors():
    with pytest.raises(BudgetError) as err:
        enumerate_associative(3, Ring.Z, 3, budget=1000)
    assert err.value.required == 7**8
    assert str(7**8) in str(err.value)
    with pytest.raises(ValueError):
        enumerate_associative(3, Ring.Q, 1)
    with pytest.raises(ValueError):
        enumerate_associative(1, Ring.Z, 1)


def test_enumerate_budget_decided_before_building_the_box(monkeypatch):
    def no_walk(args):
        raise AssertionError("walked a box over the budget")

    monkeypatch.setattr(census, "_enumerate_chunk", no_walk)
    # a count of up to 4,300 digits stays exact
    with pytest.raises(BudgetError) as err:
        enumerate_associative(13, Ring.Z, 1)
    assert err.value.required == 3**8192
    # a longer one is written as a power and not built
    with pytest.raises(BudgetError) as err:
        enumerate_associative(13, Ring.Z, 2)
    assert err.value.required is None
    assert "box holds 5^8192 candidate tables" in str(err.value)
    # one table of 2^31 coefficients is over budget too
    with pytest.raises(BudgetError) as err:
        enumerate_associative(31, Ring.Z, 0)
    assert err.value.required == 2**31
    assert f"pass budget={2**31} or more" in str(err.value)


@pytest.mark.parametrize("ring", [Ring.Z, Ring.ZI])
def test_one_table_box_is_decided_without_a_walk(monkeypatch, ring):
    def no_walk(args):
        raise AssertionError("walked a box that holds only the zero table")

    monkeypatch.setattr(census, "_enumerate_chunk", no_walk)
    # 2^24 coefficients is within the default budget
    result = enumerate_associative(24, ring, 0)
    assert (result.total, result.checked, result.bulk_rejected) == (1, 1, 0)
    assert [cls for _, cls in result.survivors] == [Constant(ring.zero)]
    assert census_csv(result) == "type,params,count\nconstant,c=0,1\n"
    assert candidates_text(result) == "0\n"


def test_enumerate_jobs_deterministic():
    one = enumerate_associative(2, Ring.Z, 2)
    many = enumerate_associative(2, Ring.Z, 2, jobs=3)
    assert [ml for ml, _ in one.survivors] == [ml for ml, _ in many.survivors]
    assert one.census == many.census
    assert census_csv(one) == census_csv(many)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace ``multiprocessing.Pool`` by a stand-in that maps in this
    process; returns the list of pool sizes asked for."""
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return sizes


def test_enumerate_pool_capped_at_cpu_count(monkeypatch, serial_pool):
    one = enumerate_associative(2, Ring.ZI, 1, prune=True)
    for cpus, expected in ((2, 2), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        many = enumerate_associative(2, Ring.ZI, 1, prune=True, jobs=10_000)
        assert serial_pool.pop() == expected
        assert census_csv(many) == census_csv(one)
        assert candidates_text(many) == candidates_text(one)
        assert (many.checked, many.bulk_rejected) == (one.checked, one.bulk_rejected)
    assert serial_pool == []


def test_enumerate_chunk_count_bounded_by_domain(serial_pool):
    import time

    one = enumerate_associative(2, Ring.Z, 1, prune=True)
    start = time.perf_counter()
    many = enumerate_associative(2, Ring.Z, 1, prune=True, jobs=10**12)
    assert time.perf_counter() - start < 5.0
    assert census_csv(many) == census_csv(one)
    assert candidates_text(many) == candidates_text(one)


def test_enumerate_refuses_a_nonpositive_jobs(serial_pool):
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be positive"):
            enumerate_associative(2, Ring.Z, 1, jobs=jobs)
    assert serial_pool == []


def test_walk_jobs_deterministic_at_arity_four(serial_pool):
    one = enumerate_associative(4, Ring.Z, 1, budget=3**16)
    many = enumerate_associative(4, Ring.Z, 1, budget=3**16, jobs=3)
    assert serial_pool == [min(3, os.cpu_count() or 1)]
    assert [ml for ml, _ in many.survivors] == [ml for ml, _ in one.survivors]
    assert (many.checked, many.bulk_rejected) == (one.checked, one.bulk_rejected) == (3**16, 0)
    assert census_csv(many) == census_csv(one)
    assert candidates_text(many) == candidates_text(one)


def test_walk_jobs_deterministic_on_a_pruned_gaussian_box(serial_pool):
    one = enumerate_associative(2, Ring.ZI, 2, prune=True)
    many = enumerate_associative(2, Ring.ZI, 2, prune=True, jobs=3)
    assert serial_pool == [min(3, os.cpu_count() or 1)]
    assert [ml for ml, _ in many.survivors] == [ml for ml, _ in one.survivors]
    assert (many.checked, many.bulk_rejected) == (one.checked, one.bulk_rejected)
    assert census_csv(many) == census_csv(one)
    assert candidates_text(many) == candidates_text(one)


def test_census_output_stability():
    a = census_csv(enumerate_associative(3, Ring.Z, 1))
    b = census_csv(enumerate_associative(3, Ring.Z, 1))
    assert a == b
    assert a.startswith("type,params,count\n")
    lines = candidates_text(enumerate_associative(2, Ring.Z, 1)).splitlines()
    assert lines == sorted(set(lines), key=lines.index)  # no duplicates
    assert "x1*x2" in lines
    # survivors are listed in the order of their dense (re, im) tables
    zi = enumerate_associative(2, Ring.ZI, 1)
    expected = sorted(
        (ml for ml, _ in zi.survivors),
        key=lambda ml: [(ml.coeff(m).re, ml.coeff(m).im) for m in range(4)],
    )
    assert candidates_text(zi).splitlines() == [ml.render() for ml in expected]


def test_dual_path_agreement_for_survivors():
    result = enumerate_associative(2, Ring.Z, 2)
    cfg = OracleConfig(mode="grid")
    for ml, _ in result.survivors:
        for slot in (1, 2):
            closed = compose_closed_form(ml, slot)
            expanded = compose_substitution(ml, slot)
            assert polys_equal_oracle(closed, expanded, cfg)
