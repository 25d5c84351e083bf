from fractions import Fraction

import pytest

from polyassoc import (
    GaussianInt,
    MultilinearPoly,
    Ring,
    SparsePoly,
    XorShift64Star,
    elementary_symmetric,
    grid_points,
    interpolate_multilinear,
    parse_poly,
)

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"


def random_multilinear(rng, ring, n, width=3):
    coeffs = {m: rng.element(ring, width) for m in range(1 << n)}
    return MultilinearPoly(ring, n, coeffs)


def random_sparse(rng, ring, nvars, max_exp=2, terms=5, width=4):
    table = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        table[exps] = rng.element(ring, width)
    return SparsePoly(ring, nvars, table)


def test_degree_in_var():
    p = SparsePoly(Ring.Z, 2, {(2, 1): 1, (0, 1): 1})  # x1^2*x2 + x2
    assert p.degree_in_var(1) == 2
    assert p.degree_in_var(2) == 1
    assert SparsePoly.zero(Ring.Z, 3).degree_in_var(2) == 0
    with pytest.raises(IndexError):
        p.degree_in_var(3)


def test_to_multilinear_cubic_example():
    p = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    ml = p.to_multilinear()
    assert ml is not None
    assert ml.coeff(0b111) == 9
    for pair in (0b011, 0b101, 0b110):
        assert ml.coeff(pair) == 3
    for single in (0b001, 0b010, 0b100):
        assert ml.coeff(single) == 1
    assert ml.coeff(0) == 0


def test_to_multilinear_rejects_squares():
    assert SparsePoly(Ring.Z, 1, {(2,): 1}).to_multilinear() is None
    ml = SparsePoly.constant(Ring.Z, 2, 5).to_multilinear()
    assert ml.coeff(0) == 5


def test_to_multilinear_iff_degrees_at_most_one():
    rng = XorShift64Star(23)
    for _ in range(150):
        p = random_sparse(rng, Ring.Z, 3)
        multilinear = all(p.degree_in_var(j) <= 1 for j in (1, 2, 3))
        assert (p.to_multilinear() is not None) == multilinear
        if multilinear:
            assert p.to_multilinear().to_sparse() == p


def test_evaluate():
    p = SparsePoly(Ring.Z, 2, {(1, 1): 1})
    assert p.evaluate((2, 3)) == 6
    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    assert cubic.evaluate((0, 0, 0)) == 0
    assert cubic.evaluate((1, 1, 1)) == 21
    with pytest.raises(ValueError):
        p.evaluate((1,))


def test_evaluate_ring_mismatch():
    p = SparsePoly(Ring.Z, 2, {(1, 1): 1})
    with pytest.raises(TypeError):
        p.evaluate((Fraction(1, 2), 1))


def test_permute_vars():
    p = parse_poly("x1 - x2 + x3", 3, Ring.Z)
    swapped = p.permute_vars([2, 1, 3])
    assert swapped == parse_poly("x2 - x1 + x3", 3, Ring.Z)
    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    for sigma in ([2, 1, 3], [1, 3, 2], [3, 2, 1], [2, 3, 1]):
        assert cubic.permute_vars(sigma) == cubic
    assert p.permute_vars([1, 2, 3]) == p
    with pytest.raises(ValueError):
        p.permute_vars([1, 1, 2])


def test_permute_is_group_action():
    rng = XorShift64Star(31)
    perms3 = [[1, 2, 3], [2, 1, 3], [1, 3, 2], [3, 2, 1], [2, 3, 1], [3, 1, 2]]
    for _ in range(40):
        p = random_sparse(rng, Ring.Z, 3)
        for sigma in perms3:
            for tau in perms3:
                composed = [tau[sigma[j] - 1] for j in range(3)]
                assert p.permute_vars(sigma).permute_vars(tau) == p.permute_vars(composed)


def test_is_symmetric():
    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z).to_multilinear()
    assert cubic.is_symmetric()
    alt = parse_poly("x1 - x2 + x3", 3, Ring.Z).to_multilinear()
    assert not alt.is_symmetric()
    assert SparsePoly.constant(Ring.Z, 3, 7).to_multilinear().is_symmetric()
    # a size class with a missing mask is not uniform; an empty one is zero
    assert not parse_poly("x1*x2 + x1*x3", 3, Ring.Z).to_multilinear().is_symmetric()
    assert parse_poly("x1*x2*x3 + 1", 3, Ring.Z).to_multilinear().is_symmetric()


def test_is_symmetric_matches_transposition_invariance():
    rng = XorShift64Star(37)
    for _ in range(150):
        ml = random_multilinear(rng, Ring.Z, 3, width=1)
        transpositions = [[2, 1, 3], [1, 3, 2]]
        invariant = all(ml.permute_vars(s) == ml for s in transpositions)
        assert ml.is_symmetric() == invariant


def test_elementary_symmetric():
    p2 = elementary_symmetric(Ring.Z, 3, 2)
    assert p2.to_sparse() == parse_poly("x1*x2 + x2*x3 + x3*x1", 3, Ring.Z)
    assert elementary_symmetric(Ring.Z, 3, 0).to_sparse() == SparsePoly.constant(Ring.Z, 3, 1)
    assert elementary_symmetric(Ring.Z, 2, 2).to_sparse() == parse_poly("x1*x2", 2, Ring.Z)


def test_interpolate_simple():
    values = {pt: pt[0] * pt[1] for pt in grid_points(2)}
    ml = interpolate_multilinear(Ring.Z, 2, values)
    assert ml.coeffs == {0b11: 1}
    zero = interpolate_multilinear(Ring.Z, 2, {pt: 0 for pt in grid_points(2)})
    assert zero.coeffs == {}


def test_interpolate_inverts_grid_evaluation():
    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z).to_multilinear()
    values = {pt: cubic.evaluate(pt) for pt in grid_points(3)}
    assert interpolate_multilinear(Ring.Z, 3, values) == cubic
    rng = XorShift64Star(41)
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for n in (1, 2, 3, 4):
            for _ in range(25):
                ml = random_multilinear(rng, ring, n)
                values = {pt: ml.evaluate(pt) for pt in grid_points(n)}
                assert interpolate_multilinear(ring, n, values) == ml


def test_interpolate_requires_full_grid():
    with pytest.raises(ValueError):
        interpolate_multilinear(Ring.Z, 2, {(0, 0): 1})


def test_grid_equality_iff_coefficient_equality():
    rng = XorShift64Star(43)
    for _ in range(100):
        a = random_multilinear(rng, Ring.Z, 3, width=2)
        b = random_multilinear(rng, Ring.Z, 3, width=2)
        grids_agree = all(a.evaluate(pt) == b.evaluate(pt) for pt in grid_points(3))
        assert grids_agree == (a == b)


def test_render_canonical_order():
    p = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    assert p.render() == "9*x1*x2*x3 + 3*x1*x2 + 3*x1*x3 + 3*x2*x3 + x1 + x2 + x3"
    assert SparsePoly.zero(Ring.Z, 2).render() == "0"
    assert parse_poly("x1 - x2 + x3", 3, Ring.Z).render() == "x1 - x2 + x3"
    q = SparsePoly(Ring.Q, 1, {(1,): Fraction(-1, 3), (0,): Fraction(1, 2)})
    assert q.render() == "-1/3*x1 + 1/2"


def test_render_gaussian_coefficients():
    p = SparsePoly(
        Ring.ZI,
        2,
        {(1, 0): GaussianInt(0, 1), (0, 1): GaussianInt(2, -3), (0, 0): GaussianInt(-1, 0)},
    )
    assert p.render() == "i*x1 + (2-3*i)*x2 - 1"


def test_arithmetic_identities():
    rng = XorShift64Star(47)
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for _ in range(60):
            a = random_sparse(rng, ring, 2)
            b = random_sparse(rng, ring, 2)
            c = random_sparse(rng, ring, 2)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a - a == SparsePoly.zero(ring, 2)
            assert (a * b) * c == a * (b * c)
    p = random_sparse(rng, Ring.Z, 2, max_exp=1)
    assert p**3 == p * p * p
    assert p**0 == SparsePoly.constant(Ring.Z, 2, 1)


def test_substitute_matches_evaluation():
    rng = XorShift64Star(53)
    for _ in range(40):
        p = random_sparse(rng, Ring.Z, 2)
        u = random_sparse(rng, Ring.Z, 2, max_exp=1)
        v = random_sparse(rng, Ring.Z, 2, max_exp=1)
        composed = p.substitute([u, v])
        for pt in [(0, 0), (1, 2), (-1, 3), (2, -2)]:
            assert composed.evaluate(pt) == p.evaluate((u.evaluate(pt), v.evaluate(pt)))


def test_arity_cap():
    with pytest.raises(ValueError):
        MultilinearPoly(Ring.Z, 63, {})
    with pytest.raises(ValueError):
        SparsePoly(Ring.Z, 0, {})
