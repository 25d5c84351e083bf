from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyassoc import Frac, GaussianInt, Ring, ShiftedProduct, SparsePoly, XorShift64Star, parse_poly
from polyassoc import census
from polyassoc.rings import integer_nth_root

# Every member: a new ring is covered by these tests without new test code.
RINGS = list(Ring)
over_every_ring = pytest.mark.parametrize("ring", RINGS, ids=lambda ring: ring.value)


def test_exact_div_integers():
    assert Ring.Z.exact_div(6, 3) == 2
    assert Ring.Z.exact_div(1, 2) is None
    assert Ring.Z.exact_div(-6, 4) is None
    assert Ring.Z.exact_div(6, -3) == -2


def test_exact_div_gaussian():
    q = Ring.ZI.exact_div(GaussianInt(5), GaussianInt(2, 1))
    assert q == GaussianInt(2, -1)
    # multiply back to confirm
    assert q * GaussianInt(2, 1) == GaussianInt(5)
    assert Ring.ZI.exact_div(GaussianInt(1), GaussianInt(2)) is None


def test_exact_div_zero_divisor_errors():
    for ring in RINGS:
        with pytest.raises(ZeroDivisionError):
            ring.exact_div(ring.one, ring.zero)


def test_exact_div_multiplies_back():
    rng = XorShift64Star(7)
    for ring in RINGS:
        for _ in range(200):
            a = rng.element(ring, 30)
            b = rng.element(ring, 30)
            if not b:
                continue
            q = ring.exact_div(a, b)
            if q is not None:
                assert b * q == a


def test_roots_of_unity():
    assert set(Ring.Z.roots_of_unity(2)) == {1, -1}
    assert set(Ring.Z.roots_of_unity(3)) == {1}
    assert set(Ring.ZI.roots_of_unity(4)) == {
        GaussianInt(1),
        GaussianInt(0, 1),
        GaussianInt(-1),
        GaussianInt(0, -1),
    }
    assert set(Ring.ZI.roots_of_unity(2)) == {GaussianInt(1), GaussianInt(-1)}
    assert set(Ring.Q.roots_of_unity(2)) == {Fraction(1), Fraction(-1)}


def test_roots_of_unity_match_direct_check():
    # brute force over every element with coordinates in [-2, 2]
    r = range(-2, 3)
    elements = {
        Ring.Z: list(r),
        Ring.Q: [Fraction(a, b) for a in r for b in r if b],
        Ring.ZI: [GaussianInt(re, im) for re in r for im in r],
    }
    for ring in RINGS:
        for m in range(1, 7):
            expected = {x for x in elements[ring] if x**m == ring.one}
            assert set(ring.roots_of_unity(m)) == expected


def test_ring_axioms_on_samples():
    rng = XorShift64Star(3)
    for ring in RINGS:
        for _ in range(100):
            a, b, c = (rng.element(ring, 25) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a * b == ring.zero:
                assert a == ring.zero or b == ring.zero


def test_gaussian_arithmetic_basics():
    i = GaussianInt(0, 1)
    assert i * i == -1
    assert i**4 == 1
    assert (GaussianInt(2, 1) * GaussianInt(2, -1)) == 5
    assert GaussianInt(3) == 3
    assert hash(GaussianInt(3)) == hash(3)
    assert GaussianInt(1, 2) + 1 == GaussianInt(2, 2)
    assert 2 - GaussianInt(1, 2) == GaussianInt(1, -2)
    assert str(GaussianInt(2, -1)) == "2-i"
    assert str(GaussianInt(0, 3)) == "3i"
    assert str(GaussianInt(-1, 0)) == "-1"


def test_gaussian_results_have_int_components():
    g = GaussianInt(2, -3)
    assert type(GaussianInt(True, False).re) is int
    for x in (True, False, 5, -2, GaussianInt(True, True), g):
        results = [g + x, x + g, g - x, x - g, g * x, x * g, -g, g.conjugate(), g**2]
        for r in results:
            assert type(r) is GaussianInt and type(r.re) is int and type(r.im) is int
    assert (True + g, g - True, True * g) == (GaussianInt(3, -3), GaussianInt(1, -3), g)


def _pair_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _assert_pair(g, pair):
    assert type(g) is GaussianInt and type(g.re) is int and type(g.im) is int
    assert (g.re, g.im) == pair


# hypothesis's integers() reach past 64 bits now and then; the second range
# always does
COMPONENTS = st.one_of(st.integers(), st.integers(-(2**200), 2**200))


@settings(max_examples=300, deadline=None, database=None)
@given(
    COMPONENTS, COMPONENTS, st.one_of(st.tuples(COMPONENTS, COMPONENTS), COMPONENTS, st.booleans())
)
def test_gaussian_operators_match_integer_pair_formulas(re, im, other):
    """Each operator against its formula on (re, im) pairs; commutativity and
    associativity alone would pass the split-complex product (ac+bd, ad+bc)."""
    g, a = GaussianInt(re, im), (re, im)
    if isinstance(other, tuple):
        x, b = GaussianInt(*other), other
    else:
        x, b = other, (int(other), 0)
    _assert_pair(g + x, (a[0] + b[0], a[1] + b[1]))
    _assert_pair(x + g, (a[0] + b[0], a[1] + b[1]))
    _assert_pair(g - x, (a[0] - b[0], a[1] - b[1]))
    _assert_pair(x - g, (b[0] - a[0], b[1] - a[1]))
    _assert_pair(g * x, _pair_mul(a, b))
    _assert_pair(x * g, _pair_mul(a, b))
    _assert_pair(-g, (-a[0], -a[1]))
    _assert_pair(g.conjugate(), (a[0], -a[1]))
    power = (1, 0)
    for k in range(6):
        _assert_pair(g**k, power)
        power = _pair_mul(power, a)


@settings(max_examples=200, deadline=None, database=None)
@given(COMPONENTS, COMPONENTS, st.integers(0, 12))
def test_gaussian_power_is_repeated_multiplication(re, im, k):
    g, expected = GaussianInt(re, im), GaussianInt(1)
    for _ in range(k):
        expected = expected * g
    _assert_pair(g**k, (expected.re, expected.im))
    assert g**0 == GaussianInt(1)  # the one every power starts from is unchanged


@over_every_ring
def test_frac_normal_form_and_hash(ring):
    # one pair per value: scaling numerator and denominator by a common
    # factor or a unit changes neither the pair nor the hash
    rng = XorShift64Star(5)
    units = ring.roots_of_unity(4)
    for _ in range(200):
        a, b, c = rng.elements(ring, 20, 3)
        if not b or not c:
            continue
        f = Frac(ring, a, b)
        assert f.num * b == a * f.den
        again = Frac(ring, f.num, f.den)
        assert (again.num, again.den) == (f.num, f.den)
        for d in (c, *units):
            g = Frac(ring, a * d, b * d)
            assert (g.num, g.den) == (f.num, f.den) and g == f and hash(g) == hash(f)
        if f.den == ring.one:
            assert f == f.num and hash(f) == hash(f.num)


@over_every_ring
def test_rendered_elements_reparse(ring):
    rng = XorShift64Star(11)
    for _ in range(200):
        a, b = rng.elements(ring, 30, 2)
        for c in (a, ring.exact_div(a, b) if b else None):
            if c is None:
                continue
            p = SparsePoly.constant(ring, 2, c) + SparsePoly.variable(ring, 2, 1) * c
            assert parse_poly(p.render(), 2, ring) == p


def test_frac_normalization():
    f = Frac(Ring.Z, 2, -4)
    assert (f.num, f.den) == (-1, 2)
    assert Frac(Ring.Z, 6, 3) == Frac(Ring.Z, 2, 1) == 2
    assert Frac(Ring.Q, Fraction(1, 2), Fraction(3, 4)) == Frac(Ring.Q, Fraction(2, 3))
    # same value, different raw representations
    assert Frac(Ring.ZI, GaussianInt(1, 1), GaussianInt(0, 2)) == Frac(
        Ring.ZI, GaussianInt(1, -1), GaussianInt(2)
    )
    g = Frac(Ring.ZI, GaussianInt(1), GaussianInt(1, 1))
    assert g.den.re > 0 and g.den.im >= 0


def test_canonical_associate():
    # a Gaussian denominator is the associate in the quadrant re > 0, im >= 0
    for den, canonical in [
        (GaussianInt(-3), GaussianInt(3)),
        (GaussianInt(0, -2), GaussianInt(2)),
        (GaussianInt(-1, 2), GaussianInt(2, 1)),
    ]:
        assert Frac(Ring.ZI, 1, den).den == canonical
    # zero is its own associate; as a numerator it takes the denominator 1
    zero = Frac(Ring.ZI, 0, GaussianInt(0, 3))
    assert (zero.num, zero.den) == (GaussianInt(0), GaussianInt(1))


def test_frac_arithmetic():
    third = Frac(Ring.Z, 1, 3)
    assert -third == Frac(Ring.Z, -1, 3)
    assert str(third) == "1/3"
    assert str(Frac(Ring.Z, -1, 3)) == "-1/3"
    assert str(Frac(Ring.ZI, GaussianInt(1), GaussianInt(1, 1))) == "1/(1+i)"
    with pytest.raises(ZeroDivisionError):
        Frac(Ring.Z, 1, 0)


def test_frac_hash_agrees_with_eq():
    equal_pairs = [
        (Frac(Ring.Z, 2), 2),
        (Frac(Ring.Z, 6, 3), Fraction(2)),
        (Frac(Ring.Z, 0), 0),
        (Frac(Ring.Z, 2, -4), Frac(Ring.Z, -1, 2)),
        (Frac(Ring.Q, Fraction(1, 2)), Fraction(1, 2)),
        (Frac(Ring.Q, 3, 6), Frac(Ring.Q, Fraction(1, 2))),
        (Frac(Ring.ZI, GaussianInt(2)), GaussianInt(2)),
        (Frac(Ring.ZI, GaussianInt(2)), 2),
        (Frac(Ring.ZI, GaussianInt(0, 2), GaussianInt(0, 1)), GaussianInt(2)),
        (Frac(Ring.ZI, GaussianInt(1, 1), GaussianInt(0, 2)),
         Frac(Ring.ZI, GaussianInt(1, -1), GaussianInt(2))),
    ]
    for x, y in equal_pairs:
        assert x == y and y == x
        assert hash(x) == hash(y), (x, y)
    assert len({ShiftedProduct(1, 0), ShiftedProduct(1, Frac(Ring.Z, 0))}) == 1


def test_integer_nth_root():
    assert integer_nth_root(64, 3) == 4
    assert integer_nth_root(64, 2) == 8
    assert integer_nth_root(63, 2) is None
    assert integer_nth_root(-8, 3) == -2
    assert integer_nth_root(-4, 2) is None
    assert integer_nth_root(0, 5) == 0
    assert integer_nth_root(1, 7) == 1
    for x in range(2, 200):
        for k in (2, 3, 4):
            r = integer_nth_root(x, k)
            assert (r is not None) == any(m**k == x for m in range(x + 1))


def test_nth_roots_by_ring():
    assert Ring.Z.nth_roots(4, 2) == (2, -2)
    assert Ring.Z.nth_roots(-8, 3) == (-2,)
    assert Ring.Q.nth_roots(Fraction(8, 27), 3) == (Fraction(2, 3),)
    assert Ring.Q.nth_roots(Fraction(4), 2) == (Fraction(2), Fraction(-2))
    assert Ring.Q.nth_roots(Fraction(2), 2) == ()


def test_coerce_rejects_foreign_values():
    with pytest.raises(TypeError):
        Ring.Z.coerce(Fraction(1, 2))
    with pytest.raises(TypeError):
        Ring.Q.coerce(GaussianInt(0, 1))
    with pytest.raises(TypeError):
        Ring.ZI.coerce(1.5)
    assert Ring.Z.coerce(Fraction(4, 2)) == 2
    assert Ring.ZI.coerce(3) == GaussianInt(3)


def test_coerce_keeps_exact_elements_and_normalizes_the_rest():
    for ring, x in ((Ring.Z, 7), (Ring.Q, Fraction(2, 3)), (Ring.ZI, GaussianInt(1, 2))):
        assert ring.coerce(x) is x
        assert type(ring.zero) is type(ring.one) is type(x)
    assert type(Ring.Z.coerce(True)) is int and Ring.Z.coerce(True) == 1
    assert type(Ring.Q.coerce(False)) is Fraction
    three = Ring.Z.coerce(Fraction(3, 1))
    assert type(three) is int and three == 3
    assert type(Ring.Q.coerce(3)) is Fraction
    assert type(Ring.ZI.coerce(True)) is GaussianInt


def test_zero_and_one_are_stored_once():
    for ring in RINGS:
        assert ring.zero is ring.zero
        assert ring.one is ring.one
        assert (ring.zero, ring.one) == (ring.coerce(0), ring.coerce(1))


def _divmod_by_elements(a: GaussianInt, b: GaussianInt) -> tuple:
    """The Gaussian division by the element operators: t = a * conj(b) over
    n = norm(b), rounded componentwise with ties up."""
    n, t = b.norm, a * b.conjugate()
    q = GaussianInt((2 * t.re + n) // (2 * n), (2 * t.im + n) // (2 * n))
    return q, a - q * b


@settings(max_examples=300, deadline=None, database=None)
@given(COMPONENTS, COMPONENTS, COMPONENTS, COMPONENTS)
def test_gaussian_divmod_matches_the_element_formula(are, aim, bre, bim):
    a, b = GaussianInt(are, aim), GaussianInt(bre, bim)
    if not b:
        b = GaussianInt(1, bim)
    q, r = Ring.ZI._ops.divmod(a, b)
    expected = _divmod_by_elements(a, b)
    _assert_pair(q, (expected[0].re, expected[0].im))
    _assert_pair(r, (expected[1].re, expected[1].im))
    assert 2 * r.norm <= b.norm


def test_gaussian_divmod_rounds_ties_up_in_every_quadrant():
    # t / norm(b) lands halfway between two integers in one or both parts for
    # divisors of even norm; every sign of a's parts is swept
    ties = 0
    for b in (GaussianInt(2), GaussianInt(0, 2), GaussianInt(1, 1), GaussianInt(-1, 1),
              GaussianInt(2, 2), GaussianInt(3, 1), GaussianInt(-3, -1)):
        for are in range(-6, 7):
            for aim in range(-6, 7):
                a = GaussianInt(are, aim)
                t = a * b.conjugate()
                ties += (2 * t.re) % (2 * b.norm) == b.norm or (2 * t.im) % (2 * b.norm) == b.norm
                assert Ring.ZI._ops.divmod(a, b) == _divmod_by_elements(a, b)
    assert ties > 100


# the rings ``enumerate`` walks, and how each builds an element from two integers
WALKED = {Ring.Z: lambda re, im: re, Ring.ZI: GaussianInt}


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


@pytest.mark.parametrize("ring", WALKED, ids=lambda ring: ring.value)
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_residue_map_sends_no_small_nonzero_element_to_zero(ring, bound):
    c = 12 * bound * bound + 2 * bound
    modulus, image = ring.residue_map(c)
    assert census._residue_map(ring, bound)[0] == modulus
    assert modulus > 2 * c * c and modulus % 4 == 1 and _is_prime(modulus)
    if ring.imaginary_unit is not None:
        assert image(ring.imaginary_unit) ** 2 % modulus == modulus - 1
    # exhaustively: of the elements with coordinates at most c, only zero maps
    # to 0, so those with coordinates at most c/2 map one to one (over Z[i]
    # the (2c + 1)^2 elements with coordinates at most c outnumber the residues)
    assert [image(x) % modulus for x in ring.box(c)].count(0) == 1
    assert len({image(x) % modulus for x in ring.box(c // 2)}) == ring.box_size(c // 2)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(list(WALKED)), st.integers(0, 40), COMPONENTS, COMPONENTS,
       COMPONENTS, COMPONENTS)
def test_residue_map_sends_sums_and_products_to_sums_and_products(ring, c, a, b, d, e):
    modulus, image = ring.residue_map(c)
    x, y = WALKED[ring](a, b), WALKED[ring](d, e)
    assert (image(x + y) - image(x) - image(y)) % modulus == 0
    assert (image(x * y) - image(x) * image(y)) % modulus == 0
    assert (image(ring.one), image(ring.zero)) == (1, 0)
