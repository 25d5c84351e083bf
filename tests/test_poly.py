import ast
import inspect
import pickle
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyassoc import (
    GaussianInt,
    MultilinearPoly,
    Ring,
    SparsePoly,
    XorShift64Star,
    from_size_coeffs,
    is_associative,
    parse_poly,
)
from polyassoc import oracle, poly

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
            assert p.to_multilinear() == p


def test_evaluate():
    p = SparsePoly(Ring.Z, 2, {(1, 1): 1})
    assert p.evaluate((2, 3)) == 6
    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z)
    assert cubic.evaluate((0, 0, 0)) == 0
    assert cubic.evaluate((1, 1, 1)) == 21
    with pytest.raises(ValueError):
        p.evaluate((1,))


def test_gaussian_points_are_read_without_coercion(monkeypatch):
    p = parse_poly("(1+2*i)*x1^3*x2 + x2^2 - i*x1", 2, Ring.ZI)
    points = [(GaussianInt(2, -1), GaussianInt(0, 3)), (GaussianInt(-1, 1), 4)]
    expected = [p.evaluate(point) for point in points]
    x, y, i = GaussianInt(2, -1), GaussianInt(0, 3), GaussianInt(0, 1)
    assert expected[0] == (1 + 2 * i) * x**3 * y + y**2 - i * x

    def no_coercion(ring, x):
        raise AssertionError(f"coerced {x!r}")

    monkeypatch.setattr(Ring, "coerce", no_coercion)
    assert [p.evaluate(point) for point in points] == expected


def test_evaluate_ring_mismatch():
    foreign = {
        Ring.Z: (Fraction(1, 2), GaussianInt(0, 1), 1.5, "1"),
        Ring.Q: (GaussianInt(1, 1), GaussianInt(2), 1.5, "1"),
        Ring.ZI: (Fraction(1, 2), Fraction(2), 1.5, "1"),
    }
    for ring, values in foreign.items():
        for value in values:
            p = SparsePoly(ring, 2, {(1, 1): 1, (0, 2): 3})
            for _ in range(2):  # before and after the plan is built
                with pytest.raises(TypeError):
                    p.evaluate((value, 1))
                with pytest.raises(TypeError):
                    p.evaluate((1, value))
                assert p.evaluate((2, 1)) == 5


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
        # symmetric iff the coefficient depends only on the mask's popcount
        by_size = {}
        for mask in range(1 << 3):
            by_size.setdefault(mask.bit_count(), set()).add(ml.coeff(mask))
        assert ml.is_symmetric() == all(len(values) == 1 for values in by_size.values())


def test_elementary_symmetric():
    def e(n, k):
        return from_size_coeffs(Ring.Z, n, [int(j == k) for j in range(n + 1)])

    assert e(3, 2) == parse_poly("x1*x2 + x2*x3 + x3*x1", 3, Ring.Z)
    assert e(3, 0) == SparsePoly.constant(Ring.Z, 3, 1)
    assert e(2, 2) == parse_poly("x1*x2", 2, Ring.Z)


def test_grid_equality_iff_coefficient_equality():
    rng = XorShift64Star(43)
    for _ in range(100):
        a = random_multilinear(rng, Ring.Z, 3, width=2)
        b = random_multilinear(rng, Ring.Z, 3, width=2)
        grids_agree = all(a.evaluate(pt) == b.evaluate(pt) for pt in product((0, 1), repeat=3))
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


def ring_point(rng, ring, size):
    """Coordinates of the ring's own element type: over Q with denominators 1-4."""
    if ring is Ring.Q:
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(size)]
    return [ring.coerce(rng.element(ring, 3)) for _ in range(size)]


def one_term(rng, ring, nvars):
    """c * x^e with c neither 0 nor 1 (over Q then divided by 2..5) and each
    exponent in 0..3: a constant, a variable, a monomial or a power of one."""
    c = rng.element(ring, 4)
    while not c or c == 1:
        c = rng.element(ring, 4)
    if ring is Ring.Q:
        c = Fraction(c, rng.randint(2, 5))
    return SparsePoly(ring, nvars, {tuple(rng.randint(0, 3) for _ in range(nvars)): c})


def test_operands_of_another_ring_or_arity_are_refused():
    p = SparsePoly(Ring.Z, 2, {(1, 1): 1})
    x = SparsePoly.variable(Ring.Z, 1, 1)
    for other, message in ((SparsePoly(Ring.Q, 2, {(1, 0): 1}), "ring mismatch"),
                           (SparsePoly(Ring.Z, 3, {(1, 0, 0): 1}), "arity mismatch")):
        for op in (p.__add__, p.__mul__, p.__sub__):
            with pytest.raises(ValueError, match=message):
                op(other)
    with pytest.raises(ValueError, match="expected 2 substitution values"):
        p.substitute([x])
    for stranger in (SparsePoly.variable(Ring.Q, 1, 1), SparsePoly.variable(Ring.Z, 2, 1)):
        for values in ([x, stranger], [stranger, x]):
            with pytest.raises(ValueError, match="must share ring and arity"):
                p.substitute(values)


def test_substitute_matches_evaluation():
    # one-term values are folded into each term's monomial, the others
    # multiplied; p's exponents up to 3 take powers of both kinds
    rng = XorShift64Star(53)
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for max_exp in (1, 2, 3):
            for _ in range(15):
                p = random_sparse(rng, ring, 2, max_exp=3)
                u = random_sparse(rng, ring, 2, max_exp=max_exp, terms=3)
                v = random_sparse(rng, ring, 2, max_exp=max_exp, terms=3)
                if ring is Ring.Q:
                    u = u * Fraction(1, rng.randint(1, 5))
                w, w2 = one_term(rng, ring, 2), one_term(rng, ring, 2)
                for values in ([u, v], [w, v], [u, w], [w, w2]):
                    composed = p.substitute(values)
                    for _ in range(4):
                        pt = ring_point(rng, ring, 2)
                        expected = p.evaluate([value.evaluate(pt) for value in values])
                        assert composed.evaluate(pt) == expected


@pytest.mark.parametrize("base", [SparsePoly(Ring.Z, 2, {(1, 0): 1, (0, 1): 2}), GaussianInt(1, 2)])
def test_pow_multiplies_popcount_plus_bit_length_minus_one_times(monkeypatch, base):
    """Square-and-multiply stops squaring after the top bit of k."""
    cls = type(base)
    mul = cls.__mul__
    one = base**0
    calls = []

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    for k in range(10):
        calls.clear()
        value = base**k
        assert len(calls) == (k.bit_count() + k.bit_length() - 1 if k else 0)
        expected = one
        for _ in range(k):
            expected = mul(expected, base)
        assert value == expected


def test_substitute_builds_each_power_from_the_one_below(monkeypatch):
    # p = x1 + x1^2 + ... + x1^9 + x2^5: the powers 2..9 of u and 2..5 of v
    # (v^4 too, which no term reads, as v^5 is built from it) take one product
    # of packed tables each, 8 + 4, and no SparsePoly product; each of the ten
    # terms has one factor of two or more terms, so its products go straight
    # into the result, not through a product of term dicts; exponent-1 terms
    # use the value as it is
    p = SparsePoly(Ring.Z, 2, {**{(e, 0): 1 for e in range(1, 10)}, (0, 5): 1})
    u = parse_poly("x1 + x2 + 1", 2, Ring.Z)
    v = parse_poly("x1 - 2", 2, Ring.Z)
    mul, mul_terms = SparsePoly.__mul__, poly._mul_terms
    calls, term_products = [], []

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    def counted_terms(a, b):
        term_products.append(b)
        return mul_terms(a, b)

    monkeypatch.setattr(SparsePoly, "__mul__", counted)
    monkeypatch.setattr(poly, "_mul_terms", counted_terms)
    composed = p.substitute([u, v])
    assert not calls
    assert len(term_products) == 8 + 4
    monkeypatch.setattr(SparsePoly, "__mul__", mul)
    assert composed == sum((u**e for e in range(1, 10)), v**5)


def test_arity_cap():
    # masks are Python ints, so only an arity below 1 is refused
    assert MultilinearPoly(Ring.Z, 63).nvars == 63
    assert SparsePoly.variable(Ring.Z, 63, 1).to_multilinear().coeffs == {1: 1}
    assert SparsePoly.variable(Ring.Z, 63, 63).to_multilinear().coeffs == {1 << 62: 1}
    with pytest.raises(ValueError):
        MultilinearPoly(Ring.Z, 0)
    with pytest.raises(ValueError):
        SparsePoly(Ring.Z, 0, {})


RINGS = (Ring.Z, Ring.Q, Ring.ZI)
SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def ring_values(draw, ring):
    """A ring element, or a plain int or bool the ring coerces."""
    small = st.integers(-5, 5)
    exact = {
        Ring.Z: small,
        Ring.Q: st.builds(Fraction, small, st.integers(1, 12)),
        Ring.ZI: st.builds(GaussianInt, small, small),
    }[ring]
    return draw(st.one_of(exact, small, st.booleans()))


@st.composite
def sparse_polys(draw, ring=None, nvars=None, top=None):
    """A polynomial over Z, Q or Z[i] in 1-4 variables, exponents 0-1 or 0-3."""
    ring = ring or draw(st.sampled_from(RINGS))
    nvars = nvars or draw(st.integers(1, 4))
    top = top or draw(st.sampled_from((1, 3)))
    exps = st.tuples(*[st.integers(0, top)] * nvars)
    terms = draw(st.dictionaries(exps, ring_values(ring), max_size=6))
    return SparsePoly(ring, nvars, terms)


def reference_value(p, point):
    """sum(c * prod(x**e)), a power for every factor, exponent 0 included."""
    xs = [p.ring.coerce(v) for v in point]
    return sum(
        (c * prod((x**e for x, e in zip(xs, exps)), start=p.ring.one)
         for exps, c in p.terms.items()),
        p.ring.zero,
    )


@SETTINGS
@given(st.data())
def test_evaluate_matches_reference(data):
    p = data.draw(sparse_polys())
    ml = p.to_multilinear()
    for _ in range(2):  # the second call reuses the cached factor list
        point = data.draw(st.lists(ring_values(p.ring), min_size=p.nvars, max_size=p.nvars))
        expected = reference_value(p, point)
        for value in (p.evaluate(point), p.evaluate(point)):
            assert value == expected
            assert type(value) is type(p.ring.zero)
        if ml is not None:
            value = ml.evaluate(point)
            assert value == expected and type(value) is type(p.ring.zero)


def assert_validated(result):
    """The result equals a freshly validated copy and holds no zero coefficient."""
    assert result == SparsePoly(result.ring, result.nvars, result.terms)
    zero_type = type(result.ring.zero)
    for exps, c in result.terms.items():
        assert c and type(c) is zero_type
        assert type(exps) is tuple and len(exps) == result.nvars


@SETTINGS
@given(st.data())
def test_arithmetic_results_are_clean(data):
    p = data.draw(sparse_polys())
    ring, n = p.ring, p.nvars
    q = data.draw(sparse_polys(ring, n))
    m = data.draw(st.integers(1, 3))
    args = [data.draw(sparse_polys(ring, m, top=1)) for _ in range(n)]
    results = [p + q, p - q, -p, p * q, p**2, p**0, p * 0, p + (-p), p.substitute(args)]
    for result in results:
        assert_validated(result)
    assert p + (-p) == p * 0 == SparsePoly.zero(ring, n)
    assert p**0 == SparsePoly.constant(ring, n, 1)


def literal_substitution(p, values):
    """The sum over p's terms of c * prod(values[j] ** e_j), each power a
    run of SparsePoly products and the sum built by +."""
    ring, target = p.ring, values[0].nvars
    total = SparsePoly.zero(ring, target)
    for exps, c in p.terms.items():
        term = SparsePoly.constant(ring, target, c)
        for value, e in zip(values, exps):
            for _ in range(e):
                term = term * value
        total = total + term
    return total


@st.composite
def substitutions(draw):
    """p (exponents up to 6) and one value per variable: one term, two or
    three terms, zero, or the negative of an earlier value, so sums cancel;
    p may gain a term in every variable, whose factors are then all multi-term
    when the values are, and may read one variable only in a lone power 4..6,
    so that its value's lower powers are built but read by no term."""
    ring = draw(st.sampled_from(RINGS))
    nvars, target = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    p = draw(sparse_polys(ring, nvars, top=6))
    if draw(st.booleans()):
        full = tuple(draw(st.integers(1, 3)) for _ in range(nvars))
        p = p + SparsePoly(ring, nvars, {full: draw(ring_values(ring).filter(bool))})
    if draw(st.booleans()):
        j, e = draw(st.integers(0, nvars - 1)), draw(st.integers(4, 6))
        terms = {exps: c for exps, c in p.terms.items() if not exps[j]}
        terms[tuple(e if i == j else 0 for i in range(nvars))] = draw(ring_values(ring).filter(bool))
        p = SparsePoly(ring, nvars, terms)
    top = draw(st.sampled_from((1, 3)))
    exps = st.tuples(*[st.integers(0, top)] * target)
    values = []
    for _ in range(nvars):
        kind = draw(st.sampled_from(("one", "multi", "zero", "negated")))
        if kind == "zero":
            values.append(SparsePoly.zero(ring, target))
        elif kind == "negated" and values:
            values.append(-draw(st.sampled_from(values)))
        else:
            size = 1 if kind == "one" else min(draw(st.integers(2, 3)), (top + 1) ** target)
            terms = draw(st.dictionaries(
                exps, ring_values(ring).filter(bool), min_size=size, max_size=size
            ))
            values.append(SparsePoly(ring, target, terms))
    return p, values


@SETTINGS
@given(substitutions())
def test_substitute_matches_its_literal_definition(case):
    p, values = case
    got = p.substitute(values)
    assert_validated(got)
    assert got == literal_substitution(p, values)


def test_multilinear_view_equals_and_hashes_like_the_sparse_polynomial():
    for p in (
        parse_poly(CUBIC_EXAMPLE, 3, Ring.Z),
        parse_poly("(1 - i)*x1*x2 - 2", 2, Ring.ZI),
        parse_poly("x1/2 + 1/3", 2, Ring.Q),
        SparsePoly.zero(Ring.Q, 2),
    ):
        view = p.to_multilinear()
        assert p.width == 1 and view.coeffs is p.coeffs  # the view wraps the packed dict
        fresh = MultilinearPoly(p.ring, p.nvars, view.coeffs)
        for ml in (view, fresh):
            assert isinstance(ml, SparsePoly)
            assert ml == p and p == ml and hash(ml) == hash(p)
            assert ml.to_multilinear() is ml
            assert bool(ml) == bool(p) and ml.degree() == p.degree()
            assert ml.render() == p.render()
        assert len({p, view, fresh}) == 1
        assert repr(fresh) == f"MultilinearPoly({p.ring.name}, {p.nvars}, {p.render()!r})"
        assert repr(p) == f"SparsePoly({p.ring.name}, {p.nvars}, {p.render()!r})"
    assert MultilinearPoly(Ring.Z, 2, {3: 1}) != SparsePoly(Ring.Z, 2, {(1, 1): 2})
    assert MultilinearPoly(Ring.Z, 2, {3: 1}) != MultilinearPoly(Ring.Q, 2, {3: 1})


def test_multilinear_pickle_keeps_the_class():
    ml = MultilinearPoly(Ring.ZI, 3, {0: GaussianInt(1, -2), 0b101: 3})
    assert ml.evaluate([1, 2, 3]) == GaussianInt(10, -2)  # leaves a cached plan
    back = pickle.loads(pickle.dumps(ml))
    assert type(back) is MultilinearPoly
    assert back.coeffs == ml.coeffs and back == ml
    assert back.evaluate([1, 2, 3]) == GaussianInt(10, -2)


def test_deciding_census_candidates_builds_no_exponent_tuples(monkeypatch):
    def unbuilt(self):
        raise AssertionError("exponent tuples built")

    monkeypatch.setattr(MultilinearPoly, "terms", property(unbuilt))
    for ring, n in ((Ring.Z, 3), (Ring.ZI, 2)):
        domain = ring.box(1)
        checked, _, survivors = oracle._enumerate_chunk((ring, n, 1, domain, False))
        assert checked == len(domain) ** (1 << n) and survivors


@pytest.mark.parametrize("text, ring, n", [
    ("x1*x2 + 2*x1 + 2*x2 + 2", Ring.Z, 2),
    ("x1 + x2 + x3 + (1+i)", Ring.ZI, 3),
    ("x1*x2^3 + x2*x3/2 + x1^2", Ring.Q, 3),
    ("(x1 + x2 + x3 + x4)^3 + x1", Ring.Z, 4),
])
def test_decisions_and_degrees_read_only_the_packed_table(monkeypatch, text, ring, n):
    p = parse_poly(text, n, ring)
    tuples, verdict = p.terms, is_associative(p)

    def unbuilt(self):
        raise AssertionError("exponent tuples built")

    monkeypatch.setattr(SparsePoly, "terms", property(unbuilt))
    assert is_associative(p) == verdict
    assert p.degree() == max(sum(e) for e in tuples)
    degrees = [max(e[j] for e in tuples) for j in range(n)]
    assert [p.degree_in_var(j + 1) for j in range(n)] == degrees
    ml = p.to_multilinear()
    assert p.is_multilinear == (ml is not None) == all(x <= 1 for e in tuples for x in e)
    if ml is not None:
        assert is_associative(ml) == verdict and ml.degree() == p.degree()
    point = [ring.coerce(j + 2) for j in range(n)]
    want = sum(c * prod(x**e for x, e in zip(point, exps)) for exps, c in tuples.items())
    assert p.evaluate(point) == want  # through ``plan``


def test_multilinear_body_defines_only_its_own_index():
    """MultilinearPoly adds the mask table and nothing that SparsePoly already does."""
    assert MultilinearPoly.__bases__ == (SparsePoly,)
    tree = ast.parse(inspect.getsource(poly))
    (body,) = [
        node.body for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "MultilinearPoly"
    ]
    defined = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets)
    allowed = {
        "__slots__", "__init__", "_trusted", "terms", "n", "__reduce__", "coeff",
        "is_symmetric", "to_multilinear", "evaluate", "__eq__", "__hash__",
    }
    assert defined <= allowed, sorted(defined - allowed)


# Exponents on both sides of the field-width boundaries 2^w - 1 | 2^w, w = 1, 2, 3
BOUNDARY = (0, 1, 2, 3, 4, 7, 8)


@st.composite
def packed_polys(draw, ring, nvars, max_terms=4):
    """A polynomial and its exponent-tuple table, packed at its least width or
    at up to two bits wider, so operands of one test differ in width."""
    exps = st.tuples(*[st.sampled_from(BOUNDARY)] * nvars)
    table = draw(st.dictionaries(exps, ring_values(ring), max_size=max_terms))
    p = SparsePoly(ring, nvars, table)
    width = p.width + draw(st.integers(0, 2))
    wide = SparsePoly._trusted(ring, nvars, p._at(width), p.top, width)
    return wide, {e: ring.coerce(c) for e, c in table.items() if c}


def tuple_sum(ring, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, ring.zero) + c
    return {e: c for e, c in out.items() if c}


def tuple_product(ring, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, ring.zero) + c1 * c2
    return {e: c for e, c in out.items() if c}


def tuple_substitution(ring, target, p, values):
    total = {}
    for exps, c in p.items():
        term = {(0,) * target: c}
        for value, e in zip(values, exps):
            for _ in range(e):
                term = tuple_product(ring, term, value)
        total = tuple_sum(ring, total, term)
    return total


def assert_matches(got, ring, nvars, want):
    """``got`` holds the tuple table ``want`` in every view the package reads,
    under an exponent bound that its width holds."""
    assert got.terms == want
    assert max((x for e in want for x in e), default=0) <= got.top < 1 << got.width
    rebuilt = SparsePoly(ring, nvars, want)  # at the least width
    assert got == rebuilt and rebuilt == got and hash(got) == hash(rebuilt)
    assert got.render() == rebuilt.render()
    assert got.degree() == max((sum(e) for e in want), default=0)
    for j in range(1, nvars + 1):
        assert got.degree_in_var(j) == max((e[j - 1] for e in want), default=0)
    ml = got.to_multilinear()
    assert (ml is None) == any(x > 1 for e in want for x in e)
    if ml is not None:
        masks = {sum(1 << j for j, x in enumerate(e) if x): c for e, c in want.items()}
        assert ml.coeffs == masks and ml == got and hash(ml) == hash(got)


@SETTINGS
@given(st.data())
def test_packed_arithmetic_matches_a_tuple_reference(data):
    ring, n = data.draw(st.sampled_from(RINGS)), data.draw(st.integers(1, 3))
    (p, pt), (q, qt) = data.draw(packed_polys(ring, n)), data.draw(packed_polys(ring, n))
    minus = {e: -c for e, c in qt.items()}
    assert_matches(p + q, ring, n, tuple_sum(ring, pt, qt))
    assert_matches(p - q, ring, n, tuple_sum(ring, pt, minus))
    assert_matches(p * q, ring, n, tuple_product(ring, pt, qt))
    k = data.draw(st.integers(0, 3))
    power = {(0,) * n: ring.one}
    for _ in range(k):
        power = tuple_product(ring, power, pt)
    assert_matches(p**k, ring, n, power)
    assert_matches(p, ring, n, pt)
    assert (p == q) == (pt == qt)
    target = data.draw(st.integers(1, 2))
    (outer, table), *values = [data.draw(packed_polys(ring, m, 2)) for m in [n] + [target] * n]
    got = outer.substitute([v for v, _ in values])
    want = tuple_substitution(ring, target, table, [t for _, t in values])
    assert_matches(got, ring, target, want)
    for poly in (p, got, got.to_multilinear()):
        if poly is not None:
            back = pickle.loads(pickle.dumps(poly))
            assert type(back) is type(poly) and back == poly and hash(back) == hash(poly)


def test_substitution_bounds_values_that_share_a_variable():
    for ring in RINGS:
        # x1^128 passes the 7 bits that p's bound times one value's bound, 64, needs
        x = SparsePoly(ring, 1, {(8,): 2})
        got = SparsePoly(ring, 2, {(8, 8): 1}).substitute([x, x])
        assert got.terms == {(128,): ring.coerce(2**16)} and got.width == 8
        # x1 packed at width 3 holds the sum of the bounds, and the result keeps it
        x = SparsePoly._trusted(ring, 1, {1: ring.one}, 1, 3)
        got = SparsePoly(ring, 2, {(1, 1): 1}).substitute([x, x])
        assert got.terms == {(2,): ring.one} and got.top == 2 and got.width == 3


def _value_by_operators(p: SparsePoly, point):
    """p at ``point`` by the ring's element operators, term by term."""
    total = p.ring.zero
    for exps, c in p.terms.items():
        for x, e in zip(point, exps):
            c = c * x**e
        total = total + c
    return total


@st.composite
def symmetric_points(draw):
    """A symmetric multilinear p = sum c_k e_k over Z, Q or Z[i] at n = 1..7,
    dense (every c_k nonzero), sparse (some c_k zero) or one-term (one c_k),
    with a point of n coordinates."""
    ring = draw(st.sampled_from([Ring.Z, Ring.Q, Ring.ZI]))
    n = draw(st.integers(1, 7))
    big = st.integers(-(2**70), 2**70)
    if ring is Ring.Q:
        element = st.builds(Fraction, big, st.integers(1, 2**40))
    elif ring is Ring.ZI:
        element = st.builds(GaussianInt, big, big)
    else:
        element = big
    kind = draw(st.sampled_from(["dense", "sparse", "one-term"]))
    sizes = [draw(element) for _ in range(n + 1)]
    if kind == "sparse":
        sizes = [c if draw(st.booleans()) else 0 for c in sizes]
    elif kind == "one-term":
        k = draw(st.integers(0, n))
        sizes = [c if j == k else 0 for j, c in enumerate(sizes)]
    return from_size_coeffs(ring, n, sizes), [draw(element) for _ in range(n)]


@settings(max_examples=300, deadline=None, database=None)
@given(symmetric_points())
def test_both_evaluation_orders_equal_evaluate(case):
    p, point = case
    ring = p.ring
    indices = [[j for j in range(p.nvars) if mask >> j & 1] for mask in p.coeffs]
    term_kernel, term_plan = ring.plan(p.coeffs.values(), indices)
    sizes = p._size_coeffs()
    assert sizes is not None
    symmetric_kernel, symmetric_plan = ring.symmetric_plan(sizes)
    xs = ring.natives(point)
    expected = _value_by_operators(p, point)
    assert p.evaluate(point) == expected
    assert ring.element(term_kernel(term_plan, xs)) == expected
    assert ring.element(symmetric_kernel(symmetric_plan, xs)) == expected


def test_plan_takes_the_symmetric_order_only_where_the_counts_favour_it(monkeypatch):
    ops = Ring.Z._ops
    dense = [from_size_coeffs(Ring.Z, n, [1] + [2] * n) for n in range(1, 9)]
    assert [p.plan()[0] is ops.symmetric_kernel for p in dense] == [False] * 3 + [True] * 5
    # counted out before symmetry is tested: sum |T| <= n * (degree + 1)
    monkeypatch.setattr(SparsePoly, "_size_coeffs", lambda self: pytest.fail("symmetry tested"))
    small = [
        from_size_coeffs(Ring.Z, 3, [1, 2, 2, 2]),  # a census survivor's size
        parse_poly("x1 + x2 + x3 + x4 + x5 + x6 + 1", 6, Ring.Z),
        parse_poly("3*x1*x2*x3*x4*x5*x6*x7*x8", 8, Ring.Z),
        parse_poly("x1^2*x2^2*x3^2*x4^2*x5^2 + x1*x2*x3*x4*x5 + 1", 5, Ring.Z),
    ]
    assert all(p.plan()[0] is ops.kernel for p in small)
    monkeypatch.undo()
    skewed = from_size_coeffs(Ring.Z, 5, [1] + [2] * 5) + parse_poly("x1*x2", 5, Ring.Z)
    assert skewed.plan()[0] is ops.kernel  # counted in, then not symmetric


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 12), st.lists(st.integers(0, 2**12 - 1), max_size=40))
def test_width_one_degree_is_the_bit_plane_sum(n, masks):
    ml = MultilinearPoly(Ring.Z, n, {m & (1 << n) - 1: 1 for m in masks})
    # the same table packed at width 3 takes the bit-plane sum
    wide = SparsePoly._trusted(Ring.Z, n, ml._at(3), 1, 3)
    assert ml.degree() == wide.degree() == max((sum(e) for e in ml.terms), default=0)
