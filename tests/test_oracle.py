import pytest

from polyassoc import (
    BudgetError,
    GaussianInt,
    MultilinearPoly,
    OracleConfig,
    Ring,
    SparsePoly,
    XorShift64Star,
    assoc_pointwise,
    associated_value,
    candidates_text,
    census_csv,
    compose_closed_form,
    compose_substitution,
    enumerate_associative,
    is_associative,
    parse_poly,
    polys_equal_oracle,
)

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"


def test_xorshift_pinned_sequence():
    rng = XorShift64Star(1)
    assert [rng.next_u64() for _ in range(4)] == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
        5599127315341312413,
    ]


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


def test_polys_equal_oracle_grid():
    cfg = OracleConfig(mode="grid")
    cubic = parse_poly(CUBIC_EXAMPLE, 3, Ring.Z).to_multilinear()
    closed = compose_closed_form(cubic, 1).to_sparse()
    expanded = compose_substitution(cubic.to_sparse(), 1)
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
    cfg = OracleConfig(mode="random", samples=64, seed=9)
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


def test_assoc_pointwise():
    cfg = OracleConfig(mode="grid")
    assert assoc_pointwise(parse_poly(CUBIC_EXAMPLE, 3, Ring.Z), cfg)
    assert not assoc_pointwise(parse_poly("2*x1*x2 + x1", 2, Ring.Z), cfg)
    assert assoc_pointwise(SparsePoly.constant(Ring.Z, 3, 7), cfg)
    assert not assoc_pointwise(SparsePoly(Ring.Z, 2, {(2, 0): 1}), cfg)
    assert assoc_pointwise(parse_poly("x1 - x2 + x3", 3, Ring.Z), cfg)


def test_grid_guard():
    p = SparsePoly(Ring.Z, 2, {(40, 40): 1, (1, 0): 1})
    with pytest.raises(BudgetError):
        assoc_pointwise(p, OracleConfig(mode="grid"))
    # random mode dodges the guard and still rejects
    assert not assoc_pointwise(p, OracleConfig(mode="random", samples=50))
    big = SparsePoly(Ring.Z, 2, {(2000, 2000): 1})
    with pytest.raises(BudgetError):
        polys_equal_oracle(big, big, OracleConfig(mode="grid"))
    # multilinear: each of the nine 2^19-point grids fits, their sum does not
    one_term = SparsePoly(Ring.Z, 10, {(1,) * 10: 1})
    with pytest.raises(BudgetError) as err:
        assoc_pointwise(one_term, OracleConfig(mode="grid"))
    assert err.value.required == 9 * 2**19
    assert assoc_pointwise(one_term, OracleConfig(mode="random", samples=50))


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(mode="exhaustive")
    with pytest.raises(ValueError):
        OracleConfig(samples=0)
    with pytest.raises(ValueError):
        OracleConfig(value_range=0)


def test_oracle_agrees_with_symbolic_on_random_inputs():
    rng = XorShift64Star(113)
    cfg = OracleConfig(mode="random", samples=40, seed=17)
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
            try:
                assert assoc_pointwise(p, OracleConfig(mode="grid")) == symbolic
            except BudgetError:
                pass


def test_enumerate_binary_box():
    result = enumerate_associative(2, Ring.Z, 2, cross_check=True)
    assert result.total == 625
    assert result.checked == 625
    assert result.bulk_rejected == 0
    assert result.oracle_mismatches == 0
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
    result = enumerate_associative(3, Ring.Z, 1, cross_check=True)
    assert result.total == 6561
    assert result.oracle_mismatches == 0
    assert len(result.survivors) == 13
    twisted = [row for row in result.census if row.type_tag == "twisted-sum"]
    assert twisted == [type(twisted[0])("twisted-sum", "omega=-1", 1)]
    alt = parse_poly("x1 - x2 + x3", 3, Ring.Z)
    assert any(ml.to_sparse() == alt for ml, _ in result.survivors)


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


def test_enumerate_budget_and_argument_errors():
    with pytest.raises(BudgetError) as err:
        enumerate_associative(3, Ring.Z, 3, budget=1000)
    assert err.value.required == 7**8
    assert str(7**8) in str(err.value)
    with pytest.raises(ValueError):
        enumerate_associative(3, Ring.Q, 1)
    with pytest.raises(ValueError):
        enumerate_associative(3, Ring.Z, 1, prune=True, cross_check=True)
    with pytest.raises(ValueError):
        enumerate_associative(1, Ring.Z, 1)


def test_enumerate_jobs_deterministic():
    one = enumerate_associative(2, Ring.Z, 2)
    many = enumerate_associative(2, Ring.Z, 2, jobs=3)
    assert [ml for ml, _ in one.survivors] == [ml for ml, _ in many.survivors]
    assert one.census == many.census
    assert census_csv(one) == census_csv(many)


def test_enumerate_pool_capped_at_cpu_count(monkeypatch):
    import multiprocessing
    import os

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
    one = enumerate_associative(2, Ring.ZI, 1, prune=True)
    for cpus, expected in ((2, 2), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        many = enumerate_associative(2, Ring.ZI, 1, prune=True, jobs=10_000)
        assert sizes.pop() == expected
        assert census_csv(many) == census_csv(one)
        assert candidates_text(many) == candidates_text(one)
        assert (many.checked, many.bulk_rejected) == (one.checked, one.bulk_rejected)
    assert sizes == []


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
            closed = compose_closed_form(ml, slot).to_sparse()
            expanded = compose_substitution(ml.to_sparse(), slot)
            assert polys_equal_oracle(closed, expanded, cfg)
