"""Self-tests of the benchmark: known answers, tracer hygiene, seeded mixes.

Run from the root of a checkout with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
import polyassoc  # noqa: E402
import polyassoc.cli  # noqa: E402


# -- an exact evaluator for generated input text, independent of the package --


class G:
    """Element of Q(i) with exact components."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, G) else G(x)

    def __add__(self, o):
        o = G.of(o)
        return G(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return G(-self.re, -self.im)

    def __sub__(self, o):
        return self + -G.of(o)

    def __rsub__(self, o):
        return G.of(o) - self

    def __mul__(self, o):
        o = G.of(o)
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = G.of(o)
        norm = o.re * o.re + o.im * o.im
        return self * G(o.re / norm, -o.im / norm)

    def __pow__(self, k):
        out = G(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, o):
        o = G.of(o)
        return self.re == o.re and self.im == o.im


def evaluator(text: str):
    """The polynomial function of an input text, evaluated exactly."""
    expr = re.sub(
        r"x(\d+)|(\d+)|i",
        lambda m: f"X[{m.group(1)}]" if m.group(1) else (f"G({m.group(2)})" if m.group(2) else "G(0, 1)"),
        text.replace("^", "**"),
    )
    expr = re.sub(r"\*\*G\((\d+)\)", r"**\1", expr)
    code = compile(expr, "<poly>", "eval")
    return lambda xs: eval(code, {"G": G, "X": [None] + list(xs)})


def compositions_agree(text: str, n: int, point) -> bool:
    """All n slot compositions agree at one point of 2n-1 coordinates."""
    p = evaluator(text)
    values = [
        p(point[: k] + [p(point[k : k + n])] + point[k + n :]) for k in range(n)
    ]
    return all(v == values[0] for v in values[1:])


def random_point(rng, size):
    return [G(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(size)]


SMALL_STRATA = [
    W.Stratum(cmd, ring, n, kind, 1, perturb)
    for cmd in ("classify", "analyze")
    for ring in ("z", "q", "zi")
    for n in (3, 4)
    for kind, perturb in [
        ("x1", None), ("xn", None), ("const", None), ("prod", None), ("tsum", None),
        ("twist", None), ("sprod", None), ("pow2", None), ("pow3", None),
        ("x1", "term"), ("tsum", "square"), ("sprod", "term"), ("const", "square"),
    ]
    if not (kind == "twist" and not W.twist_weights(ring, n))
]


@pytest.mark.parametrize("stratum", SMALL_STRATA, ids=lambda s: s.label)
def test_generator_answers_hold_at_small_arity(stratum):
    rng = random.Random(stratum.label)
    request = W.build_request(stratum, rng)
    text, n = request.argv[request.argv.index("--poly") + 1], stratum.n
    points = [random_point(rng, 2 * n - 1) for _ in range(6)]
    agree = [compositions_agree(text, n, pt) for pt in points]
    assert all(agree) if request.expect["associative"] else not all(agree)
    # the package agrees with the written-down answer, field by field
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert polyassoc.cli.main(list(request.argv)) == 0
    assert W.check_report(json.loads(out.getvalue()), request.expect) == []


def test_shifted_product_parameters_rebuild_the_input():
    for ring, a, b in [("q", Fraction(3, 2), Fraction(-1, 2)), ("zi", (1, -1), (2, 1)), ("z", -3, 2)]:
        member = W.shifted_product(ring, 3, a, b)
        p = evaluator(member.text)
        ga, gb = (G(*a) if ring == "zi" else G(a)), (G(*b) if ring == "zi" else G(b))
        for pt in random_point(random.Random(1), 9), random_point(random.Random(2), 9):
            want = ga * (pt[0] + gb) * (pt[1] + gb) * (pt[2] + gb) - gb
            assert p(pt[:3]) == want


def _pinned_ternary_census() -> str:
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TERNARY_CENSUS_CSV":
            return ast.literal_eval(node.value)
    raise AssertionError("TERNARY_CENSUS_CSV not found")


def test_census_from_family_table_matches_pinned_table():
    assert W.expected_census(W.Box("z", 3, 1, False)) == _pinned_ternary_census()


@pytest.mark.parametrize("box", [W.Box("zi", 2, 1, False), W.Box("z", 2, 2, True)])
def test_census_from_family_table_matches_program(box, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert polyassoc.cli.main(box.argv(str(tmp_path), 7)) == 0
    assert (tmp_path / "census.csv").read_text() == W.expected_census(box)


def test_gaussian_fraction_rendering():
    assert W.frac_str("zi", (1, 0), (1, 1)) == "1/(1+i)"
    assert W.frac_str("zi", (1, -2), (2, 2)) == "(1-2i)/(2+2i)"
    assert W.frac_str("zi", (-2, 0), (1, -2)) == "-2i/(2+i)"
    assert W.frac_str("zi", (2, 4), (2, 0)) == "1+2i"
    assert W.frac_str("z", 2, -4) == "-1/2"


@pytest.mark.parametrize("workload", ["verdict-wide", "analyze-dense"])
def test_seed_changes_inputs_not_mix(workload):
    over = {s.label for s in W.VERDICT_OVER_LIMIT}

    def mix(requests):
        return Counter("over-limit" if r.label in over else r.label for r in requests)

    a, b = W.request_list(workload, 1), W.request_list(workload, 2)
    assert mix(a) == mix(b)
    assert sorted(r.argv for r in a) != sorted(r.argv for r in b)
    assert [r.argv for r in W.request_list(workload, 1)] == [r.argv for r in a]
    shares = Counter(r.expect["associative"] for r in a)
    assert 0.25 < shares[False] / len(a) < 0.4


def _bindings():
    """Every module attribute and class attribute of the package, by identity."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "polyassoc"]
    out = {}
    for module in modules:
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("polyassoc"):
                for cattr, cvalue in list(value.__dict__.items()):
                    out[(value.__module__, value.__qualname__, cattr)] = cvalue
    return out


SMALL_REQUESTS = [
    ["check", "--ring", "z", "--n", "3", "--poly", "x1 - x2 + x3", "--format", "json"],
    ["classify", "--ring", "zi", "--n", "3", "--poly", "(1+i)*(x1 + 1)*(x2 + 1)*(x3 + 1) - 1",
     "--format", "json"],
    ["analyze", "--ring", "q", "--n", "4", "--poly", "3/2*x1*x2*x3*x4", "--format", "json"],
    ["check", "--ring", "z", "--n", "4", "--poly", "(x1 + x2 + x3 + x4)^3", "--format", "json"],
]


def _traced_run():
    tracer = layertrace.Tracer(polyassoc)
    tracer.install()
    try:
        for argv in SMALL_REQUESTS:
            tracer.begin_request(argv[0])
            with contextlib.redirect_stdout(io.StringIO()):
                assert polyassoc.cli.main(argv) == 0
            tracer.end_request(argv[0], False)
    finally:
        tracer.uninstall()
    return tracer


def test_wrappers_are_removed_after_tracing():
    before = _bindings()
    tracer = _traced_run()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracer.spans and tracer.folded


def test_traced_counts_repeat_and_self_times_add_up():
    first, second = _traced_run(), _traced_run()
    assert first.totals()[0] == second.totals()[0]  # call counts
    assert first.totals()[3] == second.totals()[3]  # observed counts
    assert first.self_time_gap() < 1e-6
    metrics = layertrace.per_layer_metrics(first, 1)
    assert metrics["parse.terms_out"] > 0 and metrics["oracle.grid_fallbacks"] >= 1
    assert metrics["structure.is_medial.sampled"] == 1
    assert metrics["classify.classify_associative.calls"] == 2


def test_every_binding_of_a_function_gets_the_same_wrapper():
    original = polyassoc.assoc.is_associative
    tracer = layertrace.Tracer(polyassoc)
    tracer.install()
    try:
        wrapped = polyassoc.cli.is_associative
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert sys.modules["polyassoc.classify"].is_associative is wrapped
        assert polyassoc.assoc.is_associative is wrapped
        assert polyassoc.oracle.associative_multilinear.__wrapped__ is (
            polyassoc.assoc.associative_multilinear.__wrapped__
        )
    finally:
        tracer.uninstall()
    assert polyassoc.cli.is_associative is original


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    tracer = _traced_run()
    per_layer = layertrace.per_layer_metrics(tracer, 1)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.metric_unit(name) for name in per_layer
    }
    assert set(layertrace.MOVES) == set(per_layer)
