import contextlib
import importlib
import io
import json
import multiprocessing
import re
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import polyassoc.assoc as assoc
import polyassoc.census as census
import polyassoc.cli as cli
import polyassoc.oracle as oracle
import polyassoc.parse as parse
from polyassoc import (
    BudgetError,
    OracleConfig,
    Ring,
    SparsePoly,
    assoc_pointwise,
    enumerate_associative,
    is_associative,
    parse_poly,
)
from polyassoc.assoc import CompositionWitness
from polyassoc.cli import build_parser, main

# the module, which the package's classify() hides
classify_module = importlib.import_module("polyassoc.classify")

CUBIC_EXAMPLE = "9*x1*x2*x3 + 3*(x1*x2 + x2*x3 + x3*x1) + x1 + x2 + x3"

TERNARY_CENSUS_CSV = """type,params,count
constant,c=-1,1
constant,c=0,1
constant,c=1,1
left-projection,,1
right-projection,,1
translated-sum,c=-1,1
translated-sum,c=0,1
translated-sum,c=1,1
twisted-sum,omega=-1,1
shifted-product,a=-1 b=0,1
shifted-product,a=1 b=-1,1
shifted-product,a=1 b=0,1
shifted-product,a=1 b=1,1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_verdict_without_affecting_exit_code(capsys):
    code, out, _ = run(
        capsys, "check", "--ring", "z", "--n", "3", "--poly", "x1 - x2 + x3",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["associative"] is True
    assert report["witness"] is None

    code, out, _ = run(
        capsys, "check", "--ring", "z", "--n", "2", "--poly", "2*x1*x2 + x1",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["associative"] is False
    assert report["witness"] == {
        "slot": 2,
        "monomial": "x1*x3",
        "subset": [1, 3],
        "lhs": "2",
        "rhs": "0",
    }


def test_parse_error_exit_code_and_position(capsys):
    code, out, err = run(capsys, "check", "--ring", "z", "--n", "3", "--poly", "x1 +")
    assert code == 1
    assert out == ""
    assert "position 5" in err


@pytest.mark.parametrize(
    "poly, position",
    [("9" * 5000 + "*x1", 1), ("x1^" + "9" * 5000, 4), ("x" + "9" * 5000, 2)],
    ids=["coefficient", "exponent", "variable-index"],
)
def test_over_long_integer_literal_is_a_parse_error(capsys, poly, position):
    code, out, err = run(capsys, "check", "--ring", "z", "--n", "2", "--poly", poly)
    assert code == 1
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: integer literal longer than {limit} digits at position {position}\n"


@pytest.mark.parametrize(
    "poly",
    [
        "(" + "9" * 70 + ")^64*x1 + x2",  # the input coefficient
        "c*x1*x2 + c*x1 + x2".replace("c", str(3 * 10**3000)),  # the witness, about c^2
    ],
    ids=["input", "witness"],
)
def test_value_past_the_int_to_str_limit_is_a_budget_error(capsys, poly):
    code, out, err = run(capsys, "check", "--ring", "z", "--n", "2", "--poly", poly)
    assert code == 2
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert f"more than {limit} decimal digits" in err
    assert "Traceback" not in err


def test_value_at_the_int_to_str_limit_is_printed(capsys):
    big = "9" * sys.get_int_max_str_digits()
    code, out, _ = run(
        capsys, "classify", "--ring", "z", "--n", "2", "--poly", f"{big}*x1*x2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["input"] == f"{big}*x1*x2"
    assert report["classification"]["a"] == big


def test_invalid_flags_exit_code(capsys):
    code, _, err = run(capsys, "check", "--ring", "r", "--n", "3", "--poly", "x1")
    assert code == 2 and "--ring {z,q,zi}" in err
    # enumerate takes only the rings that are not fields
    code, _, err = run(capsys, "enumerate", "--ring", "q", "--n", "2", "--bound", "1", "--out", ".")
    assert code == 2 and "--ring {z,zi}" in err
    assert err.endswith("error: argument --ring: invalid choice: 'q' (choose from 'z', 'zi')\n")
    code, _, _ = run(capsys, "check", "--ring", "z", "--poly", "x1")
    assert code == 2
    code, _, err = run(capsys, "check", "--ring", "z", "--n", "1", "--poly", "x1")
    assert code == 2 and "--n" in err


def test_arity_past_the_cli_limit_is_a_usage_error(capsys):
    code, out, err = run(capsys, "check", "--ring", "z", "--n", "32", "--poly", "x1")
    assert (code, out, err) == (2, "", "error: --n must be in 2..31, got 32\n")


def test_classify_golden_json(capsys):
    code, out, _ = run(
        capsys, "classify", "--ring", "z", "--n", "3", "--poly", CUBIC_EXAMPLE,
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ring"] == "Z"
    assert report["input"] == "9*x1*x2*x3 + 3*x1*x2 + 3*x1*x3 + 3*x2*x3 + x1 + x2 + x3"
    assert report["classification"] == {
        "type": "shifted-product",
        "clause": "vi",
        "a": "9",
        "b": "1/3",
    }
    assert report["oracle"] == {"mode": "grid", "agrees": True}


def test_wide_multilinear_input_keeps_the_exact_oracle(capsys):
    product = "3*" + "*".join(f"x{j}" for j in range(1, 11))
    code, out, _ = run(
        capsys, "classify", "--ring", "z", "--n", "10", "--poly", product, "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["type"] == "shifted-product"
    assert report["oracle"] == {"mode": "grid", "agrees": True}
    translated = "1 + " + " + ".join(f"x{j}" for j in range(1, 13))
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "check", "--ring", "zi", "--n", "12", "--poly", translated, "--format", "json"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    report = json.loads(out)
    assert report["associative"] is True
    assert report["oracle"] == {"mode": "grid", "agrees": True}


def test_classify_constant_and_translated(capsys):
    code, out, _ = run(
        capsys, "classify", "--ring", "z", "--n", "5", "--poly", "7", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["classification"] == {
        "type": "constant",
        "clause": "i",
        "c": "7",
    }
    code, out, _ = run(
        capsys, "classify", "--ring", "z", "--n", "3",
        "--poly", "x1 + x2 + x3 + 2", "--format", "json",
    )
    assert json.loads(out)["classification"] == {
        "type": "translated-sum",
        "clause": "iv",
        "c": "2",
    }


def test_classify_gaussian_twisted(capsys):
    code, out, _ = run(
        capsys, "classify", "--ring", "zi", "--n", "5",
        "--poly", "x1 + i*x2 - x3 - i*x4 + x5", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["classification"] == {
        "type": "twisted-sum",
        "clause": "v",
        "omega": "i",
    }


def test_analyze_golden_json(capsys):
    code, out, _ = run(
        capsys, "analyze", "--ring", "z", "--n", "3", "--poly", "x1 + x2 + x3 + 4",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["structure"] == {
        "group": "yes",
        "skew": "-x-4",
        "skew_verified": True,
        "skew_endomorphism": True,
        "medial": True,
        "medial_method": "symbolic",
        "reducible": "yes",
        "reduction": {"binary_op": "x + y + 2", "c0": "2"},
        "notes": [],
    }


SAMPLED_STRUCTURE = {
    "skew": None,
    "skew_verified": None,
    "skew_endomorphism": None,
    "medial": True,
    "medial_method": "sampled",
    "reducible": "out-of-scope",
    "reduction": None,
}
SHIFTED_PRODUCT_REPORTS = {
    ("q", "2*(x1 + 1/2)*(x2 + 1/2)*(x3 + 1/2)*(x4 + 1/2) - 1/2"): {
        "ring": "Q",
        "n": 4,
        "input": "2*x1*x2*x3*x4 + x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4"
        " + 1/2*x1*x2 + 1/2*x1*x3 + 1/2*x1*x4 + 1/2*x2*x3 + 1/2*x2*x4 + 1/2*x3*x4"
        " + 1/4*x1 + 1/4*x2 + 1/4*x3 + 1/4*x4 - 3/8",
        "multilinear": True,
        "associative": True,
        "witness": None,
        "classification": {"type": "shifted-product", "clause": "vi", "a": "2", "b": "1/2"},
        "structure": {
            "group": "field-restricted",
            **SAMPLED_STRUCTURE,
            "notes": [
                "group on Q minus {-1/2} only; shifting the domain by the offset reduces it"
                " to the punctured product case",
                "shifted-product reducibility is only decided for offset 0 on the punctured"
                " domain",
            ],
        },
        "oracle": {"mode": "grid", "agrees": True},
    },
    ("zi", "(1+i)*(x1 - i)*(x2 - i)*(x3 - i)*(x4 - i) + i"): {
        "ring": "Z[i]",
        "n": 4,
        "input": "(1+i)*x1*x2*x3*x4 + (1-i)*x1*x2*x3 + (1-i)*x1*x2*x4 + (1-i)*x1*x3*x4"
        " + (1-i)*x2*x3*x4 + (-1-i)*x1*x2 + (-1-i)*x1*x3 + (-1-i)*x1*x4 + (-1-i)*x2*x3"
        " + (-1-i)*x2*x4 + (-1-i)*x3*x4 + (-1+i)*x1 + (-1+i)*x2 + (-1+i)*x3 + (-1+i)*x4"
        " + (1+2*i)",
        "multilinear": True,
        "associative": True,
        "witness": None,
        "classification": {"type": "shifted-product", "clause": "vi", "a": "1+i", "b": "-i"},
        "structure": {
            "group": "no",
            **SAMPLED_STRUCTURE,
            "notes": [
                "not a group on all of Z[i]; product-family operations only form groups on"
                " a punctured domain over a field",
                "shifted-product reducibility is only decided over a field (Z[i] is not one)",
            ],
        },
        "oracle": {"mode": "grid", "agrees": True},
    },
}


@pytest.mark.parametrize("ring,poly", list(SHIFTED_PRODUCT_REPORTS))
def test_analyze_sampled_mediality_golden_json(capsys, ring, poly):
    # n = 4: mediality is sampled, and the exact oracle runs on support points
    code, out, _ = run(
        capsys, "analyze", "--ring", ring, "--n", "4", "--poly", poly, "--format", "json",
    )
    assert code == 0
    assert out == json.dumps(SHIFTED_PRODUCT_REPORTS[ring, poly], indent=2) + "\n"


def test_analyze_twisted_and_product_structures(capsys):
    code, out, _ = run(
        capsys, "analyze", "--ring", "z", "--n", "3", "--poly", "x1 - x2 + x3",
        "--format", "json",
    )
    s = json.loads(out)["structure"]
    assert s["group"] == "yes" and s["skew"] == "x"
    assert s["reducible"] == "no"

    code, out, _ = run(
        capsys, "analyze", "--ring", "z", "--n", "3", "--poly", CUBIC_EXAMPLE,
        "--format", "json",
    )
    s = json.loads(out)["structure"]
    assert s["group"] == "no" and s["skew"] is None
    assert s["medial"] is True
    assert s["reducible"] == "out-of-scope"
    assert any("not a group" in note for note in s["notes"])


def test_root_note_states_the_power(capsys):
    for n, power in (("3", "r^2"), ("4", "r^3")):
        code, out, _ = run(
            capsys, "analyze", "--ring", "q", "--n", n, "--poly",
            "*".join(["-4"] + [f"x{k}" for k in range(1, int(n) + 1)]),
        )
        assert code == 0
        assert f"  note: no element r of Q has {power} = -4\n" in out


@pytest.mark.parametrize("ring, poly, reduction", [
    ("z", "x1*x2 + 2*x1 + 2*x2 + 2", "x*y -> x*y + 2*x + 2*y + 2 (a0 = 1)"),
    ("zi", "2*i*x1*x2 + x1 + x2", "x*y -> 2*i*x*y + x + y (a0 = 2i)"),
    ("q", "3/2*x1*x2 + 3*x1 + 3*x2 + 4", "x*y -> 3/2*x*y + 3*x + 3*y + 4 (a0 = 3/2)"),
    ("q", "4*x1*x2", "x*y -> 4*x*y (a0 = 4)"),  # offset 0 over a field, as before
])
def test_every_binary_shifted_product_is_its_own_iterate(capsys, ring, poly, reduction):
    # at n = 2 the 1-fold iterate is the operation itself, whatever the ring
    # and the offset; analyze expands it and compares it with p
    code, out, _ = run(capsys, "analyze", "--ring", ring, "--n", "2", "--poly", poly)
    assert code == 0 and "classification: shifted-product (vi)" in out
    assert f"  reducible: yes; {reduction}\n" in out
    assert "only decided" not in out


def test_text_format(capsys):
    code, out, _ = run(capsys, "classify", "--ring", "z", "--n", "3", "--poly", CUBIC_EXAMPLE)
    assert code == 0
    assert "classification: shifted-product (vi); a = 9; b = 1/3" in out
    code, out, _ = run(
        capsys, "check", "--ring", "z", "--n", "2", "--poly", "2*x1*x2 + x1"
    )
    assert "associative: no" in out
    assert "witness: slot 2 vs slot 1 at S={1,3}: 2 != 0" in out


def test_reports_are_deterministic(capsys):
    args = ("analyze", "--ring", "q", "--n", "3", "--poly", "4*x1*x2*x3", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_enumerate_writes_census(tmp_path, capsys):
    out_dir = tmp_path / "census"
    code, out, _ = run(
        capsys, "enumerate", "--ring", "z", "--n", "3", "--bound", "1",
        "--out", str(out_dir),
    )
    assert code == 0
    assert "associative: 13" in out
    assert (out_dir / "census.csv").read_text() == TERNARY_CENSUS_CSV
    assert not (out_dir / "candidates.txt").exists()


# Over Z at bound 1, by the theorem: 3 constants, 2 projections, 3
# translated sums, the twisted sum with omega = -1 at odd n only, and 4
# shifted products (a = +-1 with b = 0, and the two with b = +-1 and a*b^n = b).
@pytest.mark.parametrize("n, budget, census", [
    (4, "43046721", """type,params,count
constant,c=-1,1
constant,c=0,1
constant,c=1,1
left-projection,,1
right-projection,,1
translated-sum,c=-1,1
translated-sum,c=0,1
translated-sum,c=1,1
shifted-product,a=-1 b=-1,1
shifted-product,a=-1 b=0,1
shifted-product,a=1 b=0,1
shifted-product,a=1 b=1,1
"""),
    (5, "1853020188851841", """type,params,count
constant,c=-1,1
constant,c=0,1
constant,c=1,1
left-projection,,1
right-projection,,1
translated-sum,c=-1,1
translated-sum,c=0,1
translated-sum,c=1,1
twisted-sum,omega=-1,1
shifted-product,a=-1 b=0,1
shifted-product,a=1 b=-1,1
shifted-product,a=1 b=0,1
shifted-product,a=1 b=1,1
"""),
], ids=["n4", "n5"])
def test_enumerate_walks_whole_boxes_past_arity_three(tmp_path, capsys, n, budget, census):
    out_dir = tmp_path / "census"
    code, out, _ = run(
        capsys, "enumerate", "--ring", "z", "--n", str(n), "--bound", "1",
        "--budget", budget, "--out", str(out_dir),
    )
    assert code == 0
    assert f"checked individually: {budget} (bulk rejected: 0)" in out
    assert f"associative: {census.count(chr(10)) - 1}" in out
    assert (out_dir / "census.csv").read_text() == census


def test_enumerate_dump_candidates(tmp_path, capsys):
    out_dir = tmp_path / "census"
    code, _, _ = run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "1",
        "--out", str(out_dir), "--dump-candidates",
    )
    assert code == 0
    lines = (out_dir / "candidates.txt").read_text().splitlines()
    assert "x1*x2" in lines and "x1 + x2" in lines


def test_enumerate_jobs_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "2", "--out", str(a))
    run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "2",
        "--out", str(b), "--jobs", "4",
    )
    assert (a / "census.csv").read_bytes() == (b / "census.csv").read_bytes()


def test_enumerate_budget_exceeded(tmp_path, capsys):
    code, _, err = run(
        capsys, "enumerate", "--ring", "z", "--n", "3", "--bound", "9",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert str(19**8) in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_enumerate_refuses_a_walk_modulus_past_the_trial_divisors(tmp_path, capsys, jobs):
    # bound 300 within budget, but a prime above 2c^2, c = 12*300^2 + 2*300,
    # needs trial divisors past 2^20: refused before any walk or worker
    code, out, err = run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "300", "--jobs", jobs,
        "--budget", str(601**4), "--out", str(tmp_path / "x"),
    )
    assert code == 2 and out == "" and "trial divisors" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--bound", "-1", "--bound must be nonnegative, got -1"),
    ("--jobs", "0", "--jobs must be positive, got 0"),
])
def test_enumerate_rejects_a_negative_bound_or_no_jobs(tmp_path, capsys, flag, value, message):
    argv = {"--bound": "1", "--jobs": "1", flag: value}
    code, out, err = run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--out", str(tmp_path / "x"),
        *[x for item in argv.items() for x in item],
    )
    assert code == 2 and out == "" and message in err
    assert "Traceback" not in err and not (tmp_path / "x").exists()


@pytest.mark.parametrize("n, shown", [(14, "3^16384"), (20, "3^1048576")])
def test_enumerate_huge_box_fails_fast(tmp_path, capsys, n, shown):
    # the count has too many digits to print, so the message gives it as a power
    start = time.perf_counter()
    code, _, err = run(
        capsys, "enumerate", "--ring", "z", "--n", str(n), "--bound", "1",
        "--out", str(tmp_path / "x"),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"box holds {shown} candidate tables; pass budget={shown} or more" in err
    assert "Traceback" not in err


def test_enumerate_single_table_box_at_wide_arity(tmp_path, capsys):
    out_dir = tmp_path / "census"
    code, out, _ = run(
        capsys, "enumerate", "--ring", "z", "--n", "10", "--bound", "0",
        "--out", str(out_dir),
    )
    assert code == 0
    assert "candidates: 1" in out
    assert (out_dir / "census.csv").read_text() == "type,params,count\nconstant,c=0,1\n"


@contextlib.contextmanager
def alarm_after(seconds):
    """Fail the block with TimeoutError once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "power, required",
    [
        # S6^16 passes the budget at its last product, 6 * (C(21, 6) - 1) pairs;
        # S6^20 stops at the same product, short of the 6 * (C(25, 6) - 1) =
        # 1,062,594 pairs it needs, so the count is a lower bound
        ("S6^16", 325_578),
        ("S6^20", 325_578),
        # each S6^8 takes 6 * (C(13, 6) - 1) = 10,290 pairs, their product 1,287^2
        ("S6^8*S6^8", 2 * 10_290 + 1_287**2),
    ],
)
def test_a_power_past_the_pair_budget_exits_2_within_a_second(capsys, power, required):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "check", "--ring", "z", "--n", "6", "--poly",
        power.replace("S6", "(x1+x2+x3+x4+x5+x6)"),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        f"error: parsing would multiply at least {required} term pairs, over the parser's "
        f"budget of 262144\n"
    )


@pytest.mark.parametrize("n, power", [(31, 2), (6, 4)])
def test_wide_power_is_decided_from_the_x1_coefficients(capsys, n, power):
    poly = "(" + " + ".join(f"x{j}" for j in range(1, n + 1)) + f")^{power}"
    with alarm_after(3):
        code, out, _ = run(
            capsys, "check", "--ring", "z", "--n", str(n), "--poly", poly, "--format", "json"
        )
    assert code == 0
    report = json.loads(out)
    assert report["associative"] is False
    assert report["witness"] == {
        "slot": 2,
        "monomial": f"x1^{power}",
        "subset": None,
        "lhs": "0",
        "rhs": "1",
    }


def test_witness_past_x1_is_found_without_expanding_a_composition(capsys):
    # slot 2 nests (x3+...+x7)^6 + x2 + x8+...+x11 in a sixth power: expanded
    # in full it ran for more than 20 s
    with alarm_after(3):
        code, out, _ = run(
            capsys, "check", "--ring", "z", "--n", "6", "--poly", "(x2+x3+x4+x5+x6)^6 + x1"
        )
    assert code == 0
    assert "witness: slot 2 vs slot 1 at x2^5*x3: 6 != 0\n" in out


def test_witness_at_a_later_slot_is_found_in_a_few_variables():
    # slots 1 and 2 agree; expanding whole compositions took 17.6 s
    p = parse_poly("(x3+x4+x5+x6)^8", 6, Ring.Z)
    with alarm_after(3):
        w = is_associative(p).witness
    assert (w.slot, w.monomial_str(), w.lhs, w.rhs) == (3, "x5^64", 0, 1)


def test_squared_variable_with_no_difference_found_exits_3(capsys, monkeypatch):
    import polyassoc.assoc as assoc

    monkeypatch.setattr(assoc, "_first_difference", lambda lhs, rhs, key=None: None)
    code, out, err = run(capsys, "check", "--ring", "z", "--n", "2", "--poly", "x1^2 + x2")
    assert code == 3 and out == ""
    assert err.startswith("internal error: slot compositions of x1^2 + x2 agree")


@pytest.mark.parametrize("poly", ["(((x1^64)^64)^64)*x2", "(x1 + x2 + 1)^30"])
def test_high_powers_are_rejected_by_degrees(capsys, poly):
    with alarm_after(3):
        code, out, _ = run(capsys, "check", "--ring", "z", "--n", "2", "--poly", poly,
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["associative"] is False
    assert report["oracle"] == {"mode": "degree", "agrees": True}


SP8 = "-1 + 2*" + "*".join(f"(x{k} + 1)" for k in range(1, 9))


def test_dense_shifted_product_is_checked_exactly_from_subset_sums(capsys):
    # 2^8 terms, each equation's whole 2^15-point grid: symmetric, so the grid
    # oracle checks it from its nine point values (the subset-sum family route
    # on the same table is timed in test_oracle.py)
    with alarm_after(3):
        code, out, _ = run(capsys, "analyze", "--ring", "z", "--n", "8", "--poly", SP8,
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["oracle"] == {"mode": "grid", "agrees": True}
    with alarm_after(3):
        assert assoc_pointwise(parse_poly(SP8, 8, Ring.Q), OracleConfig(mode="grid"))


def test_analyze_non_associative_input(capsys):
    code, out, _ = run(
        capsys, "analyze", "--ring", "z", "--n", "2", "--poly", "2*x1*x2 + x1",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["associative"] is False
    assert report["classification"] == {"type": "not-associative", "clause": None}
    assert report["structure"] is None


def test_enumerate_jobs_with_prune(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "2",
        "--out", str(a), "--prune",
    )
    run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "2",
        "--out", str(b), "--prune", "--jobs", "3",
    )
    assert (a / "census.csv").read_bytes() == (b / "census.csv").read_bytes()


def test_internal_invariant_violation_exit_code(capsys, monkeypatch):
    import polyassoc.cli as cli

    monkeypatch.setattr(cli, "assoc_pointwise", lambda p, cfg: False)
    code, _, err = run(capsys, "check", "--ring", "z", "--n", "3", "--poly", "x1 - x2 + x3")
    assert code == 3
    assert "internal error" in err


@pytest.mark.parametrize(
    "command, message",
    [
        ("check", "pointwise oracle disagrees with the symbolic verdict"),
        ("classify", "associative operation with a squared variable"),
        ("analyze", "associative operation with a squared variable"),
    ],
    ids=["check", "classify", "analyze"],
)
def test_oracle_rejects_a_squared_variable_called_associative(
    capsys, monkeypatch, command, message
):
    # a decision that calls the squared input associative, with no family:
    # check's oracle and classify_associative each catch it
    monkeypatch.setattr(cli, "_decide", lambda p: (None, []))
    code, out, err = run(capsys, command, "--ring", "z", "--n", "2", "--poly", "x1^2*x2")
    assert (code, out) == (3, "")
    assert err == f"internal error: {message}\n"


def _off_by_one(w: CompositionWitness, change: str) -> CompositionWitness:
    """The witness with lhs raised by one, or its monomial's last variable dropped."""
    if change == "lhs":
        return CompositionWitness(w.slot, w.monomial, w.lhs + 1, w.rhs)
    last = max(j for j, e in enumerate(w.monomial) if e)
    monomial = tuple(0 if j == last else e for j, e in enumerate(w.monomial))
    return CompositionWitness(w.slot, monomial, w.lhs, w.rhs)


@pytest.mark.parametrize("change", ["lhs", "mask"])
@pytest.mark.parametrize("command, poly", [
    ("check", "x1 + x2 + x3 + x1*x3"),  # the witness of the prefix step
    ("classify", "x1*x2 + x3"),  # the same
    ("check", "-x1*x3 - x3 - 1"),  # the witness of the full comparison, at x5
])
def test_a_witness_its_indicator_point_contradicts_exits_3(
    capsys, monkeypatch, command, poly, change
):
    assert run(capsys, command, "--ring", "z", "--n", "3", "--poly", poly)[0] == 0
    # every command takes its witness from classify's binding of is_associative
    search = classify_module.is_associative
    wrong = lambda p: cli.AssocVerdict(False, _off_by_one(search(p).witness, change))
    monkeypatch.setattr(classify_module, "is_associative", wrong)
    code, out, err = run(capsys, command, "--ring", "z", "--n", "3", "--poly", poly)
    assert (code, out) == (3, "")
    assert err == "internal error: the compositions disagree with the witness at its point\n"


@pytest.mark.parametrize("command, n, poly", [
    ("classify", 3, "-x1*x3 - x3 - 1"),
    ("analyze", 3, "-x1*x3 - x3 - 1"),
    ("check", 2, "x1^2*x2"),
], ids=["classify", "analyze", "check-squared-variable"])
def test_no_family_with_agreeing_compositions_exits_3(capsys, monkeypatch, command, n, poly):
    # not associative (a witness at x5; a squared variable), and a witness
    # search that finds none
    monkeypatch.setattr(classify_module, "is_associative", lambda p: cli.AssocVerdict(True))
    code, out, err = run(capsys, command, "--ring", "z", "--n", str(n), "--poly", poly)
    assert (code, out) == (3, "")
    assert err == f"internal error: slot compositions agree but no family rebuilds {poly}\n"


@pytest.mark.parametrize("command", ["classify", "analyze"])
def test_sparse_input_whose_candidate_table_is_dense_is_decided_without_it(
    capsys, monkeypatch, command
):
    # a = c = 1 makes the candidate ShiftedProduct(1, 1), whose table holds all
    # 2^31 - 1 nonempty masks; its ladder rules it out, so no table is built
    monkeypatch.setattr(classify_module, "reconstruct", None)
    monkeypatch.setattr(classify_module, "_size_table", None)
    poly = "*".join(f"x{j}" for j in range(1, 32)) + " + " + "*".join(f"x{j}" for j in range(1, 31))
    code, out, _ = run(capsys, command, "--ring", "z", "--n", "31", "--poly", poly, "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["associative"] is False
    assert report["classification"]["type"] == "not-associative"
    w = report["witness"]
    want = [*range(1, 32), *range(33, 61)]  # past the prefix step: the full comparison's
    assert (w["slot"], w["subset"], w["lhs"], w["rhs"]) == (2, want, "0", "1")
    assert report == json.loads(run(capsys, "check", "--ring", "z", "--n", "31", "--poly", poly,
                                    "--format", "json")[1]) | {"classification": report["classification"]}


def test_check_past_the_decision_budget_exits_2(capsys, monkeypatch):
    # slots 1 and 2 agree below 2^3 and no family rebuilds the input, so the
    # full comparison runs; slot 1's closed form alone charges 1*3 + 2 = 5
    # term pairs, a lower bound, as slot 2's form is not charged
    poly = "-x1*x3 - x3 - 1"
    monkeypatch.setattr(assoc, "DECISION_BUDGET", 4)
    with pytest.raises(BudgetError) as refused:
        classify_module._decide(parse_poly(poly, 3, Ring.Z))
    assert refused.value.required == 5
    code, out, err = run(capsys, "check", "--ring", "z", "--n", "3", "--poly", poly)
    assert (code, out) == (2, "")
    assert err == (
        "error: the slot compositions would multiply at least 5 term pairs, "
        "over the decision's budget of 4\n"
    )


@pytest.mark.parametrize("n", [12, 13])
def test_check_on_a_dense_shifted_product_builds_no_closed_form(capsys, monkeypatch, n):
    # -1 + 2*(x1+1)*...*(xn+1): recognised, where the full comparison would
    # multiply at least 2^(n-1) * 2^n term pairs
    def refuse(p, slot):
        raise AssertionError("a closed form was built")

    monkeypatch.setattr(assoc, "compose_closed_form", refuse)
    poly = "-1 + 2*" + "*".join(f"(x{j} + 1)" for j in range(1, n + 1))
    code, out, _ = run(capsys, "check", "--ring", "z", "--n", str(n), "--poly", poly)
    assert code == 0 and "associative: yes" in out.splitlines()
    code, out, _ = run(capsys, "classify", "--ring", "z", "--n", str(n), "--poly", poly)
    assert code == 0 and "classification: shifted-product (vi); a = 2; b = 1" in out


@pytest.mark.parametrize(
    "check", ["verify_skew", "skew_is_endomorphism", "iterate_binary", "is_medial"]
)
def test_failed_structure_check_exit_code(capsys, monkeypatch, check):
    import polyassoc.structure as structure

    # the binary operation itself, in two variables, is no iterate of arity 3
    failed = {"iterate_binary": lambda op, n: op, "is_medial": lambda p: (False, "sampled")}
    monkeypatch.setattr(structure, check, failed.get(check, lambda p, skew: False))
    code, out, err = run(capsys, "analyze", "--ring", "z", "--n", "3", "--poly", "x1 + x2 + x3 + 4")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ")


def test_enumerate_spot_check_failure_exit_code(tmp_path, capsys, monkeypatch):
    import polyassoc.cli as cli

    monkeypatch.setattr(cli, "assoc_pointwise", lambda p, cfg: False)
    code, _, err = run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "1",
        "--out", str(tmp_path / "census"),
    )
    assert code == 3
    assert "spot check" in err


def keep_one_non_associative(monkeypatch):
    """Make the walk keep x1 - x2, which is not associative, where it builds x1."""
    trusted = census.MultilinearPoly._trusted

    def build(ring, n, table):
        return trusted(ring, n, {1: 1, 2: -1} if table == {1: 1} else table)

    # the workers inherit the patched binding by fork
    monkeypatch.setattr(census, "MultilinearPoly", SimpleNamespace(_trusted=build))


@pytest.mark.parametrize("jobs", [
    "1",
    pytest.param("2", marks=pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="the workers must inherit the patched binding by fork",
    )),
])
def test_enumerate_exits_3_when_recognition_rejects_a_kept_table(
    tmp_path, capsys, monkeypatch, jobs
):
    # recognition runs once the chunks merge, so both job counts name the same table
    keep_one_non_associative(monkeypatch)
    out = tmp_path / "census"
    code, stdout, err = run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "1", "--jobs", jobs,
        "--out", str(out),
    )
    assert (code, stdout) == (3, "")
    assert err == "internal error: associative operation matched 0 families: x1 - x2\n"
    assert not (out / "census.csv").exists()


def test_enumerate_exits_3_when_the_grid_oracle_rejects_a_kept_table(
    tmp_path, capsys, monkeypatch
):
    # recognition patched to accept the kept table as a left projection: the
    # exact oracle is then the route that rejects it
    keep_one_non_associative(monkeypatch)
    recognise = census.classify_associative
    projection = recognise(parse_poly("x1", 2, Ring.Z).to_multilinear())
    monkeypatch.setattr(
        census, "classify_associative",
        lambda ml: projection if ml.render() == "x1 - x2" else recognise(ml),
    )
    out = tmp_path / "census"
    code, stdout, err = run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "1", "--out", str(out),
    )
    assert (code, stdout) == (3, "")
    assert err == "internal error: pointwise spot check rejects x1 - x2\n"
    assert not (out / "census.csv").exists()


def test_enumerate_spot_checks_every_survivor_by_every_route(tmp_path, capsys, monkeypatch):
    # each name is counted at every module that binds it: every survivor is
    # recognised once and checked once by the grid oracle, and no composition
    # is built in the whole run
    calls = []

    def counted(name, f):
        def wrapper(p, *args):
            calls.append((name, p.render(), *args))
            return f(p, *args)

        return wrapper

    names = ("compose_closed_form", "compose_substitution", "assoc_pointwise",
             "classify_associative")
    for name in names:
        original = next(getattr(m, name) for m in (assoc, oracle, classify_module)
                        if hasattr(m, name))
        wrapper = counted(name, original)
        for module in (assoc, census, classify_module, oracle, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    code, out, _ = run(
        capsys, "enumerate", "--ring", "z", "--n", "3", "--bound", "1", "--seed", "77",
        "--out", str(tmp_path / "census"),
    )
    monkeypatch.undo()
    survivors = [p.render() for p, _ in enumerate_associative(3, Ring.Z, 1).survivors]
    assert code == 0 and len(survivors) == 13
    assert "dual-path spot check: ok (seed 77)\n" in out
    assert {f for f, *_ in calls} == {"assoc_pointwise", "classify_associative"}
    assert sorted(p for f, p, *_ in calls if f == "classify_associative") == sorted(survivors)
    checks = [(p, cfg) for f, p, *cfg in calls if f == "assoc_pointwise"]
    assert sorted(p for p, _ in checks) == sorted(survivors)
    assert {cfg.mode for _, (cfg,) in checks} == {"grid"}


def test_enumerate_draws_each_sample_set_once(tmp_path, capsys, monkeypatch):
    # the survivors are checked in grid mode, which draws no sample set; random
    # mode runs only past the grid guard
    made = []

    class Counted(oracle.XorShift64Star):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    oracle._sample_points.cache_clear()
    monkeypatch.setattr(oracle, "XorShift64Star", Counted)
    code, _, _ = run(
        capsys, "enumerate", "--ring", "zi", "--n", "2", "--bound", "1",
        "--out", str(tmp_path / "census"),
    )
    assert code == 0
    assert made == []
    oracle._sample_points.cache_clear()


@pytest.mark.parametrize("n, slot, table", [
    (2, 2, "-x1*x2 - x1 - x2 - 1"),
    (3, 3, "-x3 - 1"),
])
def test_enumerate_walk_missing_a_slot_pair_exits_3_at_a_leaf(
    tmp_path, capsys, monkeypatch, n, slot, table
):
    # the equation builder reads ``slot`` as slot - 1, so the equations of
    # that slot pair have equal sides and are dropped; recognition then finds
    # no family for the first table the walk keeps wrongly
    reads = census._pulled_masks
    monkeypatch.setattr(
        census, "_pulled_masks", lambda n, s, mask: reads(n, s - (s == slot), mask)
    )
    code, out, err = run(
        capsys, "enumerate", "--ring", "z", "--n", str(n), "--bound", "1",
        "--out", str(tmp_path / "census"),
    )
    assert (code, out) == (3, "")
    assert err == f"internal error: associative operation matched 0 families: {table}\n"


@pytest.mark.parametrize("kind", ["existing-file", "under-a-file"])
def test_enumerate_unusable_out_fails_before_the_walk(tmp_path, capsys, monkeypatch, kind):
    def no_walk(*args, **kwargs):
        raise AssertionError("box walked before --out was checked")

    monkeypatch.setattr(cli, "enumerate_associative", no_walk)
    target = tmp_path / "taken"
    target.write_text("")
    out = target if kind == "existing-file" else target / "census"
    code, stdout, err = run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "0", "--out", str(out)
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumerate_prune_matches_default(tmp_path, capsys):
    a = tmp_path / "plain"
    b = tmp_path / "pruned"
    run(capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "2", "--out", str(a))
    run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "2",
        "--out", str(b), "--prune",
    )
    assert (a / "census.csv").read_text() == (b / "census.csv").read_text()


@pytest.mark.parametrize("poly", ["-x1", "-1+2*x1*x2", "-2*x1*x2"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poly_value_with_a_leading_minus(capsys, poly, fmt):
    args = ("check", "--ring", "z", "--n", "2", "--format", fmt)
    code, out, err = run(capsys, *args, "--poly", poly)
    assert (code, err) == (0, "")
    assert run(capsys, *args, f"--poly={poly}") == (code, out, err)


def test_poly_followed_by_an_option_is_a_usage_error(capsys):
    # argparse strips a "--" value, so "--poly=--" reaches no parser either
    for poly in (["--poly"], ["--poly=--"]):
        code, out, err = run(
            capsys, "check", "--ring", "z", "--n", "2", *poly, "--format", "json"
        )
        assert code == 2 and out == ""
        assert "argument --poly: expected one argument" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_matches_a_fresh_one(tmp_path, capsys, monkeypatch):
    out_dir = str(tmp_path / "census")
    usage_error = ("check", "--ring", "r", "--n", "3", "--poly", "x1")
    enumerate_box = ("enumerate", "--ring", "z", "--n", "2", "--bound", "1", "--out", out_dir)
    sequence = [
        usage_error,
        ("--version",),
        ("check", "--help"),
        enumerate_box + ("--prune",),
        enumerate_box,
        ("check", "--ring", "z", "--n", "3", "--poly", "x1 - x2 + x3"),
        usage_error,
    ]
    shared = [run(capsys, *argv) for argv in sequence]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 2]
    assert "checked individually: 81 " in shared[4][1]
    assert "usage: polyassoc check" in shared[6][2]
    assert shared[6] == shared[0]


SCAN_VALUES = {
    "--ring": ["z", "q", "zi", "r", "Z", " z", "-z"],
    "--n": ["3", "-3", "+3", " 3", "\u0663", "3.0", "", "-x1", "3_0"],
    "--poly": ["x1", "x1 + x2", "-x1", "", "3", "x1*x2 + x3"],
    "--format": ["text", "json", "xml", "-x1", ""],
}
SCAN_TOKENS = [
    "check", "classify", "analyze", "enumerate", "chekc",
    "--ring", "--n", "--poly", "--format", "--form", "--ri", "--poly=x1", "--format=json",
    "-h", "--help", "--version", "--", "z", "json", "3", "-3", "x1 + x2",
]


@st.composite
def report_like_argvs(draw):
    """A report request in shuffled flag order, then up to three token edits."""
    flags = draw(st.permutations(list(SCAN_VALUES)))
    if draw(st.booleans()):
        flags.remove("--format")
    argv = [draw(st.sampled_from(["check", "classify", "analyze", "enumerate", "chekc"]))]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(SCAN_VALUES[flag]))]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        token = draw(st.sampled_from(SCAN_TOKENS))
        argv[k:k + (edit != "insert")] = [] if edit == "delete" else [token]
    return argv


ENUMERATE_VALUES = {  # flag: (values argparse accepts, values it refuses or reads as options)
    "--ring": (["z", "zi"], ["q", "Z", "-z"]),
    "--n": (["3", "+3", " 3", "\u0663"], ["-3", "3.0", ""]),
    "--bound": (["1", "0", "1_0"], ["-1", "b"]),
    "--out": (["out", "census/", "", "a=b", "x y"], ["-o"]),
    "--jobs": (["1", "2", "0"], ["-1", "two"]),
    "--seed": (["77", "5 "], ["-5", "0x10"]),
    "--budget": (["1000"], ["1e6", "-1"]),
}
ENUMERATE_OPTIONALS = ["--jobs", "--seed", "--budget", "--prune", "--dump-candidates"]
ENUMERATE_TOKENS = [
    "enumerate", "check", "--prune", "--dump-candidates", "--pru", "--dump", "--bo", "--n",
    "--ring", "--seed=5", "--ring=zi", "--out=x", "--poly", "-h", "--", "q", "zi", "3", "-1",
]


@st.composite
def enumerate_like_argvs(draw):
    """An enumerate request in shuffled flag order, with optional flags dropped,
    then up to three token edits (a repeated switch, ``--flag=value``, ...)."""
    flags = list(ENUMERATE_VALUES) + ["--prune", "--dump-candidates"]
    flags = [f for f in draw(st.permutations(flags))
             if f not in ENUMERATE_OPTIONALS or draw(st.booleans())]
    argv = ["enumerate" if draw(st.integers(0, 5)) else "check"]
    for flag in flags:
        if flag in ENUMERATE_VALUES:
            valid, odd = ENUMERATE_VALUES[flag]
            argv += [flag, draw(st.sampled_from(valid if draw(st.integers(0, 5)) else odd))]
        else:
            argv.append(flag)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        k = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        token = draw(st.sampled_from(ENUMERATE_TOKENS))
        argv[k:k + (edit != "insert")] = [] if edit == "delete" else [token]
    return argv


@settings(max_examples=800, deadline=None, database=None)
@given(st.one_of(report_like_argvs(), enumerate_like_argvs()))
@example(["check", "--ring", "z", "--n", "3", "--format", "json"])
@example(["check", "--ring", "r", "--ring", "z", "--n", "3", "--poly", "x1"])
@example(["analyze", "--poly", "", "--format", "json", "--n", "+3", "--ring", "zi"])
@example(["enumerate", "--out", "x y", "--prune", "--n", "+3", "--bound", "0", "--ring", "zi"])
@example(["enumerate", "--ring", "z", "--n", "2", "--bound", "1", "--out", "o", "--prune",
          "--prune"])
@example(["enumerate", "--ring", "q", "--n", "2", "--bound", "1", "--out", "o"])
@example(["enumerate", "--ring", "z", "--n", "2", "--bo", "1", "--out", "o"])
@example(["enumerate", "--ring=z", "--n", "2", "--bound", "1", "--out", "o"])
@example(["enumerate", "--ring", "z", "--n", "2", "--bound", "-1", "--out", "o"])
def test_scan_builds_the_namespace_argparse_builds(argv):
    scanned = cli._scan(argv)
    event("scanned" if scanned is not None else "left to argparse")
    if scanned is not None:
        assert vars(build_parser().parse_args(argv)) == vars(scanned)


def test_scan_reads_every_benchmark_request_and_every_census_box():
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    for workload in ("verdict-wide", "analyze-dense"):
        for request in workloads.request_list(workload, 1):
            assert cli._scan(list(request.argv)) is not None, request.argv
    for box in workloads.CENSUS_BOXES:
        argv = box.argv("out", 1)
        assert vars(cli._scan(argv)) == vars(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize(
    "poly, message",
    [
        ("(" * 250 + "x1" + ")" * 250, None),
        ("-" * 3000 + "x1", None),
        ("x1" + "^1" * 1500, None),
        ("x1^" + "9" * 100 + "^64", f"exponent {'9' * 100}^64 exceeds the cap 64 at position 4"),
    ],
    ids=["nested-parentheses", "minus-run", "exponent-tower", "long-exponent-literal"],
)
def test_deep_or_long_input_exits_with_one_line(capsys, poly, message):
    code, out, err = run(capsys, "check", "--ring", "z", "--n", "2", f"--poly={poly}")
    if message is None:
        assert code == 0 and err == ""
        assert "input: -x1" in out or "input: x1" in out
    else:
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


def test_enumerate_budget_message_reads_the_live_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    argv = ("enumerate", "--ring", "z", "--n", "12", "--bound", "1", "--out", str(tmp_path))
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err == (
        "error: box holds 3^4096 candidate tables; pass budget=3^4096 or more "
        "(configured budget 16777216)\n"
    )
    # 3^4096 has 1,955 digits: printed in full under the default limit
    code, _, err = run(capsys, *argv)
    assert code == 2 and f"box holds {3**4096} candidate tables" in err
    # a limit of 0 (none) prints counts up to Python's default limit
    try:
        sys.set_int_max_str_digits(0)
        small = run(capsys, "enumerate", "--ring", "z", "--n", "5", "--bound", "1",
                    "--out", str(tmp_path))
        huge = run(capsys, *argv[:4], "14", *argv[5:])
    finally:
        sys.set_int_max_str_digits(limit)
    assert small[0] == 2 and "pass budget=1853020188851841 or more" in small[2]
    assert huge[0] == 2 and "pass budget=3^16384 or more" in huge[2]


COEFFS = {
    "z": st.integers(-3, 3).map(str),
    "q": st.sampled_from(["1/2", "-2/3", "3", "-1", "0"]),
    "zi": st.sampled_from(["i", "(1-i)", "-2", "1", "2*i", "(2+i)"]),
}


@st.composite
def small_requests(draw):
    """check/classify/analyze argv: n <= 3, exponents <= 3, at most 3 terms."""
    ring = draw(st.sampled_from(sorted(COEFFS)))
    n = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        factors = [draw(COEFFS[ring])]
        for _ in range(draw(st.integers(0, 3))):
            factors.append(f"x{draw(st.integers(1, 3))}^{draw(st.integers(0, 3))}")
        terms.append("*".join(factors))
    poly = " + ".join(terms) or draw(st.text("x123i+-*/^() ", max_size=8))
    command = draw(st.sampled_from(["check", "classify", "analyze"]))
    fmt = draw(st.sampled_from(["text", "json"]))
    return [command, "--ring", ring, "--n", str(n), f"--poly={poly}", "--format", fmt]


@settings(max_examples=150, deadline=5000, database=None)
@given(small_requests())
def test_cli_fuzz_exit_codes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        text = out.getvalue()
        if argv[-1] == "json":
            report = json.loads(text)
            multilinear, mode = report["multilinear"], report["oracle"]["mode"]
        else:
            multilinear = "multilinear: yes\n" in text
            mode = text.rsplit("oracle: ", 1)[1].split()[0]
        assert (mode == "degree") == (not multilinear)


BUDGET_REFUSAL = re.compile(
    r"error: \w.* would multiply at least (\d+) term pairs, "
    r"over the (parser|decision)'s budget of (\d+)\n"
)


@settings(max_examples=150, deadline=5000, database=None)
@given(small_requests(), st.integers(0, 16), st.integers(0, 64))
@example(["check", "--ring", "z", "--n", "3", "--poly=-x1*x3 - x3 - 1", "--format", "text"], 16, 4)
def test_cli_fuzz_up_to_the_budgets(argv, pair_budget, decision_budget):
    # patched in the body: hypothesis runs a function-scoped fixture once for all examples
    err = io.StringIO()
    with mock.patch.object(parse, "PAIR_BUDGET", pair_budget), \
            mock.patch.object(assoc, "DECISION_BUDGET", decision_budget), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2 and argv[4] != "1":  # n = 1 is refused by its range, before parsing
        refusal = BUDGET_REFUSAL.fullmatch(err.getvalue())
        assert refusal is not None, err.getvalue()
        required, budget = int(refusal[1]), int(refusal[3])
        assert budget == {"parser": pair_budget, "decision": decision_budget}[refusal[2]]
        assert required > budget
        event(f"refused by the {refusal[2]}'s budget")
