import json
import sys
import time

import pytest

from polyassoc.cli import main

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


def test_invalid_flags_exit_code(capsys):
    code, _, _ = run(capsys, "check", "--ring", "r", "--n", "3", "--poly", "x1")
    assert code == 2
    code, _, _ = run(capsys, "check", "--ring", "z", "--poly", "x1")
    assert code == 2
    code, _, err = run(capsys, "check", "--ring", "z", "--n", "1", "--poly", "x1")
    assert code == 2 and "--n" in err


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


def test_enumerate_spot_check_failure_exit_code(tmp_path, capsys, monkeypatch):
    import polyassoc.cli as cli

    monkeypatch.setattr(cli, "assoc_pointwise", lambda p, cfg: False)
    code, _, err = run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "1",
        "--out", str(tmp_path / "census"),
    )
    assert code == 3
    assert "spot check" in err


def test_enumerate_prune_matches_default(tmp_path, capsys):
    a = tmp_path / "plain"
    b = tmp_path / "pruned"
    run(capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "2", "--out", str(a))
    run(
        capsys, "enumerate", "--ring", "z", "--n", "2", "--bound", "2",
        "--out", str(b), "--prune",
    )
    assert (a / "census.csv").read_text() == (b / "census.csv").read_text()
