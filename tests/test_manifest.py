"""Output manifest of the command line: one SHA-256 per record.

A record is one ``polyassoc.cli.main`` call.  ``cli_manifest.jsonl`` beside
this file keeps, one line per record, its label, its argv in clear and the
digest of its exit code, stdout and stderr (or of the ``census.csv`` it
wrote).  The records are

- every ``verdict-wide`` and ``analyze-dense`` request of the benchmark
  (``bench/workloads.request_list``) at seeds 1 and 2, in both formats;
- the four census boxes (``CENSUS_BOXES``): stdout with the output
  directory masked as ``<out>``, and ``census.csv``;
- argvs that end in argparse: usage errors, help and version, a ``--poly``
  value starting with ``-``, abbreviated and repeated flags, at
  ``COLUMNS=80``.

After a deliberate change of output, regenerate the manifest from the root
of a checkout with ``PYTHONPATH=src python3 tests/test_manifest.py`` and
name the changed records in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().parent / "cli_manifest.jsonl"
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

from polyassoc.cli import main  # noqa: E402

SEEDS = (1, 2)
CENSUS_SEED = 1
OUT = "<out>"
ARGPARSE_ARGVS = (
    (),
    ("--version",),
    ("--help",),
    ("check", "--help"),
    ("classify", "-h"),
    ("analyze", "--help"),
    ("enumerate", "--help"),
    ("chekc", "--ring", "z", "--n", "2", "--poly", "x1"),
    ("check", "--ring", "r", "--n", "3", "--poly", "x1"),
    ("check", "--ring", "z", "--n", "three", "--poly", "x1"),
    ("check", "--ring", "z", "--n", "3", "--format", "json"),
    ("check", "--ring", "z", "--n", "2", "--poly", "x1", "--format", "xml"),
    ("check", "--ring", "z", "--n", "2", "--poly", "-x1"),
    ("check", "--ring", "z", "--n", "2", "--poly=-x1", "--format", "json"),
    ("classify", "--ri", "z", "--n", "3", "--po", "x1 + x2 + x3", "--form", "json"),
    ("analyze", "--ring", "q", "--ring", "z", "--n", "3", "--poly", "x1 + x2 + x3"),
    ("check", "--ring", "z", "--n", "2", "--poly", "x1", "extra"),
)


def _call(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _format(argv, fmt: str) -> tuple[str, ...]:
    k = argv.index("--format")
    return argv[:k + 1] + (fmt,) + argv[k + 2:]


def compute() -> list[dict]:
    """Every record of the manifest, computed by the code under test."""
    records = []

    def add(label, argv, digest):
        records.append({"label": label, "argv": list(argv), "sha256": digest})

    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for workload in ("verdict-wide", "analyze-dense"):
            for seed in SEEDS:
                for k, request in enumerate(workloads.request_list(workload, seed)):
                    for fmt in ("json", "text"):
                        argv = _format(request.argv, fmt)
                        label = f"{workload}:seed{seed}:{k}:{request.label}:{fmt}"
                        add(label, argv, _digest(*_call(argv)))
        with tempfile.TemporaryDirectory() as tmp:
            seed = workloads.census_seed(CENSUS_SEED)
            for box in workloads.CENSUS_BOXES:
                out_dir = os.path.join(tmp, box.label.replace(":", "-"))
                code, out, err = _call(box.argv(out_dir, seed))
                argv = box.argv(OUT, seed)
                add(f"{box.label}:stdout", argv, _digest(code, out.replace(out_dir, OUT), err))
                with open(os.path.join(out_dir, "census.csv")) as fh:
                    add(f"{box.label}:census.csv", argv, _digest(fh.read()))
        for k, argv in enumerate(ARGPARSE_ARGVS):
            add(f"argv:{k}", argv, _digest(*_call(argv)))
    return records


def test_cli_output_matches_the_manifest():
    want = [json.loads(line) for line in MANIFEST.read_text().splitlines()]
    got = compute()
    assert [(r["label"], r["argv"]) for r in got] == [(r["label"], r["argv"]) for r in want]
    changed = [g["label"] for g, w in zip(got, want) if g["sha256"] != w["sha256"]]
    assert not changed, f"{len(changed)} records differ from {MANIFEST.name}: {changed[:20]}"


if __name__ == "__main__":
    MANIFEST.write_text("".join(json.dumps(r) + "\n" for r in compute()))
    print(f"wrote {MANIFEST}")
