#!/usr/bin/env python3
"""Benchmark of polyassoc: time to a verdict on three seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verdict-wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client drives a closed loop: each request goes to the public entry
point ``polyassoc.cli.main`` in this process once the previous one has
finished, and is timed from the call until its report is parsed.  A run
repeats whole passes over the workload's input list, as many as fit in
``--seconds`` at the seed commit, so every run sees the same mix.  Times
are scaled to reference speed by an interleaved probe (speed.py).  Each answer is checked
against the known answer the generator wrote down (see workloads.py).  A
request fails when it exits nonzero, answers wrongly, or runs past the
workload's per-request limit, where it is interrupted; a failed request
counts as missing every latency limit, so it enters the percentiles at the
limit.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's layers from outside (see layertrace.py), prints the per-layer metrics
per pass, and writes the spans to ``.bench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload untraced and traced, each in a fresh
interpreter, prints every metric with its unit and the tracing overhead, and
exits nonzero on any wrong verdict, family, parameter or census row.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verdict-wide", "analyze-dense", "census")
# Per-request limits: at least 3x the slowest request that finishes at the
# seed commit (1.5 s, 2.7 s and 4.6 s wall at worst on a 2-core 2.1 GHz Xeon
# VM), and under a third of the over-limit requests in verdict-wide (one-term
# inputs at n = 10-12, about 40 s and more), so the failed count repeats exactly.
LIMIT_S = {"verdict-wide": 5.0, "analyze-dense": 15.0, "census": 20.0}
# Tracing slows the hot layers 2-3x; the limit grows with it so a traced run
# fails exactly the requests an untraced run fails.
TRACE_LIMIT_FACTOR = 4
# Wall seconds of one pass at the seed commit on that machine.  A run makes
# round(--seconds / NOMINAL_PASS_S) whole passes, so every run of a workload
# does the same work and sees the same mix; a traced run makes one pass.
NOMINAL_PASS_S = {"verdict-wide": 10.0, "analyze-dense": 10.0, "census": 9.0}
SETUP_PROBES = 9
WARMUP = {
    "verdict-wide": ["classify", "--ring", "z", "--n", "3", "--poly", "x1 + x2 + x3 + 1",
                     "--format", "json"],
    "analyze-dense": ["analyze", "--ring", "q", "--n", "3",
                      "--poly", "2*(x1 + 1/2)*(x2 + 1/2)*(x3 + 1/2) - 1/2", "--format", "json"],
    "census": ["enumerate", "--ring", "z", "--n", "2", "--bound", "1", "--jobs", "1",
               "--out", str(OUT / "setup")],
}
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}


class RequestTimeout(BaseException):
    """Raised by the alarm when a request runs past the per-request limit."""


def _alarm(signum, frame):
    raise RequestTimeout


def timed_call(main, argv, limit: float, read, sampler=None):
    """Run main(argv) with output captured, under a limit.

    Returns (seconds, exit code, parsed report, error); the time runs from
    the call until ``read`` has parsed the report, less the time of speed
    probes the sampler ran inside it.  A request interrupted at the limit
    returns (seconds, None, None, TIMED_OUT).
    """
    out = io.StringIO()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        if sampler:
            sampler.start()
        try:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(argv))
                report, error = (read(out.getvalue()), None) if code == 0 else (None, None)
            except Exception as exc:  # a traceback breaks the exit-code contract
                code, report, error = None, None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if sampler:
                sampler.stop()
    except RequestTimeout:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if sampler:
            sampler.stop()
        elapsed, code, report, error = time.perf_counter() - start, None, None, TIMED_OUT
    if sampler:
        elapsed -= sampler.spent_s
    return elapsed, code, report, error


TIMED_OUT = "past the per-request limit"


@dataclass
class Outcome:
    label: str
    wall_s: float
    start: float  # perf_counter bounds of the request
    end: float
    limit_s: float
    failed: bool
    problems: list[str]
    probe_s: float = speed.REFERENCE_S  # local probe time, set once the run is over

    # The limit is a wall-clock cut, not work, so it is never scaled: scaling
    # it would make a loop with interrupted requests look faster on a slow
    # machine.
    def busy_s(self, scaled: bool) -> float:
        """Time the closed loop spent on this request."""
        if self.failed and not self.problems:  # interrupted at the limit
            return self.limit_s
        return speed.scaled(self.wall_s, self.probe_s) if scaled else self.wall_s

    def latency_s(self, scaled: bool) -> float:
        """Latency; a failed request counts as missing the limit."""
        if self.failed:
            return self.limit_s
        return speed.scaled(self.wall_s, self.probe_s) if scaled else self.wall_s


class Runner:
    """Runs one workload's items and keeps one outcome per request."""

    def __init__(self, workload: str, seed: int, trace: bool):
        from polyassoc.cli import main

        self.main = main
        self.workload = workload
        self.limit = LIMIT_S[workload] * (TRACE_LIMIT_FACTOR if trace else 1)
        self.tracer = None
        self.outcomes: list[Outcome] = []
        self.probes: list[tuple[float, float]] = []  # (time, seconds), in time order
        # tracing would charge in-request probes to the layers, so traced
        # runs probe only between requests
        self.sampler = None if trace else speed.Sampler()
        if workload == "census":
            self.items = list(workloads.CENSUS_BOXES)
            self.census_seed = workloads.census_seed(seed)
            self.expected = {box: workloads.expected_census(box) for box in self.items}
        else:
            self.items = workloads.request_list(workload, seed)

    def run_item(self, item) -> None:
        if self.workload == "census":
            argv, read, label = self._box_call(item)
        else:
            argv, read, label = item.argv, json.loads, item.label
        if self.tracer:
            self.tracer.begin_request(label)
        start = time.perf_counter()
        result = timed_call(self.main, argv, self.limit, read, self.sampler)
        end = time.perf_counter()
        problems = self._problems(item, result)
        failed = result[3] is TIMED_OUT or bool(problems)
        if self.tracer:
            self.tracer.end_request(label, failed)
        if self.sampler:
            self.probes += self.sampler.samples
        self.probes.append(speed.timed_probe())
        self.outcomes.append(Outcome(label, result[0], start, end, self.limit, failed, problems))

    def _box_call(self, box):
        out_dir = OUT / "census" / box.label.replace(":", "-")
        (out_dir / "census.csv").unlink(missing_ok=True)

        def read(stdout):
            return stdout, (out_dir / "census.csv").read_text()

        return box.argv(str(out_dir), self.census_seed), read, box.label

    def _problems(self, item, result) -> list[str]:
        _, code, report, error = result
        if error is TIMED_OUT:
            return []  # failed, but no wrong output
        if code != 0:
            return [f"exit code {code}" + (f" ({error})" if error else "")]
        if self.workload != "census":
            return workloads.check_report(report, item.expect)
        stdout, csv = report
        problems = []
        if f"candidates: {item.nominal}" not in stdout.splitlines():
            problems.append(f"candidate count is not {item.nominal}")
        survivors = len(self.expected[item].splitlines()) - 1
        if f"associative: {survivors}" not in stdout.splitlines():
            problems.append("survivor count differs from the family table")
        if csv != self.expected[item]:
            problems.append("census.csv differs from the family table")
        return problems

    def measure(self, passes: int) -> tuple[list[float], float]:
        """Run whole passes; returns the wall time of each pass and in total."""
        pass_times = []
        self.probes.append(speed.timed_probe())
        start = time.perf_counter()
        for k in range(passes):
            t0 = time.perf_counter()
            for item in self.items:
                if k == 0 or not getattr(item, "once", False):
                    self.run_item(item)
            pass_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        for o in self.outcomes:
            o.probe_s = speed.local_probe_s(self.probes, o.start, o.end)
        return pass_times, elapsed


def setup_times(workload: str) -> list[tuple[float, float]]:
    """(wall, reference-speed) set-up seconds in fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), json.dumps(WARMUP[workload])],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        wall, probe_s = map(float, proc.stdout.split())
        times.append((wall, speed.scaled(wall, probe_s)))
    return times


def machine_info() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    return {
        "machine": platform.machine(),
        "cpu": model,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def latency_figures(outcomes: list[Outcome], scaled: bool) -> dict[str, float]:
    """Latency percentiles and closed-loop throughput, at reference speed or as wall time."""
    ms = [1000 * o.latency_s(scaled) for o in outcomes]
    return {
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "throughput_rps": sum(not o.failed for o in outcomes) / sum(o.busy_s(scaled) for o in outcomes),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "polyassoc" / "__init__.py").is_file():
        print(f"error: no polyassoc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polyassoc
    import polyassoc.cli

    if Path(polyassoc.__file__).resolve().parent != SRC / "polyassoc":
        print(f"error: imported polyassoc from {polyassoc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup = [] if trace else setup_times(workload)
    runner = Runner(workload, seed, trace)
    with contextlib.redirect_stdout(io.StringIO()):
        polyassoc.cli.main(WARMUP[workload])
    signal.signal(signal.SIGALRM, _alarm)
    passes = 1 if trace else max(1, round(seconds / NOMINAL_PASS_S[workload]))

    if trace:
        from layertrace import Tracer, per_layer_metrics

        runner.tracer = Tracer(polyassoc)
        runner.tracer.install()
        try:
            pass_times, elapsed = runner.measure(passes)
        finally:
            runner.tracer.uninstall()
    else:
        pass_times, elapsed = runner.measure(passes)

    outcomes = runner.outcomes
    failed_labels = [o.label for o in outcomes if o.failed]
    problems = [(o.label, p) for o in outcomes for p in o.problems]
    rss = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    figures = {**latency_figures(outcomes, scaled=True), **rss}
    if trace:
        metrics = per_layer_metrics(runner.tracer, passes)
        units = {name: metric_unit(name) for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(s for _, s in setup), **figures}
        units = END_TO_END
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_info(), "passes": passes, "elapsed_s": elapsed,
        "pass_wall_s": pass_times, "limit_s": runner.limit,
        "attempted": len(outcomes), "failed": len(failed_labels),
        "failed_classes": {lb: failed_labels.count(lb) for lb in sorted(set(failed_labels))},
        "slowest_completed_wall_s": max((o.wall_s for o in outcomes if not o.failed), default=0.0),
        "problems": problems[:20],
        "setup_wall_s": [w for w, _ in setup], "setup_scaled_s": [s for _, s in setup],
        "end_to_end": figures,
        "end_to_end_wall": {**latency_figures(outcomes, scaled=False), **rss},
        "metrics": metrics,
    }
    if trace:
        record["top_layers_by_self_s"] = sorted(
            ((layer, s / passes) for layer, s in runner.tracer.layer_self().items()),
            key=lambda item: -item[1],
        )[:3]
        record["self_time_gap_s"] = runner.tracer.self_time_gap()
        runner.tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
    if workload == "census":
        per_pass = len(runner.items)
        census_s = statistics.median(
            sum(o.busy_s(True) for o in outcomes[k : k + per_pass])
            for k in range(0, len(outcomes), per_pass)
        )
        record["census_s"] = census_s
        record["candidates_per_s"] = sum(box.nominal for box in runner.items) / census_s
    with open(OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    report(record, metrics, units)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed_labels),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def metric_unit(name: str) -> str:
    if name == "assoc.masks_scanned":
        return "masks_computed"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    return "count"


def report(record: dict, metrics: dict, units: dict) -> None:
    m = record["machine"]
    n = record["attempted"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
          f"trace {record['trace']}")
    print(f"machine {m['machine']} {m['cpu']} ({m['cpus']} cpus), {m['platform']}, "
          f"python {m['python']}")
    print(f"passes {record['passes']}  attempted {n}  failed {record['failed']} "
          f"(failed_frac {record['failed'] / n:.4f}, per-request limit {record['limit_s']} s)")
    for label, count in record["failed_classes"].items():
        print(f"  failed: {label} x{count}")
    for label, problem in record["problems"]:
        print(f"  WRONG: {label}: {problem}")
    samples = {"setup_s": f"n={SETUP_PROBES} fresh interpreters", "peak_rss_mb": "n=1 process"}
    default = f"per pass; {n} requests" if record["trace"] else f"n={n} requests"
    for name, value in metrics.items():
        print(f"{name:38s} {value:16.6f} {units[name]:14s} ({samples.get(name, default)})")
    wall = record["end_to_end_wall"]
    setup_wall = f", setup_s {statistics.median(record['setup_wall_s']):.4f}" if record["setup_wall_s"] else ""
    print("times above are at reference speed (speed.py); as wall time: " + ", ".join(
        f"{k} {v:.4f}" for k, v in wall.items() if k != "peak_rss_mb") + setup_wall)
    if "census_s" in record:
        print(f"{'census_s':38s} {record['census_s']:16.6f} {'s':14s} (n={record['passes']} passes)")
        print(f"{'candidates_per_s':38s} {record['candidates_per_s']:16.1f} {'1/s':14s} "
              f"(n={record['passes']} passes)")
    if record["trace"]:
        print("end-to-end while traced: " + ", ".join(
            f"{k} {v:.4f}" for k, v in record["end_to_end"].items()))
        print("top layers by self time per pass: " + ", ".join(
            f"{layer} {s:.4f} s" for layer, s in record["top_layers_by_self_s"]))
        print(f"self times vs root spans: largest gap {record['self_time_gap_s']:.3g} s")


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in a fresh interpreter."""
    status = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:], file=sys.stderr)
                status = 1
                continue
            results[trace] = json.loads(lines[-1])
            with open(OUT / f"run-{workload}-seed{seed}-trace{trace}.json") as fh:
                results[f"record{trace}"] = json.load(fh)
        if "record0" in results and "record1" in results:
            plain, traced = results["record0"]["end_to_end"], results["record1"]["end_to_end"]
            print(f"tracing overhead on {workload} (traced minus untraced): " + ", ".join(
                f"{k} {traced[k] - plain[k]:+.4f}" for k in plain))
        print()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
