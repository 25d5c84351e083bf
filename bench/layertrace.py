"""Per-layer tracing applied from outside the package.

The tracer replaces each layer's public functions at every module
attribute that binds them (``cli.is_associative`` and
``classify.is_associative`` get the same wrapper), plus a few methods the
per-layer metrics need, and puts every original back on ``uninstall``.
The package itself carries no instrumentation.

Each wrapped call is recorded in one of three ways:

* span: name, start, end, parent span and request id, one record per call;
* folded: hot calls (polynomial arithmetic and evaluation, ring helpers,
  the oracle's per-point composition) are summed per (request, parent span,
  name) into calls, total and self time, so memory stays bounded;
* counted: the hottest calls (ring coercion, zero/one reads, coefficient
  lookups) only bump a per-request counter; their time stays in the caller.

Self time is a call's duration minus the time of the wrapped calls directly
inside it, so the self times of one request add up to its root span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("rings", "poly", "parse", "assoc", "classify", "structure", "oracle")
ROOT_NAME = "cli.request"

SPAN, FOLD, COUNT = "span", "fold", "count"

# Methods wrapped on their classes: (module, class, attribute) -> (mode, name).
METHODS = {
    ("rings", "Ring", "coerce"): (COUNT, "rings.coerce"),
    ("rings", "Ring", "zero"): (COUNT, "rings.zero_one"),
    ("rings", "Ring", "one"): (COUNT, "rings.zero_one"),
    ("poly", "MultilinearPoly", "coeff"): (COUNT, "poly.coeff"),
    ("poly", "MultilinearPoly", "evaluate"): (FOLD, "poly.evaluate"),
    ("poly", "MultilinearPoly", "is_symmetric"): (FOLD, "poly.is_symmetric"),
    ("poly", "SparsePoly", "evaluate"): (FOLD, "poly.evaluate"),
    ("poly", "SparsePoly", "__mul__"): (FOLD, "poly.mul"),
    ("poly", "SparsePoly", "substitute"): (SPAN, "poly.substitute"),
}
# Module functions recorded folded instead of as spans.
FOLDED_LAYERS = ("rings", "poly")
FOLDED_FUNCTIONS = ("oracle.associated_value",)


def layer_functions(package) -> dict[str, tuple]:
    """Public functions of each layer module: name -> (function, mode)."""
    found = {}
    for layer in LAYERS:
        # not getattr(package, layer): the package's classify() hides its module
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for attr, value in vars(module).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or value.__module__ != module.__name__
                or inspect.isgeneratorfunction(value)
            ):
                continue
            name = f"{layer}.{attr}"
            fold = layer in FOLDED_LAYERS or name in FOLDED_FUNCTIONS
            found[name] = (value, FOLD if fold else SPAN)
    return found


class Tracer:
    """Wraps the package's layers and records spans for one process."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".")
        ]
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end, self_s)
        self.folded: dict[tuple, list] = {}  # (request, parent, name) -> [calls, total_s, self_s]
        self.requests: list[dict] = []
        self.stack: list[list] = []  # frames: [name, child_s, start, span id]
        self.counts: Counter = Counter()
        self.request_id = -1
        self._next_id = 0
        self._saved: list[tuple] = []  # (owner, attribute, original)

    # -- installing and removing the wrappers -------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (fn, mode) in layer_functions(self.package).items():
            wrapper = self._wrap(fn, name, mode)
            for module in self.modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapper)
        for (layer, cls_name, attr), (mode, name) in METHODS.items():
            cls = getattr(importlib.import_module(f"{self.package.__name__}.{layer}"), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                wrapper = property(self._wrap(original.fget, name, mode))
            else:
                wrapper = self._wrap(original, name, mode)
            for other, value in list(cls.__dict__.items()):
                if value is original:  # aliases such as __rmul__ = __mul__
                    self._replace(cls, other, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, mode: str):
        if mode == COUNT:
            tracer = self

            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        observe = OBSERVERS.get(name)
        stack = self.stack
        clock = time.perf_counter
        record = self._record_span if mode == SPAN else self._record_folded

        def timed(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, 0.0, self._new_id() if mode == SPAN else parent[3]]
            stack.append(frame)
            frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(self, parent, args, kwargs, None, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                parent[1] += duration
                record(frame, parent, end, duration)
            if observe is not None:
                observe(self, parent, args, kwargs, result, None)
            return result

        timed.__wrapped__ = fn
        return timed

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _record_span(self, frame, parent, end, duration) -> None:
        self.spans.append(
            (frame[3], parent[3], self.request_id, frame[0], frame[2], end, duration - frame[1])
        )

    def _record_folded(self, frame, parent, end, duration) -> None:
        key = (self.request_id, parent[3], frame[0])
        agg = self.folded.get(key)
        if agg is None:
            agg = self.folded[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]

    # -- requests --------------------------------------------------------------

    def begin_request(self, label: str) -> None:
        self.request_id = len(self.requests)
        self.counts = Counter()
        self.stack.clear()
        self.stack.append([ROOT_NAME, 0.0, time.perf_counter(), self._new_id()])

    def end_request(self, label: str, failed: bool) -> None:
        end = time.perf_counter()
        root = self.stack[0]
        del self.stack[:]  # drop frames an interrupt left open
        duration = end - root[2]
        self.spans.append((root[3], None, self.request_id, ROOT_NAME, root[2], end, duration - root[1]))
        self.requests.append({
            "id": self.request_id, "label": label, "failed": failed,
            "root": root[3], "duration_s": duration, "counts": dict(self.counts),
        })

    # -- results ----------------------------------------------------------------

    def totals(self):
        """Calls, inclusive and self seconds per name, and counts, over completed requests."""
        ok = {r["id"] for r in self.requests if not r["failed"]}
        calls, total, own = Counter(), Counter(), Counter()
        for _, _, req, name, start, end, self_s in self.spans:
            if req in ok:
                calls[name] += 1
                total[name] += end - start
                own[name] += self_s
        for (req, _, name), (n, t, s) in self.folded.items():
            if req in ok:
                calls[name] += n
                total[name] += t
                own[name] += s
        counts = Counter()
        for r in self.requests:
            if r["id"] in ok:
                counts.update(r["counts"])
        return calls, total, own, counts

    def self_time_gap(self) -> float:
        """Largest |sum of self times - root duration| over completed requests, in seconds."""
        sums = Counter()
        for _, _, req, _, _, _, self_s in self.spans:
            sums[req] += self_s
        for (req, _, _), (_, _, s) in self.folded.items():
            sums[req] += s
        return max(
            (abs(sums[r["id"]] - r["duration_s"]) for r in self.requests if not r["failed"]),
            default=0.0,
        )

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer over completed requests; the root is the cli layer."""
        _, _, own, _ = self.totals()
        layers = Counter()
        for name, s in own.items():
            layers[name.split(".")[0]] += s
        return dict(layers)

    def write(self, path) -> None:
        """Spans, folded records and request records as JSON lines."""
        with open(path, "w") as fh:
            for r in self.requests:
                fh.write(json.dumps({"request": r}) + "\n")
            for span in self.spans:
                fh.write(json.dumps({"span": span}) + "\n")
            for (req, parent, name), (n, t, s) in self.folded.items():
                fh.write(json.dumps({"folded": [req, parent, name, n, t, s]}) + "\n")


# -- observers: counts read off arguments and results at the layer boundary --


def _terms_out(tracer, parent, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["parse.terms_out"] += len(result.terms)


def _masks(tracer, parent, args, kwargs, result, exc):
    # computed, not observed: the closed form walks all 2^(2n-1) masks
    tracer.counts["assoc.masks_scanned"] += 1 << (2 * args[0].n - 1)


def _shortcut(tracer, parent, args, kwargs, result, exc):
    if exc is None and result and parent[0] == "assoc.associative_multilinear":
        tracer.counts["assoc.shortcut"] += 1


def _medial(tracer, parent, args, kwargs, result, exc):
    if exc is None and result[1] == "sampled":
        tracer.counts["structure.is_medial.sampled"] += 1


def _pointwise(tracer, parent, args, kwargs, result, exc):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    if exc is None:
        tracer.counts[f"oracle.assoc_pointwise.{cfg.mode}"] += 1
    elif cfg.mode == "grid" and type(exc).__name__ == "BudgetError":
        tracer.counts["oracle.grid_fallbacks"] += 1


def _enumeration(tracer, parent, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["oracle.enumerate.checked"] += result.checked
        tracer.counts["oracle.enumerate.bulk_rejected"] += result.bulk_rejected
        tracer.counts["oracle.enumerate.total"] += result.total


OBSERVERS = {
    "parse.parse_poly": _terms_out,
    "assoc.compose_closed_form": _masks,
    "poly.is_symmetric": _shortcut,
    "structure.is_medial": _medial,
    "oracle.assoc_pointwise": _pointwise,
    "oracle.enumerate_associative": _enumeration,
}


# Which end-to-end metric, on which workload, each per-layer metric should
# move.  On census, throughput_rps is boxes per second, so it moves with the
# census_s and candidates_per_s figures the run also prints.  classify and
# cli are guards: they should move nothing.
_RINGS = [("throughput_rps", "census"), ("latency_p50_ms", "verdict-wide")]
_EVAL = [("latency_p90_ms", "verdict-wide"), ("latency_p90_ms", "analyze-dense")]
_ANALYZE = [("latency_p50_ms", "analyze-dense")]
_ASSOC = [("latency_p50_ms", "verdict-wide"), ("latency_p90_ms", "verdict-wide"),
          ("throughput_rps", "census")]
_STRUCTURE = [("latency_p50_ms", "analyze-dense"), ("latency_p90_ms", "analyze-dense")]
_GRID = [("latency_p90_ms", "verdict-wide")]
_CENSUS = [("throughput_rps", "census")]
MOVES = {
    "rings.coerce.calls": _RINGS, "rings.zero_one.reads": _RINGS, "rings.self_s": _RINGS,
    "poly.coeff.calls": _CENSUS, "poly.evaluate.calls": _EVAL, "poly.evaluate.s": _EVAL,
    "poly.mul.calls": _ANALYZE, "poly.mul.s": _ANALYZE, "poly.self_s": _EVAL + _ANALYZE,
    "parse.parse_poly.s": _ANALYZE, "parse.terms_out": _ANALYZE, "parse.self_s": _ANALYZE,
    "assoc.is_associative.s": _ASSOC, "assoc.is_associative.self_s": _ASSOC,
    "assoc.compose_closed_form.calls": _ASSOC, "assoc.compose_closed_form.s": _ASSOC,
    "assoc.compose_substitution.calls": _ASSOC, "assoc.compose_substitution.s": _ASSOC,
    "assoc.masks_scanned": _ASSOC, "assoc.shortcut_frac": _ASSOC, "assoc.self_s": _ASSOC,
    "classify.classify_associative.calls": [], "classify.classify_associative.s": [],
    "classify.self_s": [],
    "structure.analyze.s": _STRUCTURE, "structure.is_medial.s": _STRUCTURE,
    "structure.is_medial.sampled": _STRUCTURE, "structure.verify_skew.s": _STRUCTURE,
    "structure.skew_is_endomorphism.s": _STRUCTURE, "structure.iterate_binary.s": _STRUCTURE,
    "structure.self_s": _STRUCTURE,
    "oracle.assoc_pointwise.calls": _GRID, "oracle.assoc_pointwise.s": _GRID,
    "oracle.associated_value.calls": _GRID, "oracle.grid_fallbacks": _GRID,
    "oracle.grid_frac": _GRID,
    "oracle.enumerate_associative.s": _CENSUS, "oracle.enumerate.checked": _CENSUS,
    "oracle.enumerate.bulk_rejected": _CENSUS, "oracle.enumerate.checked_frac": _CENSUS,
    "oracle.polys_equal_oracle.s": _CENSUS, "oracle.self_s": _GRID + _CENSUS,
    "cli.self_s": [],
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics, per pass over the workload's input list."""
    calls, total, own, counts = tracer.totals()
    layers = tracer.layer_self()
    per = {
        "rings.coerce.calls": counts["rings.coerce"],
        "rings.zero_one.reads": counts["rings.zero_one"],
        "poly.coeff.calls": counts["poly.coeff"],
        "poly.evaluate.calls": calls["poly.evaluate"],
        "poly.evaluate.s": total["poly.evaluate"],
        "poly.mul.calls": calls["poly.mul"],
        "poly.mul.s": total["poly.mul"],
        "parse.parse_poly.s": total["parse.parse_poly"],
        "parse.terms_out": counts["parse.terms_out"],
        "assoc.is_associative.s": total["assoc.is_associative"],
        "assoc.is_associative.self_s": own["assoc.is_associative"],
        "assoc.compose_closed_form.calls": calls["assoc.compose_closed_form"],
        "assoc.compose_closed_form.s": total["assoc.compose_closed_form"],
        "assoc.compose_substitution.calls": calls["assoc.compose_substitution"],
        "assoc.compose_substitution.s": total["assoc.compose_substitution"],
        "assoc.masks_scanned": counts["assoc.masks_scanned"],
        "classify.classify_associative.calls": calls["classify.classify_associative"],
        "classify.classify_associative.s": total["classify.classify_associative"],
        "structure.analyze.s": total["structure.analyze"],
        "structure.is_medial.s": total["structure.is_medial"],
        "structure.is_medial.sampled": counts["structure.is_medial.sampled"],
        "structure.verify_skew.s": total["structure.verify_skew"],
        "structure.skew_is_endomorphism.s": total["structure.skew_is_endomorphism"],
        "structure.iterate_binary.s": total["structure.iterate_binary"],
        "oracle.assoc_pointwise.calls": calls["oracle.assoc_pointwise"],
        "oracle.assoc_pointwise.s": total["oracle.assoc_pointwise"],
        "oracle.associated_value.calls": calls["oracle.associated_value"],
        "oracle.grid_fallbacks": counts["oracle.grid_fallbacks"],
        "oracle.enumerate_associative.s": total["oracle.enumerate_associative"],
        "oracle.enumerate.checked": counts["oracle.enumerate.checked"],
        "oracle.enumerate.bulk_rejected": counts["oracle.enumerate.bulk_rejected"],
        "oracle.polys_equal_oracle.s": total["oracle.polys_equal_oracle"],
        "cli.self_s": own[ROOT_NAME],
    }
    per.update({f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS})
    out = {name: value / passes for name, value in per.items()}
    # ratios are the same per pass and overall
    out["assoc.shortcut_frac"] = _ratio(counts["assoc.shortcut"], calls["assoc.associative_multilinear"])
    out["oracle.grid_frac"] = _ratio(
        counts["oracle.assoc_pointwise.grid"],
        counts["oracle.assoc_pointwise.grid"] + counts["oracle.assoc_pointwise.random"],
    )
    out["oracle.enumerate.checked_frac"] = _ratio(
        counts["oracle.enumerate.checked"], counts["oracle.enumerate.total"]
    )
    return out
