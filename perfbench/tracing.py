"""Spans and counters recorded around selfnorm's public layer functions.

`installed(tracer)` rebinds names in `selfnorm.harness` and
`selfnorm.diagnostics`, the two namespaces through which every layer reaches
the next, so the package itself is untouched and its own calls are recorded.
Pool workers are forked with the wrappers in place; each chunk sent to a pool
runs under `_child_call`, which ships the worker's spans and counters back
with the chunk's result.

A `Tracer(timed=False)` keeps the counters only and reads no clock; the
traced pass uses `Tracer(timed=True)`, which also records one span per call.
"""
from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager

# The tracer of the pass in progress. It is module-level because forked pool
# workers reach it from `_child_call`, a top-level (picklable) function.
_ACTIVE: "Tracer | None" = None


class Tracer:
    def __init__(self, timed: bool):
        self.timed = timed
        self.reset()

    def reset(self) -> None:
        self.counts: Counter = Counter()
        # (name, parent index or -1, start, end, pid); perf_counter is
        # CLOCK_MONOTONIC, so spans of forked workers share the parent's clock
        self.spans: list = []
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        # (kind, alpha, scale, master_seed, stream_index) -> largest n drawn:
        # the families guarantee that a length-m sample is the prefix of the
        # length-n sample of the same stream, so only the largest is needed
        self.needed: dict = {}
        self._stack: list = []

    def open(self) -> list | None:
        if not self.timed:
            return None
        frame = [len(self.spans), 0.0, time.perf_counter()]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def close(self, name: str, frame: list | None) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        self._stack.pop()
        index, child_s, start = frame
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, parent[0] if parent else -1, start, end, os.getpid())
        self.total_s[name] += end - start
        self.self_s[name] += end - start - child_s
        if parent is not None:
            parent[1] += end - start

    def call(self, name: str, fn, args, kwargs):
        frame = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name, frame)

    def export(self) -> dict:
        return {"counts": self.counts, "spans": self.spans, "self_s": self.self_s,
                "total_s": self.total_s, "needed": self.needed}

    def merge(self, part: dict) -> None:
        """Fold in a worker's records; its root spans hang under the open pool span.

        Worker time runs in parallel with the parent, so it is not charged
        to the parent's open span as child time.
        """
        offset = len(self.spans)
        root = self._stack[-1][0] if self._stack else -1
        for name, parent, start, end, pid in part["spans"]:
            self.spans.append((name, parent + offset if parent >= 0 else root, start, end, pid))
        self.counts.update(part["counts"])
        self.self_s.update(part["self_s"])
        self.total_s.update(part["total_s"])
        for key, n in part["needed"].items():
            self.needed[key] = max(self.needed.get(key, 0), n)


def _child_call(fn, args, kwargs):
    tracer = _ACTIVE
    tracer.reset()  # the forked copy still holds the parent's records
    result = tracer.call("harness.chunk", fn, args, kwargs)
    return result, tracer.export()


def _count_draws(tracer: Tracer, args, kwargs, out) -> None:
    spec, stream, n = args
    tracer.counts["families.draws"] += n
    key = (spec.kind, spec.alpha, spec.scale, stream.master_seed, stream.stream_index)
    tracer.needed[key] = max(tracer.needed.get(key, 0), n)


def _count_point(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["process.y_points"] += 1


def _count_points(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["process.y_points"] += len(out)


def _count_bytes(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["limits.oracle_bytes"] += os.path.getsize(args[1])


# attribute -> (span name, extra counter); every wrapped call is also counted
# under "<span name>.calls"
_HARNESS_NAMES = {
    "sample_family": ("families.sample_family", _count_draws),
    "ProcessPath": ("process.ProcessPath", None),
    "y_at": ("process.y_at", _count_point),
    "y_path": ("process.y_path", _count_points),
    "ek_functionals": ("process.ek_functionals", None),
    "modulus_of_continuity": ("diagnostics.modulus_of_continuity", None),
    "darling_ratio": ("diagnostics.darling_ratio", None),
    "max_ratio": ("diagnostics.max_ratio", None),
    "sum_sq_ratio": ("diagnostics.sum_sq_ratio", None),
    "ks_statistic": ("limits.ks_statistic", None),
    "ks_two_sample": ("limits.ks_two_sample", None),
    "limit_chf": ("limits.limit_chf", None),
    "load_oracle": ("limits.load_oracle", None),
    "save_oracle": ("limits.save_oracle", _count_bytes),
    "brownian_functional_oracle": ("limits.brownian_functional_oracle", None),
    "run_experiment": ("harness.run_experiment", None),
}
# modulus_of_continuity reaches y_path through the diagnostics namespace
_DIAGNOSTICS_NAMES = {"y_path": ("process.y_path", _count_points)}


def _wrap(tracer: Tracer, name: str, fn, extra):
    calls = name + ".calls"

    def wrapper(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        tracer.counts[calls] += 1
        if extra is not None:
            extra(tracer, args, kwargs, out)
        return out

    return wrapper


def _pool_class(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """Counts pools, spans their lifetime and collects the workers' records."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.counts["harness.pools_started"] += 1
            self._frame = tracer.open()

        def submit(self, fn, /, *args, **kwargs):
            inner = super().submit(_child_call, fn, args, kwargs)
            outer: Future = Future()

            # Runs on the pool's management thread while the harness thread
            # is blocked reading this future, so the tracer is not shared.
            def done(fut):
                try:
                    result, part = fut.result()
                    tracer.merge(part)
                except BaseException as exc:  # handed to the reader of `outer`
                    outer.set_exception(exc)
                else:
                    outer.set_result(result)

            inner.add_done_callback(done)
            return outer

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close("harness.pool", self._frame)

    return TracedPool


@contextmanager
def installed(tracer: Tracer):
    """Rebind the layer names to recording wrappers for the duration of a pass."""
    global _ACTIVE
    from selfnorm import diagnostics, harness

    saved = [(harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor)]
    for module, table in ((harness, _HARNESS_NAMES), (diagnostics, _DIAGNOSTICS_NAMES)):
        for attr, (name, extra) in table.items():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, _wrap(tracer, name, getattr(module, attr), extra))
    harness.ProcessPoolExecutor = _pool_class(tracer)
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = None
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# per-layer metric -> span names whose self time it sums; apart from the pool
# span, which overlaps its workers, each span name is in exactly one entry, so
# these times partition the traced time
LAYER_SPANS = {
    "families.sample_s": ("families.sample_family",),
    "process.path_s": ("process.ProcessPath",),
    "process.y_s": ("process.y_at", "process.y_path"),
    "process.ek_s": ("process.ek_functionals",),
    "diagnostics.modulus_s": ("diagnostics.modulus_of_continuity",),
    "diagnostics.ratios_s": ("diagnostics.darling_ratio", "diagnostics.max_ratio",
                             "diagnostics.sum_sq_ratio"),
    "harness.run_self_s": ("harness.run_experiment", "harness.chunk"),
    "limits.ks_s": ("limits.ks_statistic", "limits.ks_two_sample"),
    "limits.chf_quad_s": ("limits.limit_chf",),
    "limits.oracle_load_s": ("limits.load_oracle",),
    "limits.oracle_build_s": ("limits.brownian_functional_oracle",),
    "limits.oracle_save_s": ("limits.save_oracle",),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counters of a traced pass."""
    out = {metric: float(sum(tracer.self_s[name] for name in names))
           for metric, names in LAYER_SPANS.items()}
    # pool lifetime as the parent sees it, workers' time included
    out["harness.pool_wall_s"] = float(tracer.total_s["harness.pool"])
    counts = tracer.counts
    draws = counts["families.draws"]
    out["families.draws"] = draws
    # layers a workload does not exercise report 0, never NaN
    out["families.ns_per_draw"] = out["families.sample_s"] * 1e9 / draws if draws else 0.0
    out["families.useful_draw_ratio"] = sum(tracer.needed.values()) / draws if draws else 0.0
    out["process.y_points"] = counts["process.y_points"]
    out["diagnostics.modulus_calls"] = counts["diagnostics.modulus_of_continuity.calls"]
    out["harness.pools_started"] = counts["harness.pools_started"]
    out["limits.chf_evals"] = counts["limits.limit_chf.calls"]
    out["limits.oracle_loads"] = counts["limits.load_oracle.calls"]
    out["limits.oracle_bytes"] = counts["limits.oracle_bytes"]
    return out


def span_summary(tracer: Tracer) -> dict[str, dict]:
    spans = Counter(span[0] for span in tracer.spans)
    return {name: {"spans": spans[name], "total_s": tracer.total_s[name],
                   "self_s": tracer.self_s[name]}
            for name in sorted(tracer.total_s)}
