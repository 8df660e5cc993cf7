"""Spans for the traced run, and the per-layer metrics taken from them.

The traced run rebinds only the module-level names that slmopt's callers
look up (``slmopt.engine.label_grid``, ``slmopt.cli.run_bench``, the
baseline dispatch tables, ...) to wrappers that record a span: name,
start, end, parent span and op id. Objective calls are too many to keep
one span each, so each call adds its count and time to the span it runs
in, as one aggregated child. Spans stay in memory and are written out
when the run ends. A span's self time is its duration minus the time its
child spans and its objective calls cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Sequence
from unittest import mock

import slmopt.bench
import slmopt.cli
import slmopt.engine
from workloads import Counting

# span name -> the per-layer metric its self time adds to
SELF_METRIC = {
    "engine.run_slm": "engine.self_ms",
    "labeling.label_grid": "labeling.self_ms",
    "geometry.subdivide": "geometry.self_ms",
    "geometry.corners": "geometry.self_ms",
    "geometry.splittable": "geometry.self_ms",
    "baselines.rs": "baselines.rs_ms",
    "baselines.rsw": "baselines.rsw_ms",
    "baselines.sa": "baselines.sa_ms",
    "bench.run_bench": "bench.self_ms",
    "bench.emit_table": "bench.emit_ms",
    "trace.build": "trace.build_ms",
    "trace.write": "trace.write_ms",
    "cli.main": "cli.self_ms",
}

# Per-layer metrics: name -> (unit, better). Times are self times in ms
# per op, counts are per op, ratios are ratios of totals.
PER_LAYER = {
    "objectives.calls": ("calls", "lower"),
    "objectives.distinct_points": ("count", "lower"),
    "objectives.calls_per_point": ("ratio", "lower"),
    "objectives.self_ms": ("ms", "lower"),
    "labeling.grids": ("count", "lower"),
    "labeling.vertices": ("count", "lower"),
    "labeling.self_ms": ("ms", "lower"),
    "labeling.us_per_vertex": ("us", "lower"),
    "geometry.subdivide_calls": ("count", "lower"),
    "geometry.self_ms": ("ms", "lower"),
    "engine.generations": ("count", "lower"),
    "engine.records": ("count", "lower"),
    "engine.complete_cells": ("count", "lower"),
    "engine.fallback_ratio": ("ratio", "lower"),
    "engine.frontier_max": ("count", "lower"),
    "engine.self_ms": ("ms", "lower"),
    "baselines.rs_ms": ("ms", "lower"),
    "baselines.rsw_ms": ("ms", "lower"),
    "baselines.sa_ms": ("ms", "lower"),
    "baselines.evaluations": ("calls", "lower"),
    "bench.rows": ("count", "higher"),
    "bench.self_ms": ("ms", "lower"),
    "bench.emit_ms": ("ms", "lower"),
    "bench.bytes": ("bytes", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.build_ms": ("ms", "lower"),
    "trace.write_ms": ("ms", "lower"),
    "trace.files": ("count", "lower"),
    "trace.bytes": ("bytes", "lower"),
    "import.total_ms": ("ms", "lower"),
    "import.slmopt_ms": ("ms", "lower"),
    "import.geometry_ms": ("ms", "lower"),
    "import.labeling_ms": ("ms", "lower"),
    "import.objectives_ms": ("ms", "lower"),
    "import.engine_ms": ("ms", "lower"),
    "import.baselines_ms": ("ms", "lower"),
    "import.bench_ms": ("ms", "lower"),
    "import.trace_ms": ("ms", "lower"),
    "import.deps_ms": ("ms", "lower"),
    "tracing.overhead_ms": ("ms", "lower"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "obj_calls", "obj_s")

    def __init__(self, name: str, start: float, end: float, parent: int | None,
                 op: int, obj_calls: int = 0, obj_s: float = 0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.obj_calls = obj_calls
        self.obj_s = obj_s


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus its children's durations and its
    aggregated objective time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - child[i] - s.obj_s for i, s in enumerate(spans)]


class Tracer(Counting):
    """Traced hooks: counts like Counting, and records spans around every
    call into a layer while ``installed``."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._points: set = set()
        self._frontier_max = 0
        self.ops = 0
        self.counts: Counter = Counter()

    def begin_op(self) -> None:
        self._op += 1
        self._points.clear()
        self._frontier_max = 0

    def end_op(self) -> None:
        self.ops += 1
        self.counts["objectives.distinct_points"] += len(self._points)
        self.counts["engine.frontier_max"] += self._frontier_max

    def call(self, name: str, fn: Callable, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(sid)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out
        return traced

    def objective(self, f):
        spans, stack, points = self.spans, self._stack, self._points
        clock = time.perf_counter

        def timed(p):
            self.calls += 1
            start = clock()
            v = f(p)
            span = spans[stack[-1]]
            span.obj_s += clock() - start
            span.obj_calls += 1
            points.add(p)
            return v
        return timed

    def run_slm(self, f, domain, config):
        return self._wrap("engine.run_slm", slmopt.engine.run_slm, self._on_run_slm)(
            f, domain, config)

    def cli_main(self, argv):
        return self.call("cli.main", slmopt.cli.main, argv)

    def _on_run_slm(self, args, res) -> None:
        gens = res.generations
        c = self.counts
        c["engine.generations"] += gens[-1].index + 1
        c["engine.records"] += len(gens)
        c["engine.complete_cells"] += sum(len(g.complete_cells) for g in gens)
        c["engine.fallbacks"] += sum(g.fallback_used for g in gens)
        widest = max(Counter(g.index for g in gens).values())
        self._frontier_max = max(self._frontier_max, widest)

    def _count(self, metric: str, size: Callable) -> Callable:
        def on_result(args, out) -> None:
            self.counts[metric] += size(args, out)
        return on_result

    def patches(self) -> list:
        engine, bench, cli = slmopt.engine, slmopt.bench, slmopt.cli
        w = self._wrap
        run_slm = w("engine.run_slm", engine.run_slm, self._on_run_slm)
        out = super().patches() + [
            mock.patch.object(engine, "label_grid", w(
                "labeling.label_grid", engine.label_grid,
                self._count("labeling.vertices", lambda a, o: len(a[1])))),
            mock.patch.object(engine, "subdivide", w("geometry.subdivide", engine.subdivide)),
            mock.patch.object(engine, "corners", w("geometry.corners", engine.corners)),
            mock.patch.object(engine, "splittable", w("geometry.splittable", engine.splittable)),
            mock.patch.object(bench, "run_slm", run_slm),
            mock.patch.object(cli, "run_slm", run_slm),
            mock.patch.object(cli, "run_bench", w(
                "bench.run_bench", cli.run_bench,
                self._count("bench.rows", lambda a, o: len(o)))),
            mock.patch.object(cli, "emit_table", w(
                "bench.emit_table", cli.emit_table,
                self._count("bench.bytes", lambda a, o: len(o.encode())))),
            mock.patch.object(cli, "build_trace_document",
                              w("trace.build", cli.build_trace_document)),
            mock.patch.object(cli, "write_trace", w(
                "trace.write", cli.write_trace, self._on_write_trace)),
        ]
        evaluations = self._count("baselines.evaluations", lambda a, o: o.evaluations)
        for table in (bench._BASELINE_FNS, cli._BASELINES):
            out.append(mock.patch.dict(table, {
                kind: w(f"baselines.{kind}", fn, evaluations) for kind, fn in table.items()
            }))
        return out

    def _on_write_trace(self, args, written) -> None:
        self.counts["trace.files"] += len(written)
        self.counts["trace.bytes"] += sum(os.path.getsize(p) for p in written)

    def layer_metrics(self) -> dict[str, float]:
        """Per-op means of every span-derived per-layer metric."""
        totals: defaultdict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[SELF_METRIC[span.name]] += own
            totals["objectives.self_ms"] += span.obj_s
            totals["objectives.calls"] += span.obj_calls
            if span.name == "labeling.label_grid":
                totals["labeling.grids"] += 1
            elif span.name == "geometry.subdivide":
                totals["geometry.subdivide_calls"] += 1
        for name in set(SELF_METRIC.values()):
            totals[name] *= 1000.0
        totals["objectives.self_ms"] *= 1000.0
        totals.update(self.counts)
        out = {name: totals[name] / self.ops for name in PER_LAYER
               if not name.startswith(("import.", "tracing."))}
        out["objectives.calls_per_point"] = _ratio(
            totals["objectives.calls"], totals["objectives.distinct_points"])
        out["engine.fallback_ratio"] = _ratio(totals["engine.fallbacks"], totals["engine.records"])
        out["labeling.us_per_vertex"] = _ratio(
            totals["labeling.self_ms"] * 1000.0, totals["labeling.vertices"])
        return out

    def write(self, path: str) -> None:
        """Every span as one JSON line: name, start, end, parent, op and
        the objective calls aggregated into it."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op,
                    "objective_calls": s.obj_calls, "objective_s": s.obj_s,
                }) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
