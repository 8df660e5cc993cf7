"""Algorithm x objective benchmark matrix with deterministic emitters.

Rows are produced objective-major, then algorithm, then seed. The
subdivision search takes no seed, so it runs once per objective and its
one row, wall time included, is emitted once per seed; the baselines run
once per seed and consume it. Markdown output mirrors
the comparison-table layout (Algorithm | Iterations | Optimal point |
Deviation); csv and json-lines are lossless and round-trip every field,
which the tests check with their own reader (tests/bench_reference.py).
All output is byte-deterministic except the wall_time_ms column.
"""

from __future__ import annotations

import io
import math
import time
from typing import NamedTuple, Sequence

from .baselines import (
    BaselineConfig,
    OptimRunResult,
    _initial,
    random_search,
    random_search_walk,
    simulated_annealing,
)
from .engine import DEFAULT_MAX_GENERATIONS, RunResult, SlmConfig, run_slm
from .geometry import Point, _Frozen, format_point
from .objectives import ObjectiveSpec, registry_lookup

DEFAULT_ITERATIONS = {"rs": 1000, "rsw": 500, "sa": 150}
_BASELINE_FNS = {
    "rs": random_search,
    "rsw": random_search_walk,
    "sa": simulated_annealing,
}
METHODS = ("slm",) + tuple(_BASELINE_FNS)


class AlgorithmSpec(_Frozen):
    """One column of the benchmark matrix.

    kind is one of METHODS. iterations applies to the baselines
    (defaults per DEFAULT_ITERATIONS) and initial_point to rsw and sa,
    the methods that start from a point; tolerance, max_generations and
    explore_all apply to slm (tolerance defaults to the widest domain
    side / 2**10).
    """

    __slots__ = ("kind", "iterations", "tolerance", "explore_all", "initial_point",
                 "max_generations")
    kind: str
    iterations: int | None
    tolerance: float | None
    explore_all: bool
    initial_point: Point | None
    max_generations: int

    def __init__(self, kind: str, iterations: int | None = None, tolerance: float | None = None,
                 explore_all: bool = False, initial_point: Point | None = None,
                 max_generations: int = DEFAULT_MAX_GENERATIONS) -> None:
        if kind not in METHODS:
            raise ValueError(f"unknown method {kind!r}; expected one of {', '.join(METHODS)}")
        if initial_point is not None and kind in ("slm", "rs"):
            raise ValueError(f"{kind} takes no initial point; only rsw and sa start from one")
        self._set(kind, iterations, tolerance, explore_all, initial_point, max_generations)


class BenchRow(NamedTuple):
    algorithm: str
    objective: str
    iterations: int
    found_point: Point
    found_value: float
    deviation: tuple[float, ...]
    wall_time_ms: float
    seed: int


def deviation(found: Point, optima: Sequence[Point]) -> tuple[float, ...]:
    """Componentwise |found - o| against the optimum o nearest to found
    in Euclidean distance (ties to the lexicographically smallest o)."""
    if not optima:
        raise ValueError("need at least one known optimum")
    # math.dist does not overflow where (a - b) ** 2 would, past 1.3e154
    nearest = min(optima, key=lambda o: (math.dist(found, o), o))
    return tuple(abs(a - b) for a, b in zip(found, nearest))


def default_tolerance(spec: ObjectiveSpec) -> float:
    return max(spec.domain.widths()) / 2**10


def slm_config(ospec: ObjectiveSpec, algo: AlgorithmSpec) -> SlmConfig:
    return SlmConfig(
        sense=ospec.sense,
        tolerance=algo.tolerance if algo.tolerance is not None else default_tolerance(ospec),
        max_generations=algo.max_generations,
        explore_all=algo.explore_all,
    )


def baseline_config(algo: AlgorithmSpec, seed: int) -> BaselineConfig:
    return BaselineConfig(
        iterations=algo.iterations if algo.iterations is not None else DEFAULT_ITERATIONS[algo.kind],
        seed=seed,
        initial_point=algo.initial_point,
    )


def run_method(ospec: ObjectiveSpec, algo: AlgorithmSpec,
               seed: int) -> tuple[RunResult | OptimRunResult, int]:
    """The one run path: run one method on one objective. Returns the
    result and its iteration count: the last generation index for slm,
    which ignores the seed (run_bench runs it once for all seeds), and
    the configured iterations for a baseline."""
    if algo.kind == "slm":
        res = run_slm(ospec.evaluator, ospec.domain, slm_config(ospec, algo))
        return res, res.generations[-1].index
    cfg = baseline_config(algo, seed)
    return _BASELINE_FNS[algo.kind](ospec, cfg), cfg.iterations


def _run_one(ospec: ObjectiveSpec, algo: AlgorithmSpec, seed: int) -> BenchRow:
    start = time.perf_counter()
    res, iterations = run_method(ospec, algo, seed)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return BenchRow(
        algorithm=algo.kind,
        objective=ospec.name,
        iterations=iterations,
        found_point=res.best_point,
        found_value=res.best_value,
        deviation=deviation(res.best_point, [p for p, _ in ospec.known_optima]),
        wall_time_ms=elapsed_ms,
        seed=seed,
    )


def run_bench(objectives: Sequence[str], algorithms: Sequence[AlgorithmSpec],
              repeats: int = 1) -> list[BenchRow]:
    """One row per (objective, algorithm, seed), in that nesting order,
    with seeds range(repeats). slm takes no seed, so it runs once per
    objective and spec and its row, wall_time_ms included, is repeated
    with each seed; each baseline runs once per seed. An empty matrix,
    repeats below 1, an unknown objective name, an objective with no
    known optimum to measure deviation from, a method setting its config
    rejects or an initial point of another dimension than an objective's
    aborts before any run starts."""
    if not objectives:
        raise ValueError("bench needs at least one objective")
    if not algorithms:
        raise ValueError("bench needs at least one method")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    specs = [registry_lookup(name) for name in objectives]
    for ospec in specs:
        if not ospec.known_optima:
            raise ValueError(f"objective {ospec.name!r} has no known optimum "
                             "to measure deviation from")
        for algo in algorithms:  # building each run's config checks its settings
            if algo.kind == "slm":
                slm_config(ospec, algo)
            else:  # seed 0 stands for every seed; _initial checks a start point
                _initial(ospec, baseline_config(algo, seed=0))
    rows = []
    for ospec in specs:
        for algo in algorithms:
            if algo.kind == "slm":
                row = _run_one(ospec, algo, 0)
                rows += [row._replace(seed=seed) for seed in range(repeats)]
            else:
                rows += [_run_one(ospec, algo, seed) for seed in range(repeats)]
    return rows


def emit_markdown(rows: Sequence[BenchRow]) -> str:
    by_objective: dict[str, list[BenchRow]] = {}
    for row in rows:
        by_objective.setdefault(row.objective, []).append(row)
    out = []
    for objective, group in by_objective.items():
        out.append(f"## {objective}")
        out.append("")
        out.append("| Algorithm | Iterations | Optimal point | Deviation |")
        out.append("| --- | --- | --- | --- |")
        for row in group:
            out.append(
                f"| {row.algorithm} | {row.iterations} "
                f"| {format_point(row.found_point)} | {format_point(row.deviation)} |"
            )
        out.append("")
    return "\n".join(out)


FIELD_NAMES = BenchRow._fields
_TEXT_FIELDS = ("algorithm", "objective")


# json and csv load here, not at import: a process that emits no csv or
# json-lines payload does not pay for them.
def emit_csv(rows: Sequence[BenchRow]) -> str:
    """algorithm and objective are plain cells; every other cell is the
    field's JSON text (vectors as arrays, floats in repr digits), so a
    reader recovers every field exactly."""
    import csv
    import json

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELD_NAMES)
    writer.writerows([[value if name in _TEXT_FIELDS else json.dumps(value)
                       for name, value in zip(FIELD_NAMES, row)]
                      for row in rows])
    return buf.getvalue()


def emit_json_lines(rows: Sequence[BenchRow]) -> str:
    import json

    return "".join([json.dumps(dict(zip(FIELD_NAMES, row))) + "\n" for row in rows])


_EMITTERS = {"markdown": emit_markdown, "csv": emit_csv, "json-lines": emit_json_lines}
FORMATS = tuple(_EMITTERS)


def emit_table(rows: Sequence[BenchRow], output_format: str) -> str:
    if output_format not in _EMITTERS:
        raise ValueError(f"unknown output format {output_format!r}")
    return _EMITTERS[output_format](rows)
