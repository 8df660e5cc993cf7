"""Algorithm x objective benchmark matrix with deterministic emitters.

Rows are produced objective-major, then algorithm, then seed. The
subdivision search is deterministic, so its rows repeat identically
across seeds; the baselines consume the seed. Markdown output mirrors
the comparison-table layout (Algorithm | Iterations | Optimal point |
Deviation); csv and json-lines are lossless and round-trip every field,
which the tests check with their own reader (tests/bench_reference.py).
All output is byte-deterministic except the wall_time_ms column.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, fields
from typing import Sequence

from .baselines import (
    BaselineConfig,
    OptimRunResult,
    random_search,
    random_search_walk,
    simulated_annealing,
)
from .engine import RunResult, SlmConfig, run_slm
from .geometry import Point, format_point
from .objectives import ObjectiveSpec, registry_lookup

DEFAULT_ITERATIONS = {"rs": 1000, "rsw": 500, "sa": 150}
_BASELINE_FNS = {
    "rs": random_search,
    "rsw": random_search_walk,
    "sa": simulated_annealing,
}
METHODS = ("slm",) + tuple(_BASELINE_FNS)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One column of the benchmark matrix.

    kind is one of METHODS. iterations applies to the baselines
    (defaults per DEFAULT_ITERATIONS) and initial_point to rsw and sa,
    the methods that start from a point; tolerance, max_generations and
    explore_all apply to slm (tolerance defaults to the widest domain
    side / 2**10).
    """

    kind: str
    iterations: int | None = None
    tolerance: float | None = None
    explore_all: bool = False
    initial_point: Point | None = None
    max_generations: int = SlmConfig.max_generations

    def __post_init__(self) -> None:
        if self.kind not in METHODS:
            raise ValueError(f"unknown method {self.kind!r}; expected one of {', '.join(METHODS)}")
        if self.initial_point is not None and self.kind in ("slm", "rs"):
            raise ValueError(f"{self.kind} takes no initial point; only rsw and sa start from one")


@dataclass(frozen=True)
class BenchSpec:
    objectives: tuple[str, ...]
    algorithms: tuple[AlgorithmSpec, ...]
    repeats: int = 1

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("bench needs at least one objective")
        if not self.algorithms:
            raise ValueError("bench needs at least one method")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")


@dataclass(frozen=True)
class BenchRow:
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
    nearest = min(
        optima,
        key=lambda o: (sum((a - b) ** 2 for a, b in zip(found, o)), o),
    )
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


def run_method(ospec: ObjectiveSpec, algo: AlgorithmSpec,
               seed: int) -> tuple[RunResult | OptimRunResult, int]:
    """The one run path: run one method on one objective. Returns the
    result and its iteration count: the last generation index for slm,
    which ignores the seed, and the configured iterations for a baseline."""
    if algo.kind == "slm":
        res = run_slm(ospec.evaluator, ospec.domain, slm_config(ospec, algo))
        return res, res.generations[-1].index
    cfg = BaselineConfig(
        iterations=algo.iterations if algo.iterations is not None else DEFAULT_ITERATIONS[algo.kind],
        seed=seed,
        initial_point=algo.initial_point,
    )
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


def run_bench(spec: BenchSpec) -> list[BenchRow]:
    """One row per (objective, algorithm, seed), in that nesting order.
    Unknown objective names abort before any run starts."""
    specs = [registry_lookup(name) for name in spec.objectives]
    return [_run_one(ospec, algo, seed) for ospec in specs
            for algo in spec.algorithms for seed in range(spec.repeats)]


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


FIELD_NAMES = tuple(f.name for f in fields(BenchRow))
_TEXT_FIELDS = ("algorithm", "objective")


def emit_csv(rows: Sequence[BenchRow]) -> str:
    """algorithm and objective are plain cells; every other cell is the
    field's JSON text (vectors as arrays, floats in repr digits), so a
    reader recovers every field exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELD_NAMES)
    for row in rows:
        writer.writerow([value if name in _TEXT_FIELDS else json.dumps(value)
                         for name, value in asdict(row).items()])
    return buf.getvalue()


def emit_json_lines(rows: Sequence[BenchRow]) -> str:
    return "\n".join(json.dumps(asdict(row)) for row in rows) + ("\n" if rows else "")


_EMITTERS = {"markdown": emit_markdown, "csv": emit_csv, "json-lines": emit_json_lines}
FORMATS = tuple(_EMITTERS)


def emit_table(rows: Sequence[BenchRow], output_format: str) -> str:
    if output_format not in _EMITTERS:
        raise ValueError(f"unknown output format {output_format!r}")
    return _EMITTERS[output_format](rows)
