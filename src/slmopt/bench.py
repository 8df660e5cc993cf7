"""Algorithm x objective benchmark matrix with deterministic emitters.

Rows are produced objective-major, then algorithm, then seed. The
subdivision search is deterministic, so its rows repeat identically
across seeds; the baselines consume the seed. Markdown output mirrors
the comparison-table layout (Algorithm | Iterations | Optimal point |
Deviation); csv and json-lines are lossless and round-trip every field.
All output is byte-deterministic except the wall_time_ms column.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
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

FORMATS = ("markdown", "csv", "json-lines")
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

    kind is one of METHODS. iterations and initial_point apply to the
    baselines (iterations defaults per DEFAULT_ITERATIONS); tolerance,
    max_generations and explore_all apply to slm (tolerance defaults to
    the widest domain side / 2**10).
    """

    kind: str
    iterations: int | None = None
    tolerance: float | None = None
    explore_all: bool = False
    initial_point: Point | None = None
    max_generations: int = 60

    def __post_init__(self) -> None:
        if self.kind not in METHODS:
            raise ValueError(f"unknown method {self.kind!r}; expected one of {', '.join(METHODS)}")


@dataclass(frozen=True)
class BenchSpec:
    objectives: tuple[str, ...]
    algorithms: tuple[AlgorithmSpec, ...]
    repeats: int = 1
    output_format: str = "markdown"

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")


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


FIELD_NAMES = (
    "algorithm", "objective", "iterations", "found_point",
    "found_value", "deviation", "wall_time_ms", "seed",
)


def _row_dict(row: BenchRow) -> dict:
    return {
        "algorithm": row.algorithm,
        "objective": row.objective,
        "iterations": row.iterations,
        "found_point": list(row.found_point),
        "found_value": row.found_value,
        "deviation": list(row.deviation),
        "wall_time_ms": row.wall_time_ms,
        "seed": row.seed,
    }


def emit_csv(rows: Sequence[BenchRow]) -> str:
    """Vector fields are JSON arrays inside csv cells; floats use repr
    digits, so parse_csv recovers every field exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELD_NAMES)
    for row in rows:
        d = _row_dict(row)
        writer.writerow([
            d["algorithm"], d["objective"], d["iterations"],
            json.dumps(d["found_point"]), repr(d["found_value"]),
            json.dumps(d["deviation"]), repr(d["wall_time_ms"]), d["seed"],
        ])
    return buf.getvalue()


def parse_csv(text: str) -> list[BenchRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != FIELD_NAMES:
        raise ValueError(f"unexpected csv header: {header!r}")
    rows = []
    for rec in reader:
        rows.append(BenchRow(
            algorithm=rec[0],
            objective=rec[1],
            iterations=int(rec[2]),
            found_point=tuple(json.loads(rec[3])),
            found_value=float(rec[4]),
            deviation=tuple(json.loads(rec[5])),
            wall_time_ms=float(rec[6]),
            seed=int(rec[7]),
        ))
    return rows


def emit_json_lines(rows: Sequence[BenchRow]) -> str:
    return "\n".join(json.dumps(_row_dict(row)) for row in rows) + ("\n" if rows else "")


def emit_table(rows: Sequence[BenchRow], output_format: str) -> str:
    if output_format == "markdown":
        return emit_markdown(rows)
    if output_format == "csv":
        return emit_csv(rows)
    if output_format == "json-lines":
        return emit_json_lines(rows)
    raise ValueError(f"unknown output format {output_format!r}")
