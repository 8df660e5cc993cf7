"""The test suite's one reader of bench payloads, coded apart from
slmopt.bench: emit_csv's text and emit_json_lines' lines back to
BenchRows, so the round trips can be checked for equality. Also a
reference matrix that runs every method once per seed, slm included.

test_bench and test_cli import it."""

import csv
import io
import json

from slmopt.bench import FIELD_NAMES, BenchRow, deviation, run_method
from slmopt.objectives import registry_lookup

TEXT_CELLS = ("algorithm", "objective")


def _field(value):
    """A decoded JSON value as BenchRow holds it: arrays become tuples."""
    return tuple(value) if isinstance(value, list) else value


def parse_csv(text):
    """algorithm and objective are text cells, every other cell is JSON.
    A header other than FIELD_NAMES raises ValueError."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != FIELD_NAMES:
        raise ValueError(f"unexpected csv header: {header!r}")
    return [BenchRow(**{name: cell if name in TEXT_CELLS else _field(json.loads(cell))
                        for name, cell in zip(FIELD_NAMES, record)})
            for record in reader]


def parse_json_lines(text):
    """One JSON object per line, keyed by field name."""
    return [BenchRow(**{name: _field(value) for name, value in json.loads(line).items()})
            for line in text.splitlines()]


def mask_wall_time(rows):
    """The rows with wall_time_ms zeroed, the one field that differs
    between runs of the same bench."""
    return [row._replace(wall_time_ms=0.0) for row in rows]


def run_bench_per_seed(objectives, algorithms, repeats):
    """run_bench's rows, wall_time_ms zeroed, from one run_method call per
    (objective, algorithm, seed): slm runs once for each seed as well.
    Checks no input."""
    specs = [registry_lookup(name) for name in objectives]
    return [BenchRow(algo.kind, ospec.name, iterations, res.best_point, res.best_value,
                     deviation(res.best_point, [p for p, _ in ospec.known_optima]), 0.0, seed)
            for ospec in specs for algo in algorithms for seed in range(repeats)
            for res, iterations in [run_method(ospec, algo, seed)]]
