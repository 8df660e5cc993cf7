"""The test suite's one reader of bench payloads, coded apart from
slmopt.bench: emit_csv's text and emit_json_lines' lines back to
BenchRows, so the round trips can be checked for equality.

test_bench and test_cli import it."""

import csv
import io
import json

from slmopt.bench import FIELD_NAMES, BenchRow

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
