"""Benchmark matrix: row production, deviation metric, emitters."""

import json
import math

import pytest

from slmopt.bench import (
    DEFAULT_ITERATIONS,
    FIELD_NAMES,
    AlgorithmSpec,
    BenchRow,
    BenchSpec,
    default_tolerance,
    deviation,
    emit_csv,
    emit_json_lines,
    emit_markdown,
    emit_table,
    run_bench,
)
from slmopt.objectives import UnknownObjectiveError, registry_lookup

from bench_reference import parse_csv, parse_json_lines


def small_spec(**kw):
    defaults = dict(
        objectives=("sphere_min",),
        algorithms=(AlgorithmSpec("slm", tolerance=0.0625),
                    AlgorithmSpec("rs", iterations=50)),
        repeats=1,
    )
    defaults.update(kw)
    return BenchSpec(**defaults)


# ---------------------------------------------------------------------------
# deviation
# ---------------------------------------------------------------------------

def test_deviation_componentwise_abs():
    assert deviation((0.5, -1.0), [(0.0, 0.0)]) == (0.5, 1.0)
    assert deviation((1.0, 1.0), [(1.0, 1.0)]) == (0.0, 0.0)


def test_deviation_picks_nearest_optimum():
    optima = [(-2.0, -2.0), (2.0, -2.0)]
    assert deviation((1.9, -2.0), optima) == (abs(1.9 - 2.0), 0.0)
    assert deviation((-1.5, -1.0), optima) == (0.5, 1.0)


def test_deviation_tie_goes_to_lex_smallest():
    assert deviation((1.5,), [(2.0,), (1.0,)]) == (0.5,)
    # computed against (1.0,), not (2.0,)
    assert deviation((1.5, 0.0), [(1.0, 0.0), (2.0, 0.0)]) == (0.5, 0.0)


def test_deviation_needs_an_optimum():
    with pytest.raises(ValueError):
        deviation((0.0,), [])


def test_default_tolerance_is_width_over_1024():
    assert default_tolerance(registry_lookup("sphere_min")) == 0.00390625
    assert default_tolerance(registry_lookup("shekel")) == 0.128


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_algorithm_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        AlgorithmSpec("gradient_descent")


def test_bench_spec_validation():
    with pytest.raises(ValueError):
        small_spec(repeats=0)


@pytest.mark.parametrize("field", ("objectives", "algorithms"))
def test_bench_spec_rejects_an_empty_matrix(field):
    with pytest.raises(ValueError, match="at least one"):
        small_spec(**{field: ()})


def test_unknown_objective_aborts_before_running():
    spec = small_spec(objectives=("sphere_min", "nope"))
    with pytest.raises(UnknownObjectiveError):
        run_bench(spec)


# ---------------------------------------------------------------------------
# Row production
# ---------------------------------------------------------------------------

def test_row_order_is_objective_major():
    spec = BenchSpec(
        objectives=("sphere_min", "rosenbrock"),
        algorithms=(AlgorithmSpec("slm", tolerance=0.25),
                    AlgorithmSpec("rs", iterations=20)),
        repeats=2,
    )
    rows = run_bench(spec)
    key = [(r.objective, r.algorithm, r.seed) for r in rows]
    assert key == [
        ("sphere_min", "slm", 0), ("sphere_min", "slm", 1),
        ("sphere_min", "rs", 0), ("sphere_min", "rs", 1),
        ("rosenbrock", "slm", 0), ("rosenbrock", "slm", 1),
        ("rosenbrock", "rs", 0), ("rosenbrock", "rs", 1),
    ]


def test_slm_rows_ignore_the_seed():
    spec = small_spec(repeats=3)
    rows = [r for r in run_bench(spec) if r.algorithm == "slm"]
    assert len(rows) == 3
    assert len({r.found_point for r in rows}) == 1
    assert len({r.iterations for r in rows}) == 1


def test_slm_iterations_are_generation_count():
    rows = run_bench(small_spec())
    slm = next(r for r in rows if r.algorithm == "slm")
    assert slm.iterations == 6  # halvings of width 4 down to 0.0625
    assert abs(slm.found_point[1] - 0.4) <= 0.0625
    assert slm.deviation == (abs(slm.found_point[0] - 0.0),
                             abs(slm.found_point[1] - 0.4))


def test_baseline_rows_consume_the_seed():
    spec = small_spec(repeats=2)
    rs = [r for r in run_bench(spec) if r.algorithm == "rs"]
    assert [r.seed for r in rs] == [0, 1]
    assert rs[0].found_point != rs[1].found_point
    assert all(r.iterations == 50 for r in rs)


def test_baseline_default_iterations():
    spec = small_spec(algorithms=(AlgorithmSpec("rs"), AlgorithmSpec("rsw"),
                                  AlgorithmSpec("sa")))
    rows = run_bench(spec)
    assert [r.iterations for r in rows] == [
        DEFAULT_ITERATIONS["rs"], DEFAULT_ITERATIONS["rsw"],
        DEFAULT_ITERATIONS["sa"],
    ]


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def test_markdown_shape():
    text = emit_markdown(run_bench(small_spec()))
    lines = text.splitlines()
    assert lines[0] == "## sphere_min"
    assert lines[2] == "| Algorithm | Iterations | Optimal point | Deviation |"
    assert lines[3] == "| --- | --- | --- | --- |"
    assert lines[4].startswith("| slm | 6 | (")
    assert lines[5].startswith("| rs | 50 | (")
    assert emit_markdown([]) == ""


def test_markdown_groups_by_objective():
    spec = small_spec(objectives=("sphere_min", "rosenbrock"))
    text = emit_markdown(run_bench(spec))
    assert text.index("## sphere_min") < text.index("## rosenbrock")
    assert text.count("| Algorithm |") == 2


def test_csv_round_trip_is_lossless():
    rows = run_bench(small_spec(repeats=2))
    assert parse_csv(emit_csv(rows)) == rows


def test_csv_header_and_vector_cells():
    text = emit_csv(run_bench(small_spec()))
    lines = text.splitlines()
    assert lines[0] == ",".join(FIELD_NAMES)
    assert '"[' in lines[1]  # point serialized as a JSON array cell
    with pytest.raises(ValueError):
        parse_csv("a,b\n1,2\n")


def test_row_encodings_are_pinned():
    row = BenchRow("rs", "trig", 30, (0.5, -1.25), 0.1, (1e-17, 3.0), 2.5, 4)
    assert FIELD_NAMES == ("algorithm", "objective", "iterations", "found_point",
                           "found_value", "deviation", "wall_time_ms", "seed")
    assert emit_csv([row]).splitlines()[1] == \
        'rs,trig,30,"[0.5, -1.25]",0.1,"[1e-17, 3.0]",2.5,4'
    assert emit_json_lines([row]) == (
        '{"algorithm": "rs", "objective": "trig", "iterations": 30, '
        '"found_point": [0.5, -1.25], "found_value": 0.1, "deviation": [1e-17, 3.0], '
        '"wall_time_ms": 2.5, "seed": 4}\n')
    [back] = parse_csv(emit_csv([row]))
    assert back == row and isinstance(back.iterations, int)


def test_json_lines_fields():
    rows = run_bench(small_spec())
    text = emit_json_lines(rows)
    assert text.endswith("\n")
    parsed = [json.loads(line) for line in text.splitlines()]
    assert len(parsed) == len(rows)
    for rec, row in zip(parsed, rows):
        assert set(rec) == set(FIELD_NAMES)
        assert rec["algorithm"] == row.algorithm
        assert tuple(rec["found_point"]) == row.found_point
        assert math.isclose(rec["found_value"], row.found_value, rel_tol=1e-15)
    assert parse_json_lines(text) == rows
    assert emit_json_lines([]) == ""


def test_emit_table_dispatch():
    rows = run_bench(small_spec())
    assert emit_table(rows, "markdown") == emit_markdown(rows)
    assert emit_table(rows, "csv") == emit_csv(rows)
    assert emit_table(rows, "json-lines") == emit_json_lines(rows)
    with pytest.raises(ValueError):
        emit_table(rows, "yaml")


def mask_wall_time(rows):
    return [
        BenchRow(r.algorithm, r.objective, r.iterations, r.found_point,
                 r.found_value, r.deviation, 0.0, r.seed)
        for r in rows
    ]


def test_repeated_benches_are_byte_identical():
    spec = small_spec(repeats=2)
    a, b = run_bench(spec), run_bench(spec)
    assert emit_markdown(a) == emit_markdown(b)
    assert emit_csv(mask_wall_time(a)) == emit_csv(mask_wall_time(b))
    assert emit_json_lines(mask_wall_time(a)) == emit_json_lines(mask_wall_time(b))
