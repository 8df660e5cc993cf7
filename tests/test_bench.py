"""Benchmark matrix: row production, deviation metric, emitters."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slmopt.bench
from slmopt.bench import (
    DEFAULT_ITERATIONS,
    FIELD_NAMES,
    METHODS,
    AlgorithmSpec,
    BenchRow,
    default_tolerance,
    deviation,
    emit_csv,
    emit_json_lines,
    emit_markdown,
    emit_table,
    run_bench,
)
from slmopt.geometry import SearchBox
from slmopt.labeling import Sense
from slmopt.objectives import ObjectiveSpec, builtin_names, register_objective, registry_lookup

from bench_reference import mask_wall_time, parse_csv, parse_json_lines, run_bench_per_seed
from pins import PAYLOAD_DIGESTS


def small_spec(**kw):
    """run_bench's keyword arguments for a small matrix."""
    defaults = dict(
        objectives=("sphere_min",),
        algorithms=(AlgorithmSpec("slm", tolerance=0.0625),
                    AlgorithmSpec("rs", iterations=50)),
        repeats=1,
    )
    defaults.update(kw)
    return defaults


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
# Input validation
# ---------------------------------------------------------------------------

def test_algorithm_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        AlgorithmSpec("gradient_descent")


def test_bench_spec_validation():
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        run_bench(**small_spec(repeats=0))


@pytest.mark.parametrize("field", ("objectives", "algorithms"))
def test_bench_spec_rejects_an_empty_matrix(field):
    with pytest.raises(ValueError, match="at least one"):
        run_bench(**small_spec(**{field: ()}))


def test_unknown_objective_aborts_before_running():
    with pytest.raises(ValueError, match="^unknown objective 'nope'; available: "):
        run_bench(**small_spec(objectives=("sphere_min", "nope")))


@pytest.mark.usefixtures("scratch_registry")
@pytest.mark.parametrize("bad, message", (
    (AlgorithmSpec("slm", tolerance=-1.0), "tolerance must be positive and finite"),
    (AlgorithmSpec("rs", iterations=0), "iterations must be at least 1"),
    (AlgorithmSpec("slm", max_generations=0), "max_generations must be at least 1"),
    (AlgorithmSpec("rsw", initial_point=(math.nan,)), "initial point (nan,) has a NaN coordinate"),
    (AlgorithmSpec("sa", initial_point=(0.5, 0.5)),
     "initial point (0.5, 0.5) is 2-D; test_counting_xyzzy is 1-D"),
), ids=("tolerance", "iterations", "max_generations", "initial_point", "initial_dimension"))
def test_bad_method_setting_aborts_before_running(bad, message):
    # placed after a good method: no method runs on any objective
    calls = []
    name = "test_counting_xyzzy"
    register_objective(ObjectiveSpec(
        name=name,
        domain=SearchBox((0.0,), (1.0,)),
        sense=Sense.MINIMIZE,
        known_optima=(((0.0,), 0.0),),
        evaluator=lambda p: calls.append(p) or p[0],
    ))
    with pytest.raises(ValueError) as err:
        run_bench((name, "sphere_min"), (AlgorithmSpec("rs", iterations=20), bad))
    assert (str(err.value), calls) == (message, [])


# ---------------------------------------------------------------------------
# Row production
# ---------------------------------------------------------------------------

def test_row_order_is_objective_major():
    rows = run_bench(("sphere_min", "rosenbrock"),
                     (AlgorithmSpec("slm", tolerance=0.25), AlgorithmSpec("rs", iterations=20)),
                     repeats=2)
    key = [(r.objective, r.algorithm, r.seed) for r in rows]
    assert key == [
        ("sphere_min", "slm", 0), ("sphere_min", "slm", 1),
        ("sphere_min", "rs", 0), ("sphere_min", "rs", 1),
        ("rosenbrock", "slm", 0), ("rosenbrock", "slm", 1),
        ("rosenbrock", "rs", 0), ("rosenbrock", "rs", 1),
    ]


def test_slm_rows_ignore_the_seed():
    spec = small_spec(repeats=3)
    rows = [r for r in run_bench(**spec) if r.algorithm == "slm"]
    # one run stands for every seed, its wall time included
    assert rows == [rows[0]._replace(seed=seed) for seed in range(3)]


def test_slm_runs_once_per_objective_and_spec(monkeypatch):
    calls = []
    names = {registry_lookup(n).evaluator: n for n in ("sphere_min", "rosenbrock")}
    run_slm = slmopt.bench.run_slm

    def slm_spy(evaluator, domain, cfg):
        calls.append(("slm", names[evaluator], cfg.tolerance))
        return run_slm(evaluator, domain, cfg)

    def baseline_spy(kind, fn):
        def spy(ospec, cfg):
            calls.append((kind, ospec.name, cfg.seed))
            return fn(ospec, cfg)
        return spy

    monkeypatch.setattr(slmopt.bench, "run_slm", slm_spy)
    for kind, fn in list(slmopt.bench._BASELINE_FNS.items()):
        monkeypatch.setitem(slmopt.bench._BASELINE_FNS, kind, baseline_spy(kind, fn))
    rows = run_bench(("sphere_min", "rosenbrock"),
                     (AlgorithmSpec("slm", tolerance=0.25), AlgorithmSpec("rs", iterations=20),
                      AlgorithmSpec("slm", tolerance=0.0625)),
                     repeats=3)
    assert calls == [call for name in ("sphere_min", "rosenbrock") for call in (
        ("slm", name, 0.25), ("rs", name, 0), ("rs", name, 1), ("rs", name, 2),
        ("slm", name, 0.0625))]
    slm = [r for r in rows if r.algorithm == "slm"]
    assert slm == [row._replace(seed=seed) for row in slm[::3] for seed in range(3)]


# small enough that an example runs in milliseconds; the two slm specs
# stop at their generation caps before the default tolerance
METHOD_POOL = (
    AlgorithmSpec("slm", max_generations=5),
    AlgorithmSpec("slm", explore_all=True, max_generations=3),
    AlgorithmSpec("rs", iterations=30),
    AlgorithmSpec("rsw", iterations=20),
    AlgorithmSpec("sa", iterations=10),
)


@settings(max_examples=100, deadline=None)
@given(
    repeats=st.integers(1, 4),
    objectives=st.permutations(builtin_names()).flatmap(
        lambda names: st.integers(1, len(names)).map(lambda k: names[:k])),
    algorithms=st.lists(st.sampled_from(METHOD_POOL), min_size=1, max_size=5),
)
def test_bench_rows_equal_one_run_per_seed(repeats, objectives, algorithms):
    assert (mask_wall_time(run_bench(objectives, algorithms, repeats))
            == run_bench_per_seed(objectives, algorithms, repeats))


def test_slm_iterations_are_generation_count():
    rows = run_bench(**small_spec())
    slm = next(r for r in rows if r.algorithm == "slm")
    assert slm.iterations == 6  # halvings of width 4 down to 0.0625
    assert abs(slm.found_point[1] - 0.4) <= 0.0625
    assert slm.deviation == (abs(slm.found_point[0] - 0.0),
                             abs(slm.found_point[1] - 0.4))


def test_baseline_rows_consume_the_seed():
    spec = small_spec(repeats=2)
    rs = [r for r in run_bench(**spec) if r.algorithm == "rs"]
    assert [r.seed for r in rs] == [0, 1]
    assert rs[0].found_point != rs[1].found_point
    assert all(r.iterations == 50 for r in rs)


def test_baseline_default_iterations():
    spec = small_spec(algorithms=(AlgorithmSpec("rs"), AlgorithmSpec("rsw"),
                                  AlgorithmSpec("sa")))
    rows = run_bench(**spec)
    assert [r.iterations for r in rows] == [
        DEFAULT_ITERATIONS["rs"], DEFAULT_ITERATIONS["rsw"],
        DEFAULT_ITERATIONS["sa"],
    ]


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def test_markdown_shape():
    text = emit_markdown(run_bench(**small_spec()))
    lines = text.splitlines()
    assert lines[0] == "## sphere_min"
    assert lines[2] == "| Algorithm | Iterations | Optimal point | Deviation |"
    assert lines[3] == "| --- | --- | --- | --- |"
    assert lines[4].startswith("| slm | 6 | (")
    assert lines[5].startswith("| rs | 50 | (")
    assert emit_markdown([]) == ""


def test_markdown_groups_by_objective():
    spec = small_spec(objectives=("sphere_min", "rosenbrock"))
    text = emit_markdown(run_bench(**spec))
    assert text.index("## sphere_min") < text.index("## rosenbrock")
    assert text.count("| Algorithm |") == 2


def test_csv_round_trip_is_lossless():
    rows = run_bench(**small_spec(repeats=2))
    assert parse_csv(emit_csv(rows)) == rows


def test_csv_header_and_vector_cells():
    text = emit_csv(run_bench(**small_spec()))
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


def test_payloads_are_byte_stable():
    rows = mask_wall_time(run_bench(builtin_names(), [AlgorithmSpec(k) for k in METHODS],
                                    repeats=3))
    assert len(rows) == 60
    for fmt, digest in PAYLOAD_DIGESTS.items():
        assert hashlib.sha256(emit_table(rows, fmt).encode()).hexdigest() == digest, fmt


def test_json_lines_fields():
    rows = run_bench(**small_spec())
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
    rows = run_bench(**small_spec())
    assert emit_table(rows, "markdown") == emit_markdown(rows)
    assert emit_table(rows, "csv") == emit_csv(rows)
    assert emit_table(rows, "json-lines") == emit_json_lines(rows)
    with pytest.raises(ValueError):
        emit_table(rows, "yaml")


def test_repeated_benches_are_byte_identical():
    spec = small_spec(repeats=2)
    a, b = run_bench(**spec), run_bench(**spec)
    assert emit_markdown(a) == emit_markdown(b)
    assert emit_csv(mask_wall_time(a)) == emit_csv(mask_wall_time(b))
    assert emit_json_lines(mask_wall_time(a)) == emit_json_lines(mask_wall_time(b))
