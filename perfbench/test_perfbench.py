"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
from spans import PER_LAYER, Span, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CliJob,
    Counting,
    SlmJob,
    _builtin_job,
    check_cli,
    check_slm,
    make_jobs,
    run_slm_job,
)


def _solve(job: SlmJob):
    """The RunResult and objective-call count of one solve."""
    from slmopt.engine import SlmConfig, run_slm

    hooks = Counting()
    cfg = SlmConfig(sense=job.sense, tolerance=job.tolerance, explore_all=job.explore_all)
    res = run_slm(hooks.objective(job.evaluator), job.domain, cfg)
    return res, hooks.calls


def test_checker_accepts_then_rejects_perturbed_results():
    job = _builtin_job("sphere_max", 10, True)
    res, calls = _solve(job)
    assert check_slm(job, res, calls) == []
    shifted = dataclasses.replace(res, best_value=res.best_value + 1)
    assert any("best_value" in p for p in check_slm(job, shifted, calls))
    assert any("evaluations" in p for p in check_slm(job, res, calls + 1))
    stopped = dataclasses.replace(res, termination="generation_cap")
    assert any("termination" in p for p in check_slm(job, stopped, calls))
    unsorted = dataclasses.replace(res, candidates=res.candidates[::-1])
    assert any("sorted" in p for p in check_slm(job, unsorted, calls))


def test_cli_checker_rejects_missing_rows_and_bad_exit(tmp_path):
    out = tmp_path / "rows.json-lines"
    row = {"algorithm": "slm", "objective": "sphere_min", "iterations": 10,
           "found_point": [0.0, 0.375], "found_value": 0.000625,
           "deviation": [0.0, 0.025], "wall_time_ms": 1.5, "seed": 0}
    out.write_text("\n".join(json.dumps(row) for _ in range(3)) + "\n")
    job = CliJob(key="bench", argv=("bench", "--format", "json-lines", "--out", str(out)),
                 kind="bench", expect=3, out=str(out))
    assert check_cli(job, 0, "", 0)[0] == []
    assert check_cli(dataclasses.replace(job, expect=4), 0, "", 0)[0]
    assert check_cli(job, 2, "", 0)[0] == ["exit code 2"]
    out.write_text("not json\n")
    assert any("parse" in p for p in check_cli(job, 0, "", 0)[0])


def test_self_time_of_nested_spans():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("bench.run_bench", 1.0, 7.0, 0, 0),
        Span("engine.run_slm", 2.0, 5.0, 1, 0, obj_calls=4, obj_s=0.5),
        Span("labeling.label_grid", 2.5, 4.0, 2, 0, obj_calls=9, obj_s=1.0),
        Span("bench.emit_table", 8.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 6 - 1, 6 - 3, 3 - 1.5 - 0.5, 1.5 - 1.0, 1.0])


def _inputs(workload: str, seed: int) -> list:
    out = []
    for job in make_jobs(workload, seed, "work"):
        if isinstance(job, SlmJob):
            origin = (0.0,) * job.domain.dimension
            out.append((job.key, job.tolerance, job.evaluator(origin)))
        else:
            out.append((job.key, job.argv))
    return out


@pytest.mark.parametrize("workload", ["descent", "explore", "report"])
def test_one_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_two_seeds_shift_the_spheres_differently():
    def shifts(seed):
        return sorted(v for key, _, v in _inputs("descent", seed) if key.startswith("sphere") and "d-" in key)
    assert shifts(1) != shifts(2)


@pytest.mark.parametrize("name,explore_all,expected", [
    ("sphere_min", False, 777),
    ("trig", False, 689),
    ("sphere_max", False, 641),
    ("trig", True, 17992),
    ("shekel", True, 13008),
])
def test_evals_per_op_matches_known_counts(name, explore_all, expected):
    outcome = run_slm_job(_builtin_job(name, 10, explore_all), Counting())
    assert outcome.problems == []
    assert outcome.calls == expected


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     math",
        "import time:      2000 |       2100 |     slmopt.geometry",
        "import time:       500 |       3000 |   slmopt",
    ])
    split = run.parse_importtime(stderr)
    assert split["import.geometry_ms"] == 2.0
    assert split["import.slmopt_ms"] == 0.5
    assert split["import.total_ms"] == 3.0
    assert split["import.deps_ms"] == pytest.approx(0.5)
    assert split["import.engine_ms"] == 0.0


def test_normalize_scales_by_local_reference():
    ref = run.REF_MS / 1000.0
    assert run.normalize([0.01, 0.01], [ref, ref, ref]) == pytest.approx([0.01, 0.01])
    assert run.normalize([0.02], [2 * ref, 2 * ref]) == pytest.approx([0.01])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["descent", "explore", "report"]
