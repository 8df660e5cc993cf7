"""Seeded baselines: stream contract, evaluation accounting, quality."""

import dataclasses
import math
import random

import pytest

from slmopt.baselines import (
    BaselineConfig,
    random_search,
    random_search_walk,
    simulated_annealing,
)
from slmopt.labeling import ObjectiveEvaluationError
from slmopt.objectives import registry_lookup

SPHERE = registry_lookup("sphere_min")
SPHERE_MAX = registry_lookup("sphere_max")
ALL_RUNNERS = (random_search, random_search_walk, simulated_annealing)


def cfg(iterations=100, seed=0, **kw):
    return BaselineConfig(iterations=iterations, seed=seed, **kw)


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

def test_equal_seeds_give_identical_results():
    for run in ALL_RUNNERS:
        a = run(SPHERE, cfg(iterations=200, seed=7))
        b = run(SPHERE, cfg(iterations=200, seed=7))
        assert a == b


def test_different_seeds_differ():
    for run in ALL_RUNNERS:
        a = run(SPHERE, cfg(iterations=200, seed=1))
        b = run(SPHERE, cfg(iterations=200, seed=2))
        assert a.best_point != b.best_point


def test_uniform_stream_is_dimension_major():
    # the documented contract: a fresh Mersenne Twister per run, one
    # random() per coordinate in coordinate order
    rng = random.Random(13)
    r1, r2 = rng.random(), rng.random()
    expected = (-2.0 + 4.0 * r1, -2.0 + 4.0 * r2)
    res = random_search(SPHERE, cfg(iterations=1, seed=13))
    assert res.best_point == expected


def test_runs_do_not_share_state():
    # interleaving other runs must not disturb a seeded run's stream
    first = random_search(SPHERE, cfg(iterations=50, seed=3))
    random_search(SPHERE, cfg(iterations=17, seed=99))
    simulated_annealing(SPHERE, cfg(iterations=20, seed=4))
    again = random_search(SPHERE, cfg(iterations=50, seed=3))
    assert first == again


# ---------------------------------------------------------------------------
# Evaluation accounting
# ---------------------------------------------------------------------------

def test_random_search_evaluations():
    res = random_search(SPHERE, cfg(iterations=123))
    assert res.evaluations == 123


def test_walk_evaluations():
    res = random_search_walk(SPHERE, cfg(iterations=123))
    assert res.evaluations == 124


def test_annealing_evaluations():
    default_t = simulated_annealing(SPHERE, cfg(iterations=50))
    assert default_t.evaluations == 50 + 1 + 10
    explicit_t = simulated_annealing(
        SPHERE, cfg(iterations=50, temperature_initial=2.0))
    assert explicit_t.evaluations == 50 + 1


# ---------------------------------------------------------------------------
# Trajectories and containment
# ---------------------------------------------------------------------------

def test_trajectories_are_strictly_improving():
    for run in ALL_RUNNERS:
        res = run(SPHERE, cfg(iterations=300, seed=11))
        counts = [k for k, _ in res.trajectory]
        values = [v for _, v in res.trajectory]
        assert counts == sorted(counts)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert res.best_value == values[-1]


def test_best_points_stay_in_domain():
    for run in ALL_RUNNERS:
        for seed in range(20):
            for spec in (SPHERE, registry_lookup("shekel")):
                res = run(spec, cfg(iterations=40, seed=seed))
                assert spec.domain.contains(res.best_point)


def test_maximize_sense_improves_upward():
    start = SPHERE_MAX.evaluator(SPHERE_MAX.domain.center())
    for run in (random_search_walk, simulated_annealing):
        res = run(SPHERE_MAX, cfg(iterations=200, seed=5))
        assert res.best_value >= start


def test_walk_starts_at_center_by_default():
    res = random_search_walk(SPHERE, cfg(iterations=10, seed=0))
    assert res.trajectory[0] == (1, SPHERE.evaluator((0.0, 0.0)))
    assert res.notes == ()


def test_initial_point_clamped_with_note():
    res = random_search_walk(
        SPHERE, cfg(iterations=10, seed=0, initial_point=(14.0356, 14.0356)))
    assert res.notes and "clamped" in res.notes[0]
    assert res.trajectory[0] == (1, SPHERE.evaluator((2.0, 2.0)))
    inside = random_search_walk(
        SPHERE, cfg(iterations=10, seed=0, initial_point=(0.5, 0.5)))
    assert inside.notes == ()


def test_zero_step_scale_freezes_the_walk():
    frozen = cfg(iterations=50, seed=2, step_scale_initial=0.0,
                 step_scale_final=0.0, initial_point=(1.0, 1.0))
    res = random_search_walk(SPHERE, frozen)
    assert res.best_point == (1.0, 1.0)
    assert res.trajectory == ((1, SPHERE.evaluator((1.0, 1.0))),)
    assert res.evaluations == 51


# ---------------------------------------------------------------------------
# Quality spot checks (deterministic given the seed)
# ---------------------------------------------------------------------------

def test_random_search_gets_close_on_sphere():
    res = random_search(SPHERE, cfg(iterations=1000, seed=0))
    assert res.best_value <= 0.05


def test_walk_gets_close_on_sphere():
    res = random_search_walk(SPHERE, cfg(iterations=500, seed=0))
    assert abs(res.best_point[0]) <= 0.1
    assert abs(res.best_point[1] - 0.4) <= 0.1


def test_annealing_gets_close_on_sphere():
    res = simulated_annealing(SPHERE, cfg(iterations=150, seed=0))
    assert abs(res.best_point[0]) <= 0.1
    assert abs(res.best_point[1] - 0.4) <= 0.1


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(iterations=0, seed=0)
    with pytest.raises(ValueError):
        BaselineConfig(iterations=1, seed=-1)
    with pytest.raises(ValueError):
        BaselineConfig(iterations=1, seed=0, step_scale_initial=0.1,
                       step_scale_final=0.2)
    with pytest.raises(ValueError):
        BaselineConfig(iterations=1, seed=0, step_scale_final=-0.1)
    with pytest.raises(ValueError):
        BaselineConfig(iterations=1, seed=0, cooling_ratio=1.0)
    with pytest.raises(ValueError):
        BaselineConfig(iterations=1, seed=0, cooling_ratio=0.0)
    with pytest.raises(ValueError):
        BaselineConfig(iterations=1, seed=0, temperature_initial=0.0)
    # equal step scales are fine: constant-radius proposals
    BaselineConfig(iterations=1, seed=0, step_scale_initial=0.3,
                   step_scale_final=0.3)


# ---------------------------------------------------------------------------
# Non-finite values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("run", ALL_RUNNERS)
def test_non_finite_value_raises_with_the_point(run, bad):
    # nan on the first call only, or inf on every call: both must stop
    # the run at that first evaluation, as run_slm does
    seen = []

    def f(p):
        seen.append(p)
        return bad if math.isinf(bad) or len(seen) == 1 else SPHERE.evaluator(p)

    spec = dataclasses.replace(SPHERE, evaluator=f)
    with pytest.raises(ObjectiveEvaluationError) as err:
        run(spec, cfg(iterations=20))
    assert len(seen) == 1
    assert err.value.point == seen[0]
    assert repr(err.value.value) == repr(bad)
