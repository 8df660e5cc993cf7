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
from slmopt.objectives import builtin_names, registry_lookup

SPHERE = registry_lookup("sphere_min")
SPHERE_MAX = registry_lookup("sphere_max")
ALL_RUNNERS = (random_search, random_search_walk, simulated_annealing)


def cfg(iterations=100, seed=0, **kw):
    return BaselineConfig(iterations=iterations, seed=seed, **kw)


def recording(spec):
    """spec with an evaluator that appends every point it is called at
    to the returned list."""
    calls = []

    def f(p):
        calls.append(p)
        return spec.evaluator(p)

    return dataclasses.replace(spec, evaluator=f), calls


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

# iterations 1 is the single draw of random_search and the zero-span
# step decay of the walks
ITERATION_COUNTS = (1, 2, 123)


def check_evaluations(run, extra):
    for iterations in ITERATION_COUNTS:
        spec, calls = recording(SPHERE)
        res = run(spec, cfg(iterations=iterations))
        assert res.evaluations == len(calls) == iterations + extra


def test_random_search_evaluations():
    check_evaluations(random_search, 0)


def test_walk_evaluations():
    check_evaluations(random_search_walk, 1)


def test_annealing_evaluations():
    check_evaluations(simulated_annealing, 1 + 10)


# ---------------------------------------------------------------------------
# Containment and start points
# ---------------------------------------------------------------------------

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
    spec, calls = recording(SPHERE)
    res = random_search_walk(spec, cfg(iterations=10, seed=0))
    assert calls[0] == (0.0, 0.0)
    assert res.notes == ()


def test_initial_point_clamped_with_note():
    spec, calls = recording(SPHERE)
    res = random_search_walk(
        spec, cfg(iterations=10, seed=0, initial_point=(14.0356, 14.0356)))
    assert res.notes and "clamped" in res.notes[0]
    assert calls[0] == (2.0, 2.0)
    inside = random_search_walk(
        SPHERE, cfg(iterations=10, seed=0, initial_point=(0.5, 0.5)))
    assert inside.notes == ()


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


def test_nan_initial_point_rejected():
    for bad in ((math.nan, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="NaN"):
            BaselineConfig(iterations=1, seed=0, initial_point=bad)
    # an infinite coordinate is not rejected: it clamps to the bound
    spec, calls = recording(SPHERE)
    res = random_search_walk(
        spec, cfg(iterations=10, seed=0, initial_point=(math.inf, -math.inf)))
    assert res.notes and "clamped" in res.notes[0]
    assert calls[0] == (2.0, -2.0)


@pytest.mark.parametrize("run", (random_search_walk, simulated_annealing))
def test_wrong_dimension_initial_point_rejected_before_any_call(run):
    spec, calls = recording(SPHERE)
    with pytest.raises(ValueError, match=r"^initial point \(1\.0,\) is 1-D; sphere_min is 2-D$"):
        run(spec, cfg(iterations=10, seed=0, initial_point=(1.0,)))
    assert calls == []


# float.hex of (best point, best value) at seed 5, 300 iterations,
# start (9, 9); speed work must leave each one bit for bit
BEST_HEX = {
    ("sphere_min", "random_search"):
        (('-0x1.b90e693aa6f40p-5', '0x1.248b6f8947040p-2'), '0x1.0595f763eccaap-6'),
    ("sphere_min", "random_search_walk"):
        (('-0x1.17464075b9114p-7', '0x1.96e7570dde22bp-2'), '0x1.4dbedef215983p-14'),
    ("sphere_min", "simulated_annealing"):
        (('0x1.01e727576bf14p-8', '0x1.a0c3b6e0eea9fp-2'), '0x1.0e469983034e4p-14'),
    ("trig", "random_search"):
        (('0x1.0c3f92a804784p+1', '0x1.2116a17d9dc28p+0'), '-0x1.f7dafdd4598abp+0'),
    ("trig", "random_search_walk"):
        (('0x1.00705761a7425p+1', '-0x1.c000000000000p+2'), '-0x1.ffff0cb81b9abp+0'),
    ("trig", "simulated_annealing"):
        (('0x1.01f9ed48a946cp+1', '0x1.3ee811ad9aaf3p+2'), '-0x1.ffd5206217b3cp+0'),
    ("sphere_max", "random_search"):
        (('0x1.e6d78f22a6aaap+0', '-0x1.f993a744dffe0p+0'), '0x1.28375d4147038p+3'),
    ("sphere_max", "random_search_walk"):
        (('0x1.0000000000000p+1', '0x1.0000000000000p+1'), '0x1.a3d70a3d70a3ep+2'),
    ("sphere_max", "simulated_annealing"):
        (('0x1.0000000000000p+1', '-0x1.0000000000000p+1'), '0x1.3851eb851eb85p+3'),
    ("rosenbrock", "random_search"):
        (('0x1.e744b956643b8p-1', '0x1.c9076af9ab5acp-1'), '0x1.3f013d453478cp-6'),
    ("rosenbrock", "random_search_walk"):
        (('0x1.fdbf7fdbec468p-1', '0x1.fb6db9fbdb220p-1'), '0x1.6ae1317d5d3a4p-16'),
    ("rosenbrock", "simulated_annealing"):
        (('0x1.9824c324d0dccp-1', '0x1.40b877cdd292ap-1'), '0x1.9427665e26369p-5'),
    ("shekel", "random_search"):
        (('-0x1.06e94efb6947ap+4', '-0x1.df9658551c09cp+3'), '0x1.fd4ae386ce163p+2'),
    ("shekel", "random_search_walk"):
        (('0x1.0210cab6b819ep+4', '-0x1.00705ad9d6017p+5'), '0x1.fbefc5687d232p+1'),
    ("shekel", "simulated_annealing"):
        (('0x1.a42c23561ece8p-4', '0x1.ddc3b4f1b6500p-3'), '0x1.95760bcaac812p+3'),
}


@pytest.mark.parametrize("run", ALL_RUNNERS)
@pytest.mark.parametrize("name", builtin_names())
def test_builtin_bests_are_bit_stable(name, run):
    res = run(registry_lookup(name), cfg(iterations=300, seed=5, initial_point=(9.0, 9.0)))
    got = (tuple(v.hex() for v in res.best_point), res.best_value.hex())
    assert got == BEST_HEX[name, run.__name__]


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
