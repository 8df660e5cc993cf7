"""Seeded baselines: stream contract, evaluation accounting, quality."""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slmopt.baselines import (
    BaselineConfig,
    random_search,
    random_search_walk,
    simulated_annealing,
)
from slmopt.bench import _BASELINE_FNS, DEFAULT_ITERATIONS
from slmopt.geometry import MAX_BOUND, SearchBox
from slmopt.labeling import ObjectiveEvaluationError, Sense
from slmopt.objectives import ObjectiveSpec, builtin_names, registry_lookup

import baseline_reference as ref

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


@pytest.mark.parametrize("run", ALL_RUNNERS, ids=lambda run: run.__name__)
def test_largest_box_proposals_are_finite_and_inside(run):
    domain = SearchBox((-MAX_BOUND, -MAX_BOUND), (MAX_BOUND, MAX_BOUND))
    spec, calls = recording(ObjectiveSpec(
        "scaled_sphere", domain, Sense.MINIMIZE, (((0.0, 0.0), 0.0),),
        lambda p: (p[0] / MAX_BOUND) ** 2 + (p[1] / MAX_BOUND) ** 2))
    res = run(spec, cfg(iterations=300, seed=3))
    assert len(calls) == res.evaluations
    assert all(math.isfinite(v) for p in calls for v in p)
    assert all(domain.contains(p) for p in calls)


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


# sha256 of the repr of every (point, value) a run evaluates, in order,
# at the CLI's default iterations and seed 0, from the center or from
# (9, 9), which clamps to the domain's corner; speed work must leave the
# whole trajectory bit for bit, not only its best point
TRAJECTORY_SHA = {
    ("sphere_min", "rs", None): "2799c6898b8496fc59b6a034fd8f1a414e2561f9f57e4ed179a33972c8226508",
    ("sphere_min", "rsw", None): "f63c22d5b2d3da143f947ebff9d61cfa7c7f78d46d0331f02d27b08cdb936d0a",
    ("sphere_min", "sa", None): "a3426dbde3675b54265b202d61dcba5d99ebfbb4fc530f872d36e69caeea44ef",
    ("trig", "rs", None): "28540b276a98e6ee1616423ae7fc7dc40691504cb05def19f7eed0b95e9e64e0",
    ("trig", "rsw", None): "b377ab5a54f83cc51c9c5d5ffdcb9226a2f0cc5afc075a6054815d2a6008d361",
    ("trig", "sa", None): "375f173b120f10e4fe4f61cfc5078b77ce5f0df023a3607942d656ab5a3f1ebb",
    ("sphere_max", "rs", None): "2799c6898b8496fc59b6a034fd8f1a414e2561f9f57e4ed179a33972c8226508",
    ("sphere_max", "rsw", None): "8ba87e1ef30f88f19b9e82f325ddd88671b4ac547cda171dd42113922cf75940",
    ("sphere_max", "sa", None): "82be7a1c9ddf5c706fbfb48f67e1b2a18587d63818cade1f5013f75ed712a5a1",
    ("rosenbrock", "rs", None): "ad1043dd3f94276c3f5d4448135d0898985f457730cf14540a7384fb3b3574e9",
    ("rosenbrock", "rsw", None): "6b23a8b8f5a45961346c8b73f41a3605b4429f5e507ed2846537ccf580979347",
    ("rosenbrock", "sa", None): "20da1f71f802396c8529a084bdfae54a29423c4e1eb34e5a7b3e8e1fbc1f844d",
    ("shekel", "rs", None): "2443fbf089148296a389fed01183a1e9daff094c1cc5eb4484e3fe33cc2dd843",
    ("shekel", "rsw", None): "74ba2d03137f70f5f9924f6ca5bc29bb99084c8be896863fa5d688fe36634483",
    ("shekel", "sa", None): "218a772bfceb70b77a8b44390d54bd72e06d1a6f1126b29ab1c41842ad247634",
    ("sphere_min", "rsw", (9.0, 9.0)): "68c7026ae306c6d16902799654e8dd6d0e6e8876a49baa681e0b5ffc560a722a",
    ("sphere_min", "sa", (9.0, 9.0)): "4d76def34607f41324c93927c104152aa952251e7a623508215d8d267040f2d8",
}


@pytest.mark.parametrize("name, kind, initial", TRAJECTORY_SHA)
def test_builtin_trajectories_are_bit_stable(name, kind, initial):
    spec = registry_lookup(name)
    trajectory = []

    def f(p):
        v = spec.evaluator(p)
        trajectory.append((p, v))
        return v

    _BASELINE_FNS[kind](dataclasses.replace(spec, evaluator=f),
                       cfg(iterations=DEFAULT_ITERATIONS[kind], seed=0, initial_point=initial))
    digest = hashlib.sha256(repr(trajectory).encode()).hexdigest()
    assert digest == TRAJECTORY_SHA[name, kind, initial]


# ---------------------------------------------------------------------------
# The library against the reference loops
# ---------------------------------------------------------------------------

# the smallest subnormal: on a domain this wide every proposal radius
# rounds to 0.0, so x + u is a signed zero that the clamp compares with a
# zero bound of either sign
TINY = 5e-324


@st.composite
def axis_bounds(draw):
    """(lo, hi) of one axis: a random non-dyadic interval, or one with a
    0.0 or -0.0 bound."""
    kind = draw(st.sampled_from(("random", "zero_lo", "zero_hi")))
    if kind == "random":
        lo = draw(st.floats(-100.0, 100.0))
        return lo, lo + draw(st.floats(0.01, 100.0))
    zero = draw(st.sampled_from((0.0, -0.0)))
    w = draw(st.one_of(st.floats(0.01, 100.0), st.just(TINY)))
    return (zero, w) if kind == "zero_lo" else (-w, zero)


@st.composite
def start_coordinate(draw, lo, hi):
    """Inside, on either bound or the other zero's sign of it, or
    outside, finite or infinite."""
    where = draw(st.sampled_from(("inside", "bound", "outside")))
    if where == "inside":
        return draw(st.floats(lo, hi))
    if where == "bound":
        b = draw(st.sampled_from((lo, hi)))
        return draw(st.sampled_from((b, -b))) if b == 0.0 else b
    return draw(st.sampled_from((lo - draw(st.floats(0.0, 100.0)), hi + 1.0,
                                 -math.inf, math.inf)))


@st.composite
def baseline_cases(draw):
    n = draw(st.integers(1, 3))
    bounds = [draw(axis_bounds()) for _ in range(n)]
    domain = SearchBox(*zip(*bounds))
    start = None
    if draw(st.booleans()):
        start = tuple(draw(start_coordinate(a, b)) for a, b in bounds)
    centre = tuple(draw(st.floats(a, b)) for a, b in bounds)
    return (domain, draw(st.sampled_from(Sense)), centre, draw(st.booleans()),
            BaselineConfig(iterations=draw(st.integers(1, 200)),
                           seed=draw(st.integers(0, 2**32)), initial_point=start))


def recorded_run(run, domain, sense, centre, quantized, config):
    """run on a squared distance to centre, rounded to a coarse unit when
    quantized so that values tie; returns the repr of the points it
    evaluated, in order, and of its result (repr tells -0.0 from 0.0)."""
    unit = max(domain.widths()) ** 2 / 16 or 1.0
    calls = []

    def f(p):
        calls.append(p)
        v = sum((x - c) ** 2 for x, c in zip(p, centre))
        return float(round(v / unit)) if quantized else v

    spec = ObjectiveSpec("quadratic", domain, sense, ((centre, 0.0),), f)
    result = run(spec, config)
    return repr(calls), repr(result)


@settings(max_examples=150, deadline=None)
@given(case=baseline_cases())
# a start at the opposite zero of the domain's zero bound, where every
# proposal is that signed zero: the clamp must keep it
@example(case=(SearchBox((0.0,), (TINY,)), Sense.MINIMIZE, (0.0,), False,
               BaselineConfig(iterations=20, seed=1, initial_point=(-0.0,))))
@example(case=(SearchBox((-TINY,), (-0.0,)), Sense.MAXIMIZE, (0.0,), True,
               BaselineConfig(iterations=20, seed=1, initial_point=(0.0,))))
def test_baselines_match_the_reference_loops(case):
    for run, oracle in ((random_search, ref.random_search),
                        (random_search_walk, ref.random_search_walk),
                        (simulated_annealing, ref.simulated_annealing)):
        assert recorded_run(run, *case) == recorded_run(oracle, *case)


# ---------------------------------------------------------------------------
# Non-finite values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("run", ALL_RUNNERS)
def test_non_finite_value_raises_with_the_point(run, bad):
    # nan at call k only, or inf on every call from k on: both must stop
    # the run at evaluation k, as run_slm stops at its first, and name k.
    # For annealing, 5 is a temperature sample, 11 its start point and 12
    # and 20 proposals; for the others, 1 is the start
    for k in (1, 2, 5, 11, 12, 20):
        seen = []

        def f(p):
            seen.append(p)
            failing = len(seen) >= k if math.isinf(bad) else len(seen) == k
            return bad if failing else SPHERE.evaluator(p)

        spec = dataclasses.replace(SPHERE, evaluator=f)
        with pytest.raises(ObjectiveEvaluationError) as err:
            run(spec, cfg(iterations=20))
        assert len(seen) == k
        assert err.value.point == seen[-1]
        assert repr(err.value.value) == repr(bad)
        assert err.value.evaluation == k
        assert str(err.value) == f"objective returned {bad!r} at {seen[-1]!r} at evaluation {k}"
