"""Subdivision search: cell selection, descent trajectories, stopping."""

import collections
import functools
import hashlib
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slmopt import engine, labeling
from slmopt.bench import default_tolerance
from slmopt.engine import (
    BOX_UNSPLITTABLE,
    GENERATION_CAP,
    TOLERANCE_REACHED,
    GenerationRecord,
    SlmConfig,
    complete_cells,
    run_slm,
)
from slmopt.geometry import MAX_BOUND, Cell, SearchBox, subdivide
from slmopt.labeling import LabeledVertex, ObjectiveEvaluationError, Sense, label_grid
from slmopt.objectives import builtin_names, registry_lookup

from slm_reference import lattice_depth, lattice_floats, lattice_indices, reference_run

TRIG_FAMILY = tuple(
    (float(x1), float(x2)) for x1 in (-6, -2, 2, 6) for x2 in (-3, 1, 5)
)


def run_builtin(name, tolerance, **kwargs):
    spec = registry_lookup(name)
    cfg = SlmConfig(sense=spec.sense, tolerance=tolerance, **kwargs)
    return run_slm(spec.evaluator, spec.domain, cfg), spec


# ---------------------------------------------------------------------------
# Cell bookkeeping
# ---------------------------------------------------------------------------

def test_complete_cells_requires_full_label_set():
    box = SearchBox((0.0, 0.0), (2.0, 2.0))
    _, cells = subdivide(box)
    # cell 0 has grid indices (0, 1, 3, 4): give them labels 0, 1, 2
    labels = [0, 1, 0, 2, 0, 0, 0, 0, 0]
    kept = complete_cells(cells, labels)
    assert kept == (cells[0],)
    assert complete_cells(cells, [0] * 9) == ()
    assert complete_cells((), []) == ()


def test_complete_cells_keeps_input_order():
    box = SearchBox((0.0, 0.0), (2.0, 2.0))
    _, cells = subdivide(box)
    # grid indices: cell 0 reads (0,1,3,4) -> {0,1,2}, cell 3 reads
    # (4,5,7,8) -> {0,1,2}; cells 1 and 2 miss a label
    labels = [0, 1, 0, 2, 0, 1, 0, 2, 0]
    kept = complete_cells(cells, labels)
    assert kept == (cells[0], cells[3])


def test_chosen_cell_prefers_best_vertex_then_lex():
    res, _ = run_builtin("sphere_min", 0.0625)
    first = res.generations[1]
    assert first.complete_cells == (first.chosen,)
    assert (first.chosen.box.lo, first.chosen.box.hi) == ((0.0, 0.0), (2.0, 2.0))
    # two complete cells: the better best vertex beats the smaller lower corner
    res, _ = run_builtin("rosenbrock", default_tolerance(registry_lookup("rosenbrock")))
    third = res.generations[3]
    best = {c.box.lo: min(third.vertices[i].value for i in c.vertex_indices)
            for c in third.complete_cells}
    assert sorted(best) == [(0.512, 0.0), (0.512, 0.512)]
    assert third.chosen.box.lo == (0.512, 0.512) and best[0.512, 0.512] < best[0.512, 0.0]
    # constant surface: every cell ties, the smallest lower corner wins
    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=0.5)
    res = run_slm(lambda p: 1.0, SearchBox((0.0, 0.0), (4.0, 4.0)), cfg)
    assert len(res.generations) == 4
    for g in res.generations[:-1]:
        assert g.fallback_used and g.chosen.box.lo == g.box.lo


def two_minima(p):
    """0 at (0, 4) and (2, 0), 1 at every other point with even integer
    coordinates, 5 elsewhere: on [0, 4]^2 every generation-1 vertex is
    stationary at probe spacing 1, so that generation falls back."""
    if p in ((0.0, 4.0), (2.0, 0.0)):
        return 0.0
    return 1.0 if all(x % 2 == 0 for x in p) else 5.0


@pytest.mark.parametrize("explore_all", (False, True))
def test_fallback_tie_rule_is_shared(explore_all):
    # the first best vertex, (0, 4), lies only in [0,2]x[2,4]; the smallest
    # lower corner among the rank-0 cells is that of [0,2]x[0,2]
    kept = ((0.0, 0.0), (2.0, 2.0))
    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=1.0, explore_all=explore_all,
                    cell_budget=1)
    res = run_slm(two_minima, SearchBox((0.0, 0.0), (4.0, 4.0)), cfg)
    first = res.generations[1]
    assert first.fallback_used and {v.label for v in first.vertices} == {0}
    assert [v.point for v in first.vertices if v.value == 0.0] == [(0.0, 4.0), (2.0, 0.0)]
    assert [(g.box.lo, g.box.hi) for g in res.generations if g.index == 2] == [kept]
    if not explore_all:
        assert (first.chosen.box.lo, first.chosen.box.hi) == kept


# ---------------------------------------------------------------------------
# Generation counts
# ---------------------------------------------------------------------------

def test_generation_bound_matches_runs():
    for k in (3, 5, 9):
        res, _ = run_builtin("sphere_min", 4.0 / 2 ** k)
        assert res.generations[-1].index == k


@pytest.mark.parametrize("n, evaluations", ((1, 24), (2, 212), (3, 1578), (4, 11120)))
def test_descent_cost_per_dimension(n, evaluations):
    # the paper claims O(log_2^n) time: generations grow as log2(width / tol),
    # but the evaluations per generation grow about 7x per added dimension
    centre = tuple(0.1 * (i + 1) for i in range(n))
    res = run_slm(lambda p: sum((x - c) ** 2 for x, c in zip(p, centre)),
                  SearchBox((-2.0,) * n, (2.0,) * n),
                  SlmConfig(sense=Sense.MINIMIZE, tolerance=4.0 / 64))
    assert res.termination == TOLERANCE_REACHED
    assert len(res.generations) == 7  # generations 0..log2(64)
    assert res.evaluations == evaluations


# ---------------------------------------------------------------------------
# Descent runs on the builtins
# ---------------------------------------------------------------------------

def test_sphere_descent():
    res, spec = run_builtin("sphere_min", 0.0625)
    assert res.termination == TOLERANCE_REACHED
    assert abs(res.best_point[0] - 0.0) <= 0.0625
    assert abs(res.best_point[1] - 0.4) <= 0.0625
    assert 5 <= res.generations[-1].index <= 8
    assert res.best_value == spec.evaluator(res.best_point)
    assert res.candidates == ()  # explore_all off


def test_sphere_chosen_box_trajectory():
    res, _ = run_builtin("sphere_min", 0.0625)
    boxes = [(g.chosen.box.lo, g.chosen.box.hi) for g in res.generations[:3]]
    assert boxes == [
        ((-2.0, -2.0), (2.0, 2.0)),
        ((0.0, 0.0), (2.0, 2.0)),
        ((0.0, 0.0), (1.0, 1.0)),
    ]
    assert res.generations[-1].chosen is None


def test_sphere_spacing_halves_every_generation():
    res, _ = run_builtin("sphere_min", 0.0625)
    for i, g in enumerate(res.generations):
        assert g.index == i
        assert g.spacing == (4.0 / 2 ** i, 4.0 / 2 ** i)


def test_single_path_boxes_nest():
    for name, tol in (("sphere_min", 0.01), ("shekel", 0.5)):
        res, _ = run_builtin(name, tol)
        for prev, cur in zip(res.generations, res.generations[1:]):
            assert all(a <= b for a, b in zip(prev.box.lo, cur.box.lo))
            assert all(a <= b for a, b in zip(cur.box.hi, prev.box.hi))
            if prev.index > 0:
                # (a+b)/2 - a and (b-a)/2 can differ by an ulp when the
                # bounds are not binary fractions (65.536 is not)
                for got, want in zip(cur.box.widths(), prev.box.widths()):
                    assert math.isclose(got, want / 2, rel_tol=1e-12)


def test_sphere_max_descent():
    res, _ = run_builtin("sphere_max", 0.01)
    assert res.best_point == (-2.0, -2.0)
    assert math.isclose(res.best_value, 9.76, rel_tol=1e-12)
    assert res.termination == TOLERANCE_REACHED


def test_rosenbrock_descent():
    res, _ = run_builtin("rosenbrock", 0.008)
    assert res.best_point == (1.0, 1.0)
    assert res.best_value == 0.0


def test_shekel_descent():
    res, _ = run_builtin("shekel", 0.5)
    assert res.best_point == (-32.0, -32.0)
    assert math.isclose(res.best_value, 0.9980038388186492, rel_tol=1e-12)


def signed_zero_plateau(sign, first, later):
    """sign times the distance beyond 0.75 from the origin, which is zero
    on a disc of many lattice points: the first zero returned is `first`,
    every later one `later` (0.0 or -0.0)."""
    zeros = 0

    def f(p):
        nonlocal zeros
        v = sign * max(math.hypot(*p) - 0.75, 0.0)
        if v == 0.0:
            v = first if not zeros else later
            zeros += 1
        return v

    return f


def test_best_tracks_every_evaluation():
    # the best point is the first point called among those with the best
    # value, and its value is the one that call returned, signed zero and all
    cases = [(lambda: registry_lookup("sphere_min").evaluator, Sense.MINIMIZE, False),
             (lambda: registry_lookup("sphere_max").evaluator, Sense.MAXIMIZE, False)]
    cases += [(functools.partial(signed_zero_plateau, sign, first, later), sense, True)
              for sign, sense in ((1.0, Sense.MINIMIZE), (-1.0, Sense.MAXIMIZE))
              for first, later in ((0.0, -0.0), (-0.0, 0.0))]
    for (make, sense, signed_zeros), explore_all in itertools.product(cases, (False, True)):
        f, calls = make(), []  # a fresh objective: a plateau counts its zeros

        def recorded(p):
            v = f(p)
            calls.append((p, v))
            return v

        cfg = SlmConfig(sense=sense, tolerance=0.0625, explore_all=explore_all)
        res = run_slm(recorded, SearchBox((-2.0, -2.0), (2.0, 2.0)), cfg)
        assert res.evaluations == len(calls)
        best = (min if sense is Sense.MINIMIZE else max)(v for _, v in calls)
        ties = [(p, v) for p, v in calls if v == best]
        assert (res.best_point, res.best_value) == ties[0]
        assert math.copysign(1.0, res.best_value) == math.copysign(1.0, ties[0][1])
        if signed_zeros:
            assert len(ties) > 1 and {math.copysign(1.0, v) for _, v in ties} == {1.0, -1.0}


def test_evaluation_budget_per_generation():
    # n = 2: at most 3^2 vertices per box per generation, each probing
    # at most 3^2 points including itself
    for name, tol in (("sphere_min", 0.01), ("trig", 0.5)):
        res, _ = run_builtin(name, tol)
        for g in res.generations:
            assert len(g.vertices) <= 9
        assert res.evaluations <= len(res.generations) * 81


# ---------------------------------------------------------------------------
# Explore-all mode
# ---------------------------------------------------------------------------

def test_explore_all_finds_separated_minima():
    res, spec = run_builtin("trig", 14.0 / 2 ** 10, explore_all=True,
                            cell_budget=32)
    assert res.termination == TOLERANCE_REACHED
    assert len(res.candidates) == 32
    ranked = sorted(res.candidates, key=lambda pv: (pv[1], pv[0]))
    assert list(res.candidates) == ranked
    for point, value in res.candidates:
        assert math.isclose(value, spec.evaluator(point), rel_tol=1e-12)
    qualifying = [
        (p, v) for p, v in res.candidates
        if v <= -1.85 and min(math.dist(p, m) for m in TRIG_FAMILY) <= 0.25
    ]
    assert len(qualifying) >= 4
    assert len(set(p for p, _ in qualifying)) == len(qualifying)


def test_explore_all_frontier_respects_budget():
    budget = 8
    res, _ = run_builtin("trig", 14.0 / 2 ** 8, explore_all=True,
                         cell_budget=budget)
    per_gen = {}
    for g in res.generations:
        per_gen[g.index] = per_gen.get(g.index, 0) + 1
    assert max(per_gen.values()) <= budget
    assert len(res.candidates) <= budget


def test_explore_all_boxes_nest_in_parents():
    res, _ = run_builtin("trig", 14.0 / 2 ** 6, explore_all=True, cell_budget=16)
    by_gen = {}
    for g in res.generations:
        by_gen.setdefault(g.index, []).append(g.box)
    for i in range(1, max(by_gen)):
        for child in by_gen[i + 1]:
            assert any(
                all(a <= c for a, c in zip(parent.lo, child.lo))
                and all(c <= b for c, b in zip(child.hi, parent.hi))
                for parent in by_gen[i]
            )


def test_explore_all_budget_one_matches_single_path():
    for name in builtin_names():
        for scale in (1, 8):
            tol = scale * default_tolerance(registry_lookup(name))
            single, _ = run_builtin(name, tol)
            multi, _ = run_builtin(name, tol, explore_all=True, cell_budget=1)
            assert [(g.box, g.vertices) for g in multi.generations] == \
                [(g.box, g.vertices) for g in single.generations], (name, scale)
            assert (multi.best_point, multi.best_value, multi.evaluations, multi.termination) \
                == (single.best_point, single.best_value, single.evaluations,
                    single.termination), (name, scale)


# ---------------------------------------------------------------------------
# Stopping and failure modes
# ---------------------------------------------------------------------------

def test_constant_objective_hits_generation_cap():
    domain = SearchBox((0.0, 0.0), (1.0, 1.0))
    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=1e-9, max_generations=4)
    res = run_slm(lambda p: 5.0, domain, cfg)
    assert res.termination == GENERATION_CAP
    assert res.generations[-1].index == 4
    for g in res.generations:
        assert g.fallback_used
        assert all(v.label == 0 for v in g.vertices)
    assert all(g.chosen is not None for g in res.generations[:-1])


def test_unsplittable_box_stops_cleanly():
    width = 2 ** -49
    domain = SearchBox((1.0, 1.0), (1.0 + width, 1.0 + width))
    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=2 ** -80)
    res = run_slm(lambda p: p[0] + p[1], domain, cfg)
    assert res.termination == BOX_UNSPLITTABLE
    assert res.generations[-1].index == 3


def test_largest_box_descends_on_finite_spacings():
    # every width, midpoint and probe of (-M, M)^2 is finite, so the
    # descent halves down to the tolerance like any other
    domain = SearchBox((-MAX_BOUND, -MAX_BOUND), (MAX_BOUND, MAX_BOUND))
    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=MAX_BOUND / 2 ** 9)
    res, seen = recorded_run(lambda p: (p[0] / MAX_BOUND) ** 2 + (p[1] / MAX_BOUND) ** 2,
                             domain, cfg)
    assert res.termination == TOLERANCE_REACHED
    assert (len(res.generations), res.evaluations) == (11, 372)
    assert all(math.isfinite(s) for g in res.generations for s in g.spacing)
    assert all(domain.contains(p) for p in seen)


def test_non_finite_value_reports_evaluation():
    domain = SearchBox((-2.0, -2.0), (2.0, 2.0))
    seen = []

    def f(p):
        seen.append(p)
        if p == (1.0, 1.0):  # first reachable by generation-1 probes
            return math.inf
        return p[0] ** 2 + (p[1] - 0.4) ** 2

    with pytest.raises(ObjectiveEvaluationError) as err:
        run_slm(f, domain, SlmConfig(sense=Sense.MINIMIZE, tolerance=0.0625))
    assert err.value.point == (1.0, 1.0)
    assert err.value.evaluation == len(seen) == 22  # the run's 22nd call


@pytest.mark.parametrize("explore_all", (False, True))
@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_non_finite_value_names_the_runs_call(bad, explore_all):
    # nan at call k only, or inf on every call from k on: the run stops at
    # call k and names it, as the baselines do. Call 1 is a corner of
    # generation 0, 5 the first of generation 1, and the later ones lie
    # deeper in the run
    spec = registry_lookup("sphere_min")
    cfg = SlmConfig(sense=spec.sense, tolerance=default_tolerance(spec), explore_all=explore_all)
    for k in (1, 2, 5, 11, 12, 20, 100):
        seen = []

        def f(p):
            seen.append(p)
            failing = len(seen) >= k if math.isinf(bad) else len(seen) == k
            return bad if failing else spec.evaluator(p)

        with pytest.raises(ObjectiveEvaluationError) as err:
            run_slm(f, spec.domain, cfg)
        assert len(seen) == k
        assert err.value.point == seen[-1]
        assert repr(err.value.value) == repr(bad)
        assert err.value.evaluation == k
        assert str(err.value) == f"objective returned {bad!r} at {seen[-1]!r} at evaluation {k}"


@pytest.mark.parametrize("explore_all", (False, True))
def test_raising_objective_names_the_runs_call(explore_all):
    # calls 1-3 are (0,), its probe (0.5,) and the corner (1,): the run
    # stops at the one that raises, names it and chains the exception
    seen = []

    def f(p):
        seen.append(p)
        if len(seen) == 3:
            raise RuntimeError("no value here")
        return p[0]

    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=0.25, explore_all=explore_all)
    with pytest.raises(ObjectiveEvaluationError) as err:
        run_slm(f, SearchBox((0.0,), (1.0,)), cfg)
    assert err.value.point == seen[-1] == (1.0,)
    assert err.value.evaluation == len(seen) == 3
    assert isinstance(err.value.__cause__, RuntimeError)
    assert err.value.value is err.value.__cause__
    assert str(err.value) == "objective raised RuntimeError: no value here at (1.0,) at evaluation 3"


@pytest.mark.parametrize("pick, field", (
    (lambda g: g.vertices[0], "label"),
    (lambda g: g.complete_cells[0], "lo"),
    (lambda g: g, "chosen"),
), ids=("LabeledVertex", "Cell", "GenerationRecord"))
def test_records_are_read_only(pick, field):
    res, _ = run_builtin("trig", 0.5, explore_all=True)
    assert {g.fallback_used for g in res.generations} == {False, True}
    assert all(g.fallback_used == (not g.complete_cells) for g in res.generations)
    record = pick(next(g for g in res.generations if g.complete_cells))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record == tuple(record)
    assert getattr(record, field) is record[type(record)._fields.index(field)]


def test_records_are_exactly_their_types(monkeypatch):
    # run records are built with tuple.__new__ on their class, which skips
    # the NamedTuple's arity check: each is its class with every field
    blocks = []
    label_block = labeling._label_block
    monkeypatch.setattr(labeling, "_label_block", lambda *a: blocks.append(a) or label_block(*a))
    # descent labels one box per generation, on the block path from
    # generation 1 on, and chooses generation 0's one cell; explore-all
    # labels generations of several boxes on the per-vertex loop
    descent, spec = run_builtin("trig", 0.5)
    assert [g.index for g in descent.generations] == list(range(len(descent.generations)))
    assert len(blocks) == len(descent.generations) - 1
    assert descent.generations[0].chosen == (spec.domain.lo, spec.domain.hi, (0, 1, 2, 3))
    explore, _ = run_builtin("trig", 0.5, explore_all=True)
    assert max(collections.Counter(g.index for g in explore.generations).values()) > 1
    # and every record's vertices is a tuple of its box's whole grid: the
    # 2**n corners at generation 0, the 3**n subdivide grid from 1 on
    n = spec.domain.dimension
    for g in descent.generations + explore.generations:
        assert type(g) is GenerationRecord and len(g) == len(GenerationRecord._fields)
        assert type(g.vertices) is tuple
        assert len(g.vertices) == (2 ** n if g.index == 0 else 3 ** n)
        for v in g.vertices:
            assert type(v) is LabeledVertex and len(v) == len(LabeledVertex._fields)
        for c in g.complete_cells + ((g.chosen,) if g.chosen else ()):
            assert type(c) is Cell and len(c) == len(Cell._fields)


def test_runs_are_deterministic():
    a, _ = run_builtin("trig", 0.25, explore_all=True, cell_budget=16)
    b, _ = run_builtin("trig", 0.25, explore_all=True, cell_budget=16)
    assert a == b
    assert repr(a) == repr(b)


def test_config_validation():
    with pytest.raises(ValueError):
        SlmConfig(sense=Sense.MINIMIZE, tolerance=0.0)
    with pytest.raises(ValueError):
        SlmConfig(sense=Sense.MINIMIZE, tolerance=1.0, max_generations=0)
    with pytest.raises(ValueError):
        SlmConfig(sense=Sense.MINIMIZE, tolerance=1.0, cell_budget=0)


def test_infinite_tolerance_rejected():
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        SlmConfig(sense=Sense.MINIMIZE, tolerance=math.inf)


# ---------------------------------------------------------------------------
# Point store: each lattice point evaluated and labeled once per run
# ---------------------------------------------------------------------------

def recorded_run(f, domain, cfg):
    """run_slm's result and every point f was called at, in order."""
    seen = []

    def recorded(p):
        seen.append(p)
        return f(p)

    return run_slm(recorded, domain, cfg), seen


def assert_store_invisible(f, domain, cfg):
    """run_slm returns the store-free reference's result, evaluations
    included, and calls f at its distinct points in first-call order."""
    res, seen = recorded_run(f, domain, cfg)
    expected, first_calls = reference_run(f, domain, cfg)
    assert res == expected
    assert seen == first_calls
    return res


# distinct points per builtin at its default tolerance: (descent, explore-all)
DISTINCT_POINTS = {
    "sphere_min": (372, 2626),
    "trig": (304, 6994),
    "sphere_max": (268, 1145),
    "rosenbrock": (372, 2612),
    "shekel": (372, 4718),
}


@pytest.mark.parametrize("explore_all", (False, True))
@pytest.mark.parametrize("name", builtin_names())
def test_point_store_changes_no_result(name, explore_all):
    spec = registry_lookup(name)
    cfg = SlmConfig(sense=spec.sense, tolerance=default_tolerance(spec),
                    explore_all=explore_all)
    res = assert_store_invisible(spec.evaluator, spec.domain, cfg)
    assert res.evaluations == DISTINCT_POINTS[name][explore_all]


def assert_one_key_per_lattice_point(res, seen, domain, cfg):
    tables = lattice_floats(domain, lattice_depth(domain, cfg))
    assert res.evaluations == len(seen) == len(set(seen)) == len(set(lattice_indices(seen, tables)))


@pytest.mark.parametrize("explore_all", (False, True))
@pytest.mark.parametrize("name", builtin_names())
def test_float_keys_are_lattice_points(name, explore_all):
    # every coordinate is the float the lattice table holds for its index,
    # so each lattice point is one key, evaluated once, on every domain
    spec = registry_lookup(name)
    cfg = SlmConfig(sense=spec.sense, tolerance=default_tolerance(spec), explore_all=explore_all)
    res, seen = recorded_run(spec.evaluator, spec.domain, cfg)
    assert_one_key_per_lattice_point(res, seen, spec.domain, cfg)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    halvings=st.integers(1, 5),
    explore_all=st.booleans(),
    cell_budget=st.integers(1, 8),
    sense=st.sampled_from(Sense),
)
def test_float_keys_are_lattice_points_on_random_boxes(n, data, halvings, explore_all,
                                                       cell_budget, sense):
    lo = data.draw(st.tuples(*[st.floats(-100.0, 100.0) for _ in range(n)]))
    widths = data.draw(st.tuples(*[st.floats(0.01, 100.0) for _ in range(n)]))
    domain = SearchBox(lo, tuple(a + w for a, w in zip(lo, widths)))
    centre = data.draw(st.tuples(*[st.floats(a, b) for a, b in zip(domain.lo, domain.hi)]))
    cfg = SlmConfig(sense=sense, tolerance=max(domain.widths()) / 2 ** halvings,
                    explore_all=explore_all, cell_budget=cell_budget)
    res, seen = recorded_run(lambda p: sum((x - c) ** 2 for x, c in zip(p, centre)), domain, cfg)
    assert_one_key_per_lattice_point(res, seen, domain, cfg)


def _ulps_above(x, count):
    for _ in range(count):
        x = math.nextafter(x, math.inf)
    return x


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    lo=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    # a float is the axis's width; an integer is its width in ulps, so
    # that halving repeats floats and lattice entries collide
    width=st.tuples(*[st.one_of(st.floats(0.01, 100.0), st.integers(1, 8))] * 3),
    halvings=st.integers(1, 4),
    explore_all=st.booleans(),
    cell_budget=st.integers(1, 32),
)
@example(n=1, lo=(1.0,) * 3, width=(3,) * 3, halvings=4, explore_all=True, cell_budget=32)
@example(n=2, lo=(0.1, -7.3, 0.0), width=(5, 1.7, 1.0), halvings=4, explore_all=False,
         cell_budget=1)
def test_every_grid_point_is_made_before_it_is_labeled(n, lo, width, halvings, explore_all,
                                                       cell_budget):
    # LatticeAxis.probes finds only floats its table has made; run_slm
    # relies on every grid coordinate being one when its generation starts
    hi = [_ulps_above(a, w) if isinstance(w, int) else a + w for a, w in zip(lo, width)]
    domain = SearchBox(lo[:n], hi[:n])
    tolerance = max(domain.widths()) / 2 ** halvings
    assume(tolerance > 0)
    centre = tuple(a + (b - a) / 3.0 for a, b in zip(domain.lo, domain.hi))
    grids = []

    def made_first(f, grid, step, sense, values, lattice, corner=None):
        for p in grid:
            assert all(x in axis.index for x, axis in zip(p, lattice)), p
        grids.append(grid)
        return label_grid(f, grid, step, sense, values, lattice, corner=corner)

    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=tolerance, explore_all=explore_all,
                    cell_budget=cell_budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "label_grid", made_first)
        res = run_slm(lambda p: sum((x - c) ** 2 for x, c in zip(p, centre)), domain, cfg)
    assert len(grids) == res.generations[-1].index + 1


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 4),
    lo=st.tuples(*[st.floats(-100.0, 100.0)] * 4),
    # as above: an integer width in ulps makes lattice floats collide
    width=st.tuples(*[st.one_of(st.floats(0.01, 100.0), st.integers(1, 20))] * 4),
    halvings=st.integers(1, 5),
    sense=st.sampled_from(Sense),
)
@example(n=3, lo=(0.1, 1.0, -3.0, 0.0), width=(5, 5, 5, 1.0), halvings=5,
         sense=Sense.MINIMIZE)
def test_block_path_changes_no_run_result(n, lo, width, halvings, sense):
    # each generation's single box takes label_grid's block path, unless
    # two of its block floats collide; the per-vertex loop must give the
    # same run, call for call
    hi = [_ulps_above(a, w) if isinstance(w, int) else a + w for a, w in zip(lo, width)]
    domain = SearchBox(lo[:n], hi[:n])
    centre = tuple(a + (b - a) / 3.0 for a, b in zip(domain.lo, domain.hi))
    cfg = SlmConfig(sense=sense, tolerance=max(domain.widths()) / 2 ** halvings)

    def run():
        calls = []

        def f(p):
            calls.append(p)
            total = 0.0
            for x, c in zip(p, centre):
                total += abs(x - c)
            return total

        return run_slm(f, domain, cfg), calls

    blocks = []
    label_block = labeling._label_block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling, "_label_block",
                   lambda *args: blocks.append(args) or label_block(*args))
        with_blocks = run()
    if not any(isinstance(w, int) for w in width[:n]):
        # no float collides on these lattices: every generation from 1 on
        assert len(blocks) == with_blocks[0].generations[-1].index, "boxes take the block path"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling, "_probe_block", lambda grid, step, lattice, corner: None)
        assert run() == with_blocks


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    lo=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    width=st.tuples(*[st.floats(0.01, 100.0)] * 3),
    halvings=st.integers(1, 5),
    explore_all=st.booleans(),
    cell_budget=st.integers(1, 32),
)
def test_a_single_box_generation_passes_its_corner(n, lo, width, halvings, explore_all,
                                                    cell_budget):
    # run_slm names a box's corner, its lattice indices, exactly when a
    # generation from 1 on has one box; generation 0's corners and several
    # boxes' merged grids take none
    domain = SearchBox(lo[:n], [a + w for a, w in zip(lo, width[:n])])
    centre = tuple(a + (b - a) / 3.0 for a, b in zip(domain.lo, domain.hi))
    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=max(domain.widths()) / 2 ** halvings,
                    explore_all=explore_all, cell_budget=cell_budget)
    corners_passed = []

    def spy(*args, **kwargs):
        corners_passed.append(kwargs.get("corner"))
        return label_grid(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "label_grid", spy)
        res = run_slm(lambda p: sum((x - c) ** 2 for x, c in zip(p, centre)), domain, cfg)
    tables = lattice_floats(domain, lattice_depth(domain, cfg))
    per_generation = collections.defaultdict(list)
    for record in res.generations:
        per_generation[record.index].append(record.box)
    expected = [list(lattice_indices([boxes[0].lo], tables)[0])
                if gen and len(boxes) == 1 else None
                for gen, boxes in sorted(per_generation.items())]
    assert corners_passed == expected
    assert explore_all or all(c is not None for c in corners_passed[1:])


def test_deep_run_evaluates_each_point_once():
    # a box about 72 000 ulps wide stops being splittable after 16 halvings,
    # far short of the 61-level lattice that tolerance and cap allow
    domain = SearchBox((0.1,), (0.1 + 1e-12,))
    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=1e-300, max_generations=60)
    res, seen = recorded_run(lambda p: p[0], domain, cfg)
    assert res.termination == BOX_UNSPLITTABLE
    assert len(res.generations) == 17
    assert res.best_point == (0.1,)
    assert res.evaluations == len(seen) == len(set(seen)) == 47


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    halvings=st.integers(1, 5),
    explore_all=st.booleans(),
    cell_budget=st.integers(1, 4),
    sense=st.sampled_from(Sense),
)
def test_point_store_invisible_on_shifted_spheres(n, data, halvings, explore_all,
                                                  cell_budget, sense):
    centre = data.draw(st.tuples(*[st.floats(-2.5, 2.5) for _ in range(n)]))
    domain = SearchBox((-2.0,) * n, (2.0,) * n)
    cfg = SlmConfig(sense=sense, tolerance=4.0 / 2 ** halvings,
                    explore_all=explore_all, cell_budget=cell_budget)
    assert_store_invisible(lambda p: sum((x - c) ** 2 for x, c in zip(p, centre)),
                           domain, cfg)


# Quantized L1 cones are flat in steps, so several vertices of a box often
# tie for best: the descent examples are runs where the first cell holding
# the first best vertex is not the smallest lower corner among tied cells.
# The two 1-D explore-all examples at budget 2 have a box with a complete
# cell and a second cell holding its best vertex, so keeping that cell too,
# in engine._next_cells or slm_reference.next_cells alone, fails them on
# every run.
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    quarters=st.tuples(*[st.integers(-10, 10)] * 3),
    q=st.sampled_from((0.25, 0.5, 1.0)),
    halvings=st.integers(1, 5),
    explore_all=st.booleans(),
    cell_budget=st.integers(1, 4),
    sense=st.sampled_from(Sense),
)
@example(n=2, quarters=(1, 8, 0), q=0.25, halvings=2, explore_all=False, cell_budget=1,
         sense=Sense.MINIMIZE)
@example(n=2, quarters=(5, 1, 0), q=0.25, halvings=3, explore_all=False, cell_budget=1,
         sense=Sense.MINIMIZE)
@example(n=2, quarters=(-6, 9, 0), q=1.0, halvings=4, explore_all=False, cell_budget=1,
         sense=Sense.MINIMIZE)
@example(n=3, quarters=(-4, -9, 2), q=0.5, halvings=3, explore_all=False, cell_budget=1,
         sense=Sense.MINIMIZE)
@example(n=1, quarters=(0, 0, 0), q=0.5, halvings=2, explore_all=True, cell_budget=2,
         sense=Sense.MINIMIZE)
@example(n=1, quarters=(0, 0, 0), q=1.0, halvings=2, explore_all=True, cell_budget=2,
         sense=Sense.MINIMIZE)
def test_point_store_invisible_on_quantized_cones(n, quarters, q, halvings, explore_all,
                                                  cell_budget, sense):
    centre = [k / 4 for k in quarters[:n]]
    domain = SearchBox((-2.0,) * n, (2.0,) * n)
    cfg = SlmConfig(sense=sense, tolerance=4.0 / 2 ** halvings,
                    explore_all=explore_all, cell_budget=cell_budget)
    assert_store_invisible(
        lambda p: float(math.floor(q * sum(abs(x - c) for x, c in zip(p, centre)))),
        domain, cfg)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    halvings=st.integers(1, 5),
    explore_all=st.booleans(),
    cell_budget=st.integers(1, 4),
)
def test_maximizing_minus_f_mirrors_minimizing_f(n, data, halvings, explore_all, cell_budget):
    centre = data.draw(st.tuples(*[st.floats(-2.5, 2.5) for _ in range(n)]))

    def f(p):
        return sum((x - c) ** 2 for x, c in zip(p, centre))

    def run(g, sense):
        cfg = SlmConfig(sense=sense, tolerance=4.0 / 2 ** halvings,
                        explore_all=explore_all, cell_budget=cell_budget)
        return run_slm(g, SearchBox((-2.0,) * n, (2.0,) * n), cfg)

    def seen(res, sign):
        return (res.termination, res.evaluations, res.best_point, sign * res.best_value,
                [(p, sign * v) for p, v in res.candidates],
                [(g.index, g.box, g.complete_cells, g.chosen,
                  [(v.point, sign * v.value, v.probe_target, v.label) for v in g.vertices])
                 for g in res.generations])

    assert seen(run(lambda p: -f(p), Sense.MAXIMIZE), -1.0) == seen(run(f, Sense.MINIMIZE), 1.0)


# sha256 of every float, label and box a builtin run produces at its
# default tolerance; speed work must leave each one bit for bit.
# rosenbrock's and shekel's moved when probes came from the lattice
# table: probe targets are now the lattice floats, not x + h sums
RUN_DIGESTS = {
    ("sphere_min", False): "14bb25d20103ba5efaf458ec7522da15c1bc3bc4f0db9fb9ed07f1b825212b4b",
    ("sphere_min", True): "aa0eb696e87ef0a9eebfc4216be6b1b85295d35fb2c6b22e0d31c2e507e5799f",
    ("trig", False): "81737effffad6d795f9f43a2b73e483aa2940bcacf383587ba5a4bec67b9295d",
    ("trig", True): "7f705f342adcda2d91e881346a94375ce1300c21b8f9892b5916d6a79c01e5b4",
    ("sphere_max", False): "0616b7c1efc00878bd2aa7df119b2ee154b96ce468e16fa0badb5550038d5f27",
    ("sphere_max", True): "be820cedb8c5a44dd682d6e183f647f3ca494d11d6e5e8c95b66c75ad5f3257d",
    ("rosenbrock", False): "041fd5e8bdf0e2bec33e940e3646a9882f7edea3ca015f4b0f88dac544c72c79",
    ("rosenbrock", True): "b7b5088e18042b6477d5e22e0d4a00424e749bbc1acbf5e41b00ed331b194614",
    ("shekel", False): "55d5af45da0d3469952faf847cf20d5456b8b90b36db4be79eaf9064b01c808d",
    ("shekel", True): "69b1ad433d8ba21ad2da4fe5964158e2d4856a99b888c5d5f13ead016dfad532",
}


# The same digest of shifted-sphere descents at tolerance width/64 on
# [-2, 2]^n, n = 3 and 4, where every generation after the first labels
# one box's 3**n grid. At each n one centre is inside; the other lies
# within a cell of two domain faces, so the last boxes are flush with them.
SPHERE_DIGESTS = {
    (0.3, -0.7, 1.1):
        "062a6a9b0026ed4fa3d54f93e449498ab83ddabdb9f9812c9e4a786a575ab5c1",
    (1.97, -0.4, -1.99):
        "7d806511d2a0d488b4fe3cf82cdfa29b1af5db2d5e437d4341aa00d37f9d3b20",
    (0.3, -0.7, 1.1, -0.2):
        "ffded090300e91e782be6494aa3fce86354942ba9f0ea1536a3bf7f114db99b7",
    (1.97, -0.4, 0.6, -1.99):
        "d8218acb973cb9c65d0d2f372fa0b339050f879eeb962b3224a81ccd6a7b4e7c",
}


def run_digest(res):
    parts = [res.best_point, res.best_value, res.termination, res.candidates]
    for g in res.generations:
        parts.append((g.box, g.spacing, g.chosen and g.chosen.box,
                      [(v.point, v.value, v.probe_target, v.label) for v in g.vertices]))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("explore_all", (False, True))
@pytest.mark.parametrize("name", builtin_names())
def test_builtin_runs_are_bit_stable(name, explore_all):
    res, _ = run_builtin(name, default_tolerance(registry_lookup(name)),
                         explore_all=explore_all)
    assert run_digest(res) == RUN_DIGESTS[name, explore_all]


@pytest.mark.parametrize("centre", SPHERE_DIGESTS, ids=str)
def test_shifted_sphere_descents_are_bit_stable(centre):
    def f(p):
        total = 0.0  # not sum(), which rounds differently from Python 3.12 on
        for x, c in zip(p, centre):
            total += (x - c) ** 2
        return total

    n = len(centre)
    res = run_slm(f, SearchBox((-2.0,) * n, (2.0,) * n),
                  SlmConfig(sense=Sense.MINIMIZE, tolerance=4.0 / 64))
    assert run_digest(res) == SPHERE_DIGESTS[centre]


# ---------------------------------------------------------------------------
# Structure of the generations: labels, spacing, nesting, frontier size
# ---------------------------------------------------------------------------

def _inside(inner, outer):
    return all(a <= x and y <= b for x, y, a, b in zip(inner.lo, inner.hi, outer.lo, outer.hi))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    halvings=st.integers(1, 5),
    explore_all=st.booleans(),
    cell_budget=st.integers(1, 8),
    sense=st.sampled_from(Sense),
)
def test_generations_halve_nest_and_stay_in_budget(n, data, halvings, explore_all,
                                                   cell_budget, sense):
    centre = data.draw(st.tuples(*[st.floats(-2.5, 2.5) for _ in range(n)]))
    domain = SearchBox((-2.0,) * n, (2.0,) * n)
    cfg = SlmConfig(sense=sense, tolerance=4.0 / 2 ** halvings,
                    explore_all=explore_all, cell_budget=cell_budget)
    res = run_slm(lambda p: sum((x - c) ** 2 for x, c in zip(p, centre)), domain, cfg)
    assert res.termination in (TOLERANCE_REACHED, GENERATION_CAP, BOX_UNSPLITTABLE)
    by_gen = {}
    for g in res.generations:
        assert all(0 <= v.label <= n for v in g.vertices)
        for c in g.complete_cells + ((g.chosen,) if g.chosen is not None else ()):
            assert _inside(c, g.box) and c.box == SearchBox(c.lo, c.hi)
        by_gen.setdefault(g.index, []).append(g)
    assert list(by_gen) == list(range(len(by_gen)))
    for k in range(1, len(by_gen)):
        prev, cur = by_gen[k - 1], by_gen[k]
        assert all(g.spacing == tuple(s / 2.0 for s in prev[0].spacing) for g in cur)
        assert len(cur) <= (cell_budget if explore_all else 1)
        assert all(any(_inside(g.box, h.box) for h in prev) for g in cur)
        if not explore_all:
            assert cur[0].box == prev[0].chosen.box
