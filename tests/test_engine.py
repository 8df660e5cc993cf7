"""Subdivision search: cell selection, descent trajectories, stopping."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmopt.bench import default_tolerance
from slmopt.engine import (
    GENERATION_CAP,
    NO_COMPLETE_CELL,
    TOLERANCE_REACHED,
    SlmConfig,
    complete_cells,
    run_slm,
    select_cell,
)
from slmopt.geometry import Cell, SearchBox, corners, splittable, subdivide
from slmopt.labeling import ObjectiveEvaluationError, Sense, label_grid
from slmopt.objectives import builtin_names, registry_lookup

from lattice_reference import (
    lattice_depth,
    lattice_floats,
    lattice_indices,
    lattice_vertex,
    run_lattice,
)

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


def test_select_cell_prefers_best_vertex_then_lex():
    spec = registry_lookup("sphere_min")
    domain = spec.domain
    grid, cells = subdivide(domain)
    lattice = run_lattice(domain, 2, grid)  # probes one index, width / 4, apart
    vertices = label_grid(spec.evaluator, grid, 1, spec.sense, {}, lattice)
    labels = [v.label for v in vertices]
    kept = complete_cells(cells, labels)
    chosen = select_cell(kept, [v.value for v in vertices])  # sphere_min minimizes
    assert chosen.box.lo == (0.0, 0.0) and chosen.box.hi == (2.0, 2.0)
    # constant surface: every cell ties, lex-smallest lower corner wins
    assert select_cell(cells, [1.0] * len(grid)) is cells[0]
    with pytest.raises(ValueError):
        select_cell((), [v.value for v in vertices])


def two_minima(p):
    """0 at (0, 4) and (2, 0), 1 at every other point with even integer
    coordinates, 5 elsewhere: on [0, 4]^2 every generation-1 vertex is
    stationary at probe spacing 1, so that generation falls back."""
    if p in ((0.0, 4.0), (2.0, 0.0)):
        return 0.0
    return 1.0 if all(x % 2 == 0 for x in p) else 5.0


@pytest.mark.parametrize("explore_all, kept", (
    (False, ((0.0, 2.0), (2.0, 4.0))),  # the cell of the first best vertex, (0, 4)
    (True, ((0.0, 0.0), (2.0, 2.0))),   # the smallest lower corner among rank-0 cells
))
def test_fallback_tie_rule_separates_the_policies(explore_all, kept):
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


def test_best_tracks_every_evaluation():
    spec = registry_lookup("sphere_min")
    seen = []

    def counted(p):
        v = spec.evaluator(p)
        seen.append(v)
        return v

    cfg = SlmConfig(sense=spec.sense, tolerance=0.0625)
    res = run_slm(counted, spec.domain, cfg)
    assert res.evaluations == len(seen)
    assert res.best_value == min(seen)


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
    single, _ = run_builtin("sphere_min", 0.0625)
    multi, _ = run_builtin("sphere_min", 0.0625, explore_all=True, cell_budget=1)
    assert multi.best_point == single.best_point
    assert multi.best_value == single.best_value
    assert [g.box for g in multi.generations] == [g.box for g in single.generations]


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
    assert res.termination == NO_COMPLETE_CELL
    assert res.generations[-1].index == 3


def test_probe_stays_in_domain_where_the_midpoint_overflows():
    # (1e308 + 1.7e308) / 2 is inf, so the domain cannot be halved; its
    # lattice midpoint is 1e308 / 2 + 1.7e308 / 2, probed from both corners
    domain = SearchBox((1e308,), (1.7e308,))
    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=1e300)
    res, seen = recorded_run(lambda p: p[0] * 1e-308, domain, cfg)
    assert res.termination == NO_COMPLETE_CELL
    assert seen == [(1e308,), (1.35e308,), (1.7e308,)]


def test_non_finite_value_reports_generation():
    domain = SearchBox((-2.0, -2.0), (2.0, 2.0))

    def f(p):
        if p == (1.0, 1.0):  # first reachable by generation-1 probes
            return math.inf
        return p[0] ** 2 + (p[1] - 0.4) ** 2

    with pytest.raises(ObjectiveEvaluationError) as err:
        run_slm(f, domain, SlmConfig(sense=Sense.MINIMIZE, tolerance=0.0625))
    assert err.value.generation == 1
    assert err.value.point == (1.0, 1.0)


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

def unstored_run(f, domain, cfg):
    """The search loop without the point store: every vertex is labeled
    on its own on the lattice (lattice_vertex) and every probe calls f.
    Returns what run_slm returns apart from the evaluation count."""
    sense = cfg.sense
    rank = (lambda v: v) if sense is Sense.MINIMIZE else (lambda v: -v)
    best = []
    depth = lattice_depth(domain, cfg)
    tables = lattice_floats(domain, depth)

    def tracked(p):
        v = f(p)
        if not best or sense.better(v, best[1]):
            best[:] = [p, v]
        return v

    def cell_rank(cell, vertices):
        return min(rank(vertices[i].value) for i in cell.vertex_indices), cell.box.lo

    records, frontier, spacing, gen = [], [domain], domain.widths(), 0
    while True:
        staged = []
        for box in sorted(frontier, key=lambda b: (b.lo, b.hi)):
            if gen == 0:
                grid = corners(box)
                cells = (Cell(box, tuple(range(len(grid)))),)
            else:
                grid, cells = subdivide(box)
            step = 2 ** (depth - gen - 1)
            vertices = tuple(lattice_vertex(tracked, p, step, tables, sense) for p in grid)
            complete = complete_cells(cells, [v.label for v in vertices])
            staged.append((box, vertices, complete, cells))
        termination = (TOLERANCE_REACHED if max(spacing) <= cfg.tolerance
                       else GENERATION_CAP if gen >= cfg.max_generations else None)
        chosen = None
        if termination is None and cfg.explore_all:
            sure = [(cell_rank(c, vs), c) for _, vs, cm, _ in staged for c in cm]
            unsure = [(cell_rank(c, vs), c) for _, vs, cm, cs in staged if not cm
                      for c in cs]
            ranked = [c for _, c in sorted(sure, key=lambda rc: rc[0])]
            ranked += [c for _, c in sorted(unsure, key=lambda rc: rc[0])]
            frontier = [c.box for c in ranked[:cfg.cell_budget]]
        elif termination is None:
            _, vertices, complete, cells = staged[0]
            if complete:
                chosen = min(complete, key=lambda c: cell_rank(c, vertices))
            else:
                top = min(range(len(vertices)), key=lambda i: (rank(vertices[i].value), i))
                chosen = next(c for c in cells if top in c.vertex_indices)
            frontier = [chosen.box]
        for i, (box, vertices, complete, _) in enumerate(staged):
            records.append((gen, box, spacing, vertices, complete,
                            chosen if i == 0 else None, not complete))
        if termination is None and not all(splittable(b) for b in frontier):
            termination = NO_COMPLETE_CELL
        if termination is not None:
            break
        spacing = tuple(v / 2.0 for v in spacing)
        gen += 1
    candidates = ()
    if cfg.explore_all:
        reps = {}
        for _, vertices, _, _ in staged:
            top = min(vertices, key=lambda v: rank(v.value))
            reps.setdefault(top.point, top.value)
        candidates = tuple(sorted(reps.items(), key=lambda pv: (rank(pv[1]), pv[0])))
    return best[0], best[1], candidates, records, termination


def assert_store_invisible(f, domain, cfg):
    seen = []

    def recorded(p):
        seen.append(p)
        return f(p)

    res = run_slm(recorded, domain, cfg)
    assert res.evaluations == len(set(seen)) == len(seen)
    best_point, best_value, candidates, records, termination = unstored_run(f, domain, cfg)
    assert (res.best_point, res.best_value) == (best_point, best_value)
    assert res.candidates == candidates
    assert res.termination == termination
    assert [(g.index, g.box, g.spacing, g.vertices, g.complete_cells, g.chosen,
             g.fallback_used) for g in res.generations] == records
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


def recorded_run(f, domain, cfg):
    """run_slm's result and every point f was called at, in order."""
    seen = []

    def recorded(p):
        seen.append(p)
        return f(p)

    return run_slm(recorded, domain, cfg), seen


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


def test_deep_run_evaluates_each_point_once():
    # a box about 72 000 ulps wide stops being splittable after 16 halvings,
    # far short of the 61-level lattice that tolerance and cap allow
    domain = SearchBox((0.1,), (0.1 + 1e-12,))
    cfg = SlmConfig(sense=Sense.MINIMIZE, tolerance=1e-300, max_generations=60)
    res, seen = recorded_run(lambda p: p[0], domain, cfg)
    assert res.termination == NO_COMPLETE_CELL
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


@pytest.mark.parametrize("explore_all", (False, True))
@pytest.mark.parametrize("name", builtin_names())
def test_builtin_runs_are_bit_stable(name, explore_all):
    res, _ = run_builtin(name, default_tolerance(registry_lookup(name)),
                         explore_all=explore_all)
    parts = [res.best_point, res.best_value, res.termination, res.candidates]
    for g in res.generations:
        parts.append((g.box, g.spacing, g.chosen and g.chosen.box,
                      [(v.point, v.value, v.probe_target, v.label) for v in g.vertices]))
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == RUN_DIGESTS[name, explore_all]


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
    assert res.termination in (TOLERANCE_REACHED, GENERATION_CAP, NO_COMPLETE_CELL)
    by_gen = {}
    for g in res.generations:
        assert all(0 <= v.label <= n for v in g.vertices)
        by_gen.setdefault(g.index, []).append(g)
    assert list(by_gen) == list(range(len(by_gen)))
    for k in range(1, len(by_gen)):
        prev, cur = by_gen[k - 1], by_gen[k]
        assert all(g.spacing == tuple(s / 2.0 for s in prev[0].spacing) for g in cur)
        assert len(cur) <= (cell_budget if explore_all else 1)
        assert all(any(_inside(g.box, h.box) for h in prev) for g in cur)
        if not explore_all:
            assert cur[0].box == prev[0].chosen.box
