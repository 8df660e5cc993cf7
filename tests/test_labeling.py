"""Vertex labeling on a run's lattice against the store-free reference's
lattice pieces (slm_reference.lattice_vertex) plus hand-checked
worked-example rows for the sphere and banana surfaces."""

import itertools
import math
import operator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slmopt import labeling
from slmopt.geometry import LatticeAxis, SearchBox, corners
from slmopt.labeling import (
    ObjectiveEvaluationError,
    Sense,
    checked,
    label_grid,
)
from slmopt.objectives import eval_rosenbrock, eval_sphere_min

from slm_reference import (
    index_step,
    label_of,
    lattice_floats,
    lattice_vertex,
    run_lattice,
)

SPHERE_DOMAIN = SearchBox((-2.0, -2.0), (2.0, 2.0))
ROSEN_DOMAIN = SearchBox((-2.048, -2.048), (2.048, 2.048))
RUN_DEPTH = 11  # the lattice of a run at the default tolerance, width / 2**10


def label_points(f, points, spacing, domain, depth=RUN_DEPTH, values=None):
    """Minimizing label_grid on domain's lattice, probing at a float
    spacing that is a whole number of lattice steps."""
    lattice = run_lattice(domain, depth, points)
    step = index_step(domain, spacing, depth)
    return label_grid(f, points, step, Sense.MINIMIZE, {} if values is None else values, lattice)


# Worked rows: (point, probe target, label) at a fixed probe spacing.
# Each row was verified by hand against the objective's arithmetic; the
# tests below also re-derive every row through lattice_vertex.

SPHERE_CORNER_ROWS = (  # spacing (2, 2), the four domain corners
    ((-2.0, 2.0), (0.0, 0.0), 2),
    ((2.0, 2.0), (0.0, 0.0), 2),
    ((-2.0, -2.0), (0.0, 0.0), 0),
    ((2.0, -2.0), (0.0, 0.0), 1),
)

SPHERE_REFINED_ROWS = (  # spacing (1, 1)
    ((-2.0, 2.0), (-1.0, 1.0), 2),
    ((2.0, 2.0), (1.0, 1.0), 2),
    ((-2.0, -2.0), (-1.0, -1.0), 0),
    ((2.0, -2.0), (1.0, -1.0), 1),
    ((2.0, 0.0), (1.0, 0.0), 1),
    ((0.0, 2.0), (0.0, 1.0), 2),
    ((-2.0, 0.0), (-1.0, 0.0), 0),
    ((0.0, -2.0), (0.0, -1.0), 0),
)

SPHERE_FINE_ROWS = (  # spacing (0.5, 0.5)
    ((-1.0, 1.0), (-0.5, 0.5), 2),
    ((1.0, 1.0), (0.5, 0.5), 2),
    ((-1.0, -1.0), (-0.5, -0.5), 0),
    ((1.0, -1.0), (0.5, -0.5), 1),
    ((1.0, 0.0), (0.5, 0.5), 1),
    ((0.0, 1.0), (0.0, 0.5), 2),
    ((-1.0, 0.0), (-0.5, 0.5), 0),
    ((0.0, -1.0), (0.0, -0.5), 0),
    ((0.0, 0.0), (0.0, 0.5), 0),
    ((-1.0, 2.0), (-0.5, 1.5), 2),
    ((2.0, 2.0), (1.5, 1.5), 2),
    ((-2.0, 1.0), (-1.5, 0.5), 2),
)

ROSEN_CORNER_ROWS = (  # spacing (2.048, 2.048), the four domain corners
    ((2.048, 2.048), (0.0, 0.0), 2),
    ((2.048, -2.048), (0.0, 0.0), 1),
    ((-2.048, -2.048), (0.0, 0.0), 0),
    ((-2.048, 2.048), (0.0, 0.0), 2),
)

ROSEN_FINE_ROWS = (  # spacing (0.512, 0.512)
    ((1.024, 2.048), (1.536, 2.048), 0),
    ((2.048, 1.024), (1.536, 1.536), 1),
    ((1.024, 1.024), (1.024, 1.024), 0),
)

# For these two points the valley is so flat that several neighbors are
# nearly tied; the winning neighbor is (0.512, 0.512) in both cases.
# check_rows pins the probe target as well as the label, as for every
# other row.
ROSEN_FINE_LABEL_ONLY = (
    ((1.024, 0.0), (0.512, 0.512), 1),
    ((0.0, 1.024), (0.512, 0.512), 2),
)


def check_rows(f, domain, spacing, rows):
    points = tuple(point for point, _, _ in rows)
    run_lattice(domain, RUN_DEPTH, [target for _, target, _ in rows])  # targets on the lattice
    tables = lattice_floats(domain, RUN_DEPTH)
    step = index_step(domain, spacing, RUN_DEPTH)
    for (point, target, label), lv in zip(rows, label_points(f, points, spacing, domain)):
        assert lv.probe_target == target, f"probe target from {point}"
        assert lv.label == label, f"label at {point}"
        assert lattice_vertex(f, point, step, tables, Sense.MINIMIZE) == lv


def test_sphere_corner_rows():
    check_rows(eval_sphere_min, SPHERE_DOMAIN, (2.0, 2.0), SPHERE_CORNER_ROWS)


def test_sphere_refined_rows():
    check_rows(eval_sphere_min, SPHERE_DOMAIN, (1.0, 1.0), SPHERE_REFINED_ROWS)


def test_sphere_fine_rows():
    check_rows(eval_sphere_min, SPHERE_DOMAIN, (0.5, 0.5), SPHERE_FINE_ROWS)


def test_rosenbrock_corner_rows():
    check_rows(eval_rosenbrock, ROSEN_DOMAIN, (2.048, 2.048), ROSEN_CORNER_ROWS)


def test_rosenbrock_fine_rows():
    check_rows(eval_rosenbrock, ROSEN_DOMAIN, (0.512, 0.512), ROSEN_FINE_ROWS)


def test_rosenbrock_fine_label_only_rows():
    check_rows(eval_rosenbrock, ROSEN_DOMAIN, (0.512, 0.512), ROSEN_FINE_LABEL_ONLY)


# ---------------------------------------------------------------------------
# label_of
# ---------------------------------------------------------------------------

def test_label_of_cases():
    assert label_of((0.0, 0.0)) == 0
    assert label_of((1.0, 1.0)) == 0
    assert label_of((-1.0, 0.0)) == 1
    assert label_of((0.0, -1.0)) == 2
    assert label_of((-1.0, -1.0)) == 2
    assert label_of((-1.0, 2.0, -3.0, 4.0)) == 3
    assert label_of((2.0, -1.0, 0.0)) == 2
    assert label_of(()) == 0


def test_label_of_printed_displacements():
    # the label-only rows above stay correct for the flat-valley
    # neighbor as well: same sign pattern, same label
    assert label_of((0.512 - 1.024, 0.0)) == 1
    assert label_of((-0.512, 0.512 - 1.024)) == 2


# ---------------------------------------------------------------------------
# Sense and tie-breaks
# ---------------------------------------------------------------------------

def test_sense_better():
    assert Sense.MINIMIZE.better(1.0, 2.0)
    assert not Sense.MINIMIZE.better(2.0, 1.0)
    assert not Sense.MINIMIZE.better(1.0, 1.0)
    assert Sense.MAXIMIZE.better(2.0, 1.0)
    assert not Sense.MAXIMIZE.better(1.0, 1.0)
    # a C comparison the baselines bind once per run
    assert Sense.MINIMIZE.better is operator.lt
    assert Sense.MAXIMIZE.better is operator.gt


def test_constant_objective_keeps_incumbent():
    box = SearchBox((0.0, 0.0), (4.0, 4.0))
    (lv,) = label_points(lambda p: 1.0, ((2.0, 2.0),), (1.0, 1.0), box)
    assert lv.probe_target == (2.0, 2.0)
    assert lv.probe_target == lv.point
    assert lv.label == 0


def test_neighbor_tie_takes_earliest_offset():
    # f depends on x only, so the three x+1 neighbors tie; the offset
    # enumeration puts (1, -1) first among them
    box = SearchBox((-4.0, -4.0), (4.0, 4.0))
    (lv,) = label_points(lambda p: -p[0], ((0.0, 0.0),), (1.0, 1.0), box)
    assert lv.probe_target == (1.0, -1.0)
    assert lv.label == 2


def test_out_of_domain_neighbors_are_discarded():
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    (lv,) = label_points(lambda p: -(p[0] + p[1]), ((0.0, 0.0),), (1.0, 1.0), box)
    assert lv.probe_target == (1.0, 1.0)
    assert lv.label == 0


def test_non_finite_objective_raises():
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ObjectiveEvaluationError) as err:
        label_points(lambda p: math.nan, ((0.5, 0.5),), (0.25, 0.25), box)
    assert err.value.point == (0.5, 0.5)
    assert err.value.evaluation == 1


@pytest.mark.parametrize("f, cause, message", (
    (lambda p: 1.0 / 0.0, ZeroDivisionError, "ZeroDivisionError: float division by zero"),
    (lambda p: "abc", ValueError, "ValueError: could not convert string to float: 'abc'"),
), ids=("raising", "non_numeric"))
def test_raising_objective_names_point_and_call(f, cause, message):
    # calls are numbered on from done = 4: the first failing call is 5
    with pytest.raises(ObjectiveEvaluationError) as err:
        checked(f, 4)((0.0,))
    assert (err.value.point, err.value.evaluation) == ((0.0,), 5)
    assert type(err.value.__cause__) is cause and err.value.value is err.value.__cause__
    assert str(err.value) == f"objective raised {message} at (0.0,) at evaluation 5"


def test_scaling_by_powers_of_two_preserves_labels():
    # shrink the sphere picture by 4: dyadic scale keeps every candidate
    # exactly representable, so labels and targets scale exactly
    scale = 0.25
    domain = SearchBox((-0.5, -0.5), (0.5, 0.5))

    def scaled(p):
        return eval_sphere_min((p[0] / scale, p[1] / scale))

    points = tuple(tuple(v * scale for v in point) for point, _, _ in SPHERE_REFINED_ROWS)
    out = label_points(scaled, points, (0.25, 0.25), domain)
    for (_, target, label), lv in zip(SPHERE_REFINED_ROWS, out):
        assert lv.probe_target == tuple(v * scale for v in target)
        assert lv.label == label


# ---------------------------------------------------------------------------
# label_grid
# ---------------------------------------------------------------------------

def test_label_grid_order_and_corner_labels():
    grid = corners(SPHERE_DOMAIN)
    out = label_points(eval_sphere_min, grid, (2.0, 2.0), SPHERE_DOMAIN)
    assert tuple(v.point for v in out) == grid
    assert [v.label for v in out] == [0, 2, 1, 2]


def test_label_grid_skips_stored_points():
    grid = corners(SPHERE_DOMAIN)
    values = {p: eval_sphere_min(p) for p in grid}
    values[(0.0, 0.0)] = eval_sphere_min((0.0, 0.0))
    calls = []

    def f(p):
        calls.append(p)
        return eval_sphere_min(p)

    out = label_points(f, grid, (2.0, 2.0), SPHERE_DOMAIN, values=values)
    assert not set(calls) & {*grid, (0.0, 0.0)}
    assert len(calls) == len(set(calls))
    assert set(calls) <= set(values)
    assert out == label_points(eval_sphere_min, grid, (2.0, 2.0), SPHERE_DOMAIN)


def test_label_grid_calls_f_once_per_distinct_point():
    # the 3x3 grid at spacing 1 probes at spacing 1: every stencil
    # overlaps its neighbours' and stays on the 5x5 lattice of [-2, 2]^2
    box = SearchBox((-2.0, -2.0), (2.0, 2.0))
    grid = tuple((x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0))
    calls = []

    def f(p):
        calls.append(p)
        return eval_sphere_min(p)

    values = {}
    out = label_points(f, grid, (1.0, 1.0), box, depth=2, values=values)
    assert len(calls) == len(set(calls)) == 25
    assert set(values) == set(calls)
    tables = lattice_floats(box, 2)
    assert out == tuple(lattice_vertex(eval_sphere_min, p, 1, tables, Sense.MINIMIZE)
                        for p in grid)


def test_non_finite_value_is_not_stored():
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    bad = (0.75, 0.75)
    values = {}
    with pytest.raises(ObjectiveEvaluationError) as err:
        label_points(lambda p: math.nan if p == bad else 0.0, ((0.5, 0.5),), (0.25, 0.25),
                     box, values=values)
    assert err.value.point == bad
    assert bad not in values
    assert all(math.isfinite(v) for v in values.values())


def test_label_grid_numbers_calls_on_from_the_store():
    # the store holds the calls made before this one, so the first miss is
    # call 4 of the run
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    values = {(0.0, 0.0): 0.0, (0.0, 1.0): 0.0, (1.0, 0.0): 0.0}
    with pytest.raises(ObjectiveEvaluationError) as err:
        label_points(lambda p: math.nan, ((0.5, 0.5),), (0.5, 0.5), box, depth=2,
                     values=values)
    assert err.value.evaluation == 4
    assert str(err.value) == "objective returned nan at (0.5, 0.5) at evaluation 4"


# ---------------------------------------------------------------------------
# label_grid against the lattice reference
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    depth=st.integers(1, 6),
    sense=st.sampled_from(Sense),
    quantized=st.booleans(),
)
def test_label_grid_matches_lattice_vertex_on_boundary_boxes(n, data, depth, sense, quantized):
    # a lattice box with one face on the domain boundary, so stencils are
    # cut there; one store is shared by the grid, as in a run
    lo = data.draw(st.tuples(*[st.floats(-100.0, 100.0) for _ in range(n)]))
    widths = data.draw(st.tuples(*[st.floats(0.01, 100.0) for _ in range(n)]))
    domain = SearchBox(lo, tuple(a + w for a, w in zip(lo, widths)))
    top = 2 ** depth
    bounds = [sorted(data.draw(st.lists(st.integers(0, top), min_size=2, max_size=2,
                                        unique=True))) for _ in range(n)]
    axis = data.draw(st.integers(0, n - 1))
    side = data.draw(st.integers(0, 1))
    bounds[axis][side] = side * top
    tables = lattice_floats(domain, depth)
    grid = [tuple(t[k] for t, k in zip(tables, ks))
            for ks in itertools.product(*[sorted({a, (a + b) // 2, b}) for a, b in bounds])]
    step = data.draw(st.integers(1, top))
    centre = data.draw(st.tuples(*[st.floats(a, b) for a, b in zip(domain.lo, domain.hi)]))
    unit = max(widths) ** 2 / 16

    def f(p):
        v = sum((x - c) ** 2 for x, c in zip(p, centre))
        return float(round(v / unit)) if quantized else v

    calls = []

    def counted(p):
        calls.append(p)
        return f(p)

    values = {}
    out = label_grid(counted, grid, step, sense, values, run_lattice(domain, depth, grid))
    assert len(calls) == len(set(calls))
    assert set(calls) == set(values)
    assert list(out) == [lattice_vertex(f, p, step, tables, sense) for p in grid]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4),
    data=st.data(),
    depth=st.integers(2, 6),
    sense=st.sampled_from(Sense),
    quantized=st.booleans(),
    failure=st.sampled_from(("raise", "nan")),
)
def test_box_grids_match_lattice_vertex_in_the_loops_call_order(n, data, depth, sense,
                                                                 quantized, failure):
    # one box's 3**n grid as run_slm lays it out (grid step twice the
    # probe step), flush with drawn domain faces, on a partly filled store
    lo = data.draw(st.tuples(*[st.floats(-100.0, 100.0) for _ in range(n)]))
    widths = data.draw(st.tuples(*[st.floats(0.01, 100.0) for _ in range(n)]))
    domain = SearchBox(lo, tuple(a + w for a, w in zip(lo, widths)))
    top = 2 ** depth
    step = 2 ** data.draw(st.integers(0, depth - 2))
    ks = []
    for _ in range(n):
        face = data.draw(st.sampled_from(("lo", "hi", "any")))
        ks.append(0 if face == "lo" else top - 4 * step if face == "hi"
                  else data.draw(st.integers(0, top - 4 * step)))
    tables = lattice_floats(domain, depth)
    grid = [tuple(t[k] for t, k in zip(tables, ix))
            for ix in itertools.product(*[(k, k + 2 * step, k + 4 * step) for k in ks])]
    centre = data.draw(st.tuples(*[st.floats(a, b) for a, b in zip(domain.lo, domain.hi)]))
    unit = max(widths) ** 2 / 16

    def f(p):
        v = sum((x - c) ** 2 for x, c in zip(p, centre))
        return float(round(v / unit)) if quantized else v

    reached = []

    def recorded(p):
        reached.append(p)
        return f(p)

    expected = [lattice_vertex(recorded, p, step, tables, sense) for p in grid]
    first_reached = list(dict.fromkeys(reached))
    rng = data.draw(st.randoms(use_true_random=False))
    share = data.draw(st.sampled_from((0.0, 0.3, 0.9)))
    stored = {q: f(q) for q in first_reached if rng.random() < share}
    missing = [q for q in first_reached if q not in stored]

    def label(g):
        blocks = []

        def spy(*args):
            blocks.append(args)
            return label_block(*args)

        values = dict(stored)
        label_block = labeling._label_block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(labeling, "_label_block", spy)
            out = label_grid(g, grid, step, sense, values, run_lattice(domain, depth, grid),
                             corner=ks)
        assert len(blocks) == 1, "the grid takes the block path"
        return out, values

    calls = []

    def counted(p):
        calls.append(p)
        return f(p)

    out, values = label(counted)
    assert list(out) == expected
    assert calls == missing
    assert list(values) == [*stored, *missing]

    if missing:
        fail_at = data.draw(st.integers(1, len(missing)))
        calls.clear()

        def failing(p):
            calls.append(p)
            if len(calls) == fail_at:
                return 1.0 / 0.0 if failure == "raise" else math.nan
            return f(p)

        with pytest.raises(ObjectiveEvaluationError) as err:
            label(failing)
        assert (err.value.point, err.value.evaluation) == (missing[fail_at - 1],
                                                            len(stored) + fail_at)


def test_box_grid_evaluates_its_own_points():
    # the grid's -0.0 is the lattice's 0.0: f and the store get the grid's
    # own point, as from the per-vertex loop
    def run(n, corner):
        domain = SearchBox((-1.0,) * n, (1.0,) * n)
        grid = tuple(itertools.product((-1.0, -0.0, 1.0), repeat=n))
        calls = []

        def f(p):
            calls.append(p)
            return math.copysign(1.0, p[0]) + sum(p[1:])

        values = {}
        out = label_grid(f, grid, 1, Sense.MINIMIZE, values, run_lattice(domain, 2, grid),
                         corner=corner)
        return repr((out, calls, list(values.items())))

    for n in (2, 3):
        blocks = []
        label_block = labeling._label_block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(labeling, "_label_block",
                       lambda *args: blocks.append(args) or label_block(*args))
            with_blocks = run(n, (0,) * n)
        assert len(blocks) == 1, "the grid takes the block path"
        assert run(n, None) == with_blocks


def _ulps_above(x, count):
    for _ in range(count):
        x = math.nextafter(x, math.inf)
    return x


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    data=st.data(),
    depth=st.integers(2, 6),
    sense=st.sampled_from(Sense),
    quantized=st.booleans(),
    failure=st.sampled_from(("raise", "nan")),
)
def test_a_box_corner_changes_no_label_call_or_error(n, data, depth, sense, quantized, failure):
    # label_grid given a box's corner, as run_slm reads it from the
    # lattice's reverse map, against label_grid given none: the same
    # labels, call order, store and failing call. An axis a few ulps wide
    # makes lattice floats collide, so the corner may land on a colliding
    # index; such a grid falls back to the per-vertex loop
    top = 2 ** depth
    step = 2 ** data.draw(st.integers(0, depth - 2))
    boxes = top // (4 * step)  # boxes of this size per axis
    lo = data.draw(st.tuples(*[st.one_of(st.floats(-100.0, 100.0),
                                         st.sampled_from((0.0, -0.0, 1.0, -2.0)))
                               for _ in range(n)]))
    # a float is the axis's width; an integer is its width in ulps, 2 to 8
    # ulps per box, so that probe floats a quarter box apart often collide
    widths = data.draw(st.tuples(*[st.one_of(st.floats(0.01, 100.0),
                                             st.integers(2 * boxes, 8 * boxes))
                                   for _ in range(n)]))
    hi = [_ulps_above(a, w) if isinstance(w, int) else a + w for a, w in zip(lo, widths)]
    ks = []
    for _ in range(n):
        face = data.draw(st.sampled_from(("lo", "hi", "any")))
        ks.append(0 if face == "lo" else top - 4 * step if face == "hi"
                  else 4 * step * data.draw(st.integers(0, top // (4 * step) - 1)))
    # the entries earlier generations made, coarse to fine, in a drawn order
    made = []
    level = top
    while level >= 2 * step:
        made.append(data.draw(st.permutations(range(0, top + 1, level))))
        level //= 2

    def lattice():
        axes = tuple(LatticeAxis(a, b, depth) for a, b in zip(lo, hi))
        for axis in axes:
            for level_ks in made:
                for k in level_ks:
                    axis[k]
        return axes

    axes = lattice()
    per_axis = [(axis[k], axis[k + 2 * step], axis[k + 4 * step]) for axis, k in zip(axes, ks)]
    assume(all(a < m < b for a, m, b in per_axis))  # a box subdivide can halve
    grid = tuple(itertools.product(*per_axis))
    corner = [axis.index[x] for axis, x in zip(axes, grid[0])]
    centre = [a + (b - a) / 3.0 for a, b in zip(lo, hi)]
    scale = [b - a for a, b in zip(lo, hi)]  # each axis's width, so ulp-wide axes count

    def f(p):
        v = sum(((x - c) / w) ** 2 for x, c, w in zip(p, centre, scale))
        return float(round(16 * v)) if quantized else v

    rng = data.draw(st.randoms(use_true_random=False))
    stored = {}
    label_grid(lambda p: stored.setdefault(p, f(p)), grid, step, sense, {}, lattice())
    stored = {q: v for q, v in stored.items() if rng.random() < 0.3}

    def label(g, points, corner):
        calls = []

        def counted(p):
            calls.append(p)
            return g(p, len(calls))

        values = dict(stored)
        blocks = []
        label_block = labeling._label_block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(labeling, "_label_block",
                       lambda *args: blocks.append(args) or label_block(*args))
            try:
                out = label_grid(counted, points, step, sense, values, lattice(), corner=corner)
            except ObjectiveEvaluationError as e:
                out = (e.point, e.evaluation)
        return repr((out, calls, list(values.items()))), len(blocks)

    with_corner, blocks = label(lambda p, _: f(p), grid, corner)
    assert (with_corner, 0) == label(lambda p, _: f(p), grid, None)
    if not any(isinstance(w, int) for w in widths):
        assert blocks == 1, "no lattice float collides: the grid takes the block path"
    fail_at = data.draw(st.integers(1, 3 ** n))

    def failing(p, call):
        if call == fail_at:
            return 1.0 / 0.0 if failure == "raise" else math.nan
        return f(p)

    assert label(failing, grid, corner)[0] == label(failing, grid, None)[0]
    if blocks:
        # a grid that does not start or end at the corner, or lacks a
        # point, breaks the promise
        for points in (grid[1:], grid[:-1], grid[::-1], grid[:1] + grid[2:], ()):
            with pytest.raises(ValueError, match="not the 3\\*\\*n grid of the box at corner"):
                label_grid(lambda p: f(p), points, step, sense, {}, lattice(), corner=corner)


def test_colliding_block_floats_fall_back_to_the_loop():
    # on [1, 1 + 6 ulps] at depth 3, index 3's midpoint rounds to index 2's
    # float: the box at corner 0 halves, but its probe block has a repeated
    # float, so label_grid labels it with the per-vertex loop
    axis = LatticeAxis(1.0, _ulps_above(1.0, 6), 3)
    grid = ((axis[0],), (axis[2],), (axis[4],))
    assert axis[0] < axis[2] < axis[4] and axis[3] == axis[2]
    blocks = []
    label_block = labeling._label_block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling, "_label_block",
                   lambda *args: blocks.append(args) or label_block(*args))
        out = label_grid(lambda p: -p[0], grid, 1, Sense.MINIMIZE, {}, (axis,), corner=[0])
    assert blocks == []
    assert out == label_grid(lambda p: -p[0], grid, 1, Sense.MINIMIZE, {},
                             (LatticeAxis(1.0, axis[8], 3),))


def test_label_grid_rejects_a_coordinate_off_the_lattice():
    lattice = run_lattice(SearchBox((0.0, 0.0), (1.0, 1.0)), 2, [(0.5, 0.5)])
    with pytest.raises(ValueError, match="0.3 is not a lattice point"):
        label_grid(lambda p: 0.0, ((0.5, 0.3),), 1, Sense.MINIMIZE, {}, lattice)


def test_label_grid_on_a_fresh_lattice():
    # axis[2] == 0.0 is on the lattice, but no lookup has made it
    with pytest.raises(ValueError, match="^0.0 is not a lattice point the table has made$"):
        label_grid(lambda p: (p[0] - 1.0) ** 2, ((0.0,),), 1, Sense.MINIMIZE, {},
                   (LatticeAxis(-2.0, 2.0, 2),))


def test_probe_point_outside_domain_rejected():
    lattice = run_lattice(SearchBox((0.0, 0.0), (1.0, 1.0)), 2, [(0.5, 0.5)])
    with pytest.raises(ValueError, match="2.0 is not a lattice point"):
        label_grid(lambda p: 0.0, ((2.0, 0.5),), 1, Sense.MINIMIZE, {}, lattice)


def test_label_grid_checks_every_vertex_against_the_domain():
    # x = 0.5 is a memo hit at the second vertex, but its y is outside;
    # the second vertex raises before it is evaluated: the first makes its
    # 9 calls (itself and its 8 other candidates), and no call follows
    lattice = run_lattice(SearchBox((0.0, 0.0), (1.0, 1.0)), 2, [(0.5, 0.5)])
    calls = []
    with pytest.raises(ValueError, match="2.0 is not a lattice point"):
        label_grid(lambda p: calls.append(p) or 0.0, ((0.5, 0.5), (0.5, 2.0)), 1,
                   Sense.MINIMIZE, {}, lattice)
    assert len(calls) == 9 and calls[0] == (0.5, 0.5)
    assert (0.5, 2.0) not in calls


def test_label_grid_rejects_point_of_wrong_dimension():
    lattice = run_lattice(SearchBox((0.0, 0.0), (1.0, 1.0)), 2, [(0.5, 0.5)])
    with pytest.raises(ValueError, match="point dimension mismatch"):
        label_grid(lambda p: 0.0, ((0.5,),), 1, Sense.MINIMIZE, {}, lattice)
