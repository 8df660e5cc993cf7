"""Vertex labeling on a run's lattice against the lattice reference
(lattice_reference.lattice_vertex) plus hand-checked worked-example rows
for the sphere and banana surfaces."""

import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmopt.geometry import LatticeAxis, SearchBox, corners
from slmopt.labeling import (
    LabeledVertex,
    ObjectiveEvaluationError,
    Sense,
    label_grid,
    label_of,
)
from slmopt.objectives import eval_rosenbrock, eval_sphere_min

from lattice_reference import index_step, lattice_floats, lattice_vertex, run_lattice

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
# nearly tied; the winning neighbor is (0.512, 0.512) in both cases, and
# only the label is pinned here.
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


def test_label_grid_rejects_a_coordinate_off_the_lattice():
    lattice = run_lattice(SearchBox((0.0, 0.0), (1.0, 1.0)), 2, [(0.5, 0.5)])
    with pytest.raises(ValueError, match="0.3 is not a lattice point"):
        label_grid(lambda p: 0.0, ((0.5, 0.3),), 1, Sense.MINIMIZE, {}, lattice)


def test_label_grid_on_a_fresh_lattice():
    # no lookup has made axis[2] == 0.0; the vertex is still labeled
    out = label_grid(lambda p: (p[0] - 1.0) ** 2, ((0.0,),), 1, Sense.MINIMIZE, {},
                     (LatticeAxis(-2.0, 2.0, 2),))
    assert out == (LabeledVertex(point=(0.0,), value=1.0, probe_target=(1.0,), label=0),)


def test_probe_point_outside_domain_rejected():
    lattice = run_lattice(SearchBox((0.0, 0.0), (1.0, 1.0)), 2, [(0.5, 0.5)])
    with pytest.raises(ValueError, match="2.0 is not a lattice point"):
        label_grid(lambda p: 0.0, ((2.0, 0.5),), 1, Sense.MINIMIZE, {}, lattice)


def test_label_grid_checks_every_vertex_against_the_domain():
    # x = 0.5 is a memo hit at the second vertex, but its y is outside
    lattice = run_lattice(SearchBox((0.0, 0.0), (1.0, 1.0)), 2, [(0.5, 0.5)])
    with pytest.raises(ValueError, match="2.0 is not a lattice point"):
        label_grid(lambda p: 0.0, ((0.5, 0.5), (0.5, 2.0)), 1, Sense.MINIMIZE, {}, lattice)


def test_label_grid_rejects_point_of_wrong_dimension():
    lattice = run_lattice(SearchBox((0.0, 0.0), (1.0, 1.0)), 2, [(0.5, 0.5)])
    with pytest.raises(ValueError, match="point dimension mismatch"):
        label_grid(lambda p: 0.0, ((0.5,),), 1, Sense.MINIMIZE, {}, lattice)
