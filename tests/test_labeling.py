"""Vertex labeling against an independent brute-force probe oracle plus
hand-checked worked-example rows for the sphere and banana surfaces."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slmopt.geometry import SearchBox, corners, probe_offsets, splittable, subdivide
from slmopt.labeling import (
    ObjectiveEvaluationError,
    Sense,
    label_grid,
    label_of,
    label_vertex,
)
from slmopt.objectives import eval_rosenbrock, eval_sphere_min

SPHERE_DOMAIN = SearchBox((-2.0, -2.0), (2.0, 2.0))
ROSEN_DOMAIN = SearchBox((-2.048, -2.048), (2.048, 2.048))


def brute_probe(f, p, s, domain, sense):
    """Reference implementation: enumerate p and every in-domain
    neighbor, keep the first strict improvement in offset order."""
    best, best_v = p, f(p)
    for off in probe_offsets(len(p), s):
        q = tuple(x + d for x, d in zip(p, off))
        if not domain.contains(q):
            continue
        v = f(q)
        improved = v < best_v if sense is Sense.MINIMIZE else v > best_v
        if improved:
            best, best_v = q, v
    return best


# Worked rows: (point, probe target, label) at a fixed probe spacing.
# Each row was verified by hand against the objective's arithmetic; the
# tests below also re-derive every row through brute_probe.

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
    for point, target, label in rows:
        lv = label_vertex(f, point, spacing, domain, Sense.MINIMIZE)
        assert lv.probe_target == target, f"probe target from {point}"
        assert lv.label == label, f"label at {point}"
        assert brute_probe(f, point, spacing, domain, Sense.MINIMIZE) == target


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
    s = (0.512, 0.512)
    for point, target, label in ROSEN_FINE_LABEL_ONLY:
        lv = label_vertex(eval_rosenbrock, point, s, ROSEN_DOMAIN, Sense.MINIMIZE)
        assert lv.probe_target == target
        assert lv.label == label
        assert brute_probe(eval_rosenbrock, point, s, ROSEN_DOMAIN, Sense.MINIMIZE) == target


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


def test_constant_objective_keeps_incumbent():
    box = SearchBox((0.0, 0.0), (4.0, 4.0))
    lv = label_vertex(lambda p: 1.0, (2.0, 2.0), (1.0, 1.0), box, Sense.MINIMIZE)
    assert lv.probe_target == (2.0, 2.0)
    assert lv.probe_target == lv.point
    assert lv.label == 0


def test_neighbor_tie_takes_earliest_offset():
    # f depends on x only, so the three x+1 neighbors tie; the offset
    # enumeration puts (1, -1) first among them
    box = SearchBox((-4.0, -4.0), (4.0, 4.0))
    lv = label_vertex(lambda p: -p[0], (0.0, 0.0), (1.0, 1.0), box, Sense.MINIMIZE)
    assert lv.probe_target == (1.0, -1.0)
    assert lv.label == 2


def test_out_of_domain_neighbors_are_discarded():
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    lv = label_vertex(lambda p: -(p[0] + p[1]), (0.0, 0.0), (1.0, 1.0), box,
                      Sense.MINIMIZE)
    assert lv.probe_target == (1.0, 1.0)
    assert lv.label == 0


def test_probe_point_outside_domain_rejected():
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        label_vertex(lambda p: 0.0, (2.0, 0.5), (0.5, 0.5), box, Sense.MINIMIZE)


def test_non_finite_objective_raises():
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ObjectiveEvaluationError) as err:
        label_vertex(lambda p: math.nan, (0.5, 0.5), (0.25, 0.25), box,
                     Sense.MINIMIZE)
    assert err.value.point == (0.5, 0.5)
    assert err.value.generation is None


def test_scaling_by_powers_of_two_preserves_labels():
    # shrink the sphere picture by 4: dyadic scale keeps every candidate
    # exactly representable, so labels and targets scale exactly
    scale = 0.25
    domain = SearchBox((-0.5, -0.5), (0.5, 0.5))

    def scaled(p):
        return eval_sphere_min((p[0] / scale, p[1] / scale))

    for point, target, label in SPHERE_REFINED_ROWS:
        sp = tuple(v * scale for v in point)
        lv = label_vertex(scaled, sp, (0.25, 0.25), domain, Sense.MINIMIZE)
        assert lv.probe_target == tuple(v * scale for v in target)
        assert lv.label == label


# ---------------------------------------------------------------------------
# label_grid
# ---------------------------------------------------------------------------

def test_label_grid_order_and_corner_labels():
    grid = corners(SPHERE_DOMAIN)
    out = label_grid(eval_sphere_min, grid, (2.0, 2.0), SPHERE_DOMAIN,
                     Sense.MINIMIZE, {})
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

    out = label_grid(f, grid, (2.0, 2.0), SPHERE_DOMAIN, Sense.MINIMIZE, values)
    assert not set(calls) & {*grid, (0.0, 0.0)}
    assert len(calls) == len(set(calls))
    assert set(calls) <= set(values)
    assert out == label_grid(eval_sphere_min, grid, (2.0, 2.0), SPHERE_DOMAIN,
                             Sense.MINIMIZE, {})


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
    out = label_grid(f, grid, (1.0, 1.0), box, Sense.MINIMIZE, values)
    assert len(calls) == len(set(calls)) == 25
    assert set(values) == set(calls)
    assert out == tuple(label_vertex(eval_sphere_min, p, (1.0, 1.0), box, Sense.MINIMIZE)
                        for p in grid)


def test_non_finite_value_is_not_stored():
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    bad = (0.75, 0.75)
    values = {}
    with pytest.raises(ObjectiveEvaluationError) as err:
        label_grid(lambda p: math.nan if p == bad else 0.0, ((0.5, 0.5),),
                   (0.25, 0.25), box, Sense.MINIMIZE, values)
    assert err.value.point == bad
    assert bad not in values
    assert all(math.isfinite(v) for v in values.values())


def test_probe_matches_oracle_on_random_cases():
    rng = random.Random(42)
    surfaces = (
        (eval_sphere_min, SPHERE_DOMAIN, Sense.MINIMIZE),
        (eval_sphere_min, SPHERE_DOMAIN, Sense.MAXIMIZE),
        (eval_rosenbrock, ROSEN_DOMAIN, Sense.MINIMIZE),
        (lambda p: math.sin(3 * p[0]) * math.cos(2 * p[1]),
         SearchBox((-3.0, -3.0), (3.0, 3.0)), Sense.MINIMIZE),
    )
    for _ in range(300):
        f, domain, sense = surfaces[rng.randrange(len(surfaces))]
        p = tuple(a + (b - a) * rng.random() for a, b in zip(domain.lo, domain.hi))
        s = tuple(w * rng.uniform(0.05, 0.6) for w in domain.widths())
        lv = label_vertex(f, p, s, domain, sense)
        assert lv.probe_target == brute_probe(f, p, s, domain, sense)
        assert 0 <= lv.label <= domain.dimension


# ---------------------------------------------------------------------------
# label_grid's per-axis candidate memo
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    sense=st.sampled_from(Sense),
    use_subdivide=st.booleans(),
    quantized=st.booleans(),
)
def test_label_grid_matches_brute_probe_on_boundary_boxes(n, data, sense, use_subdivide,
                                                          quantized):
    # sub-boxes with one face on the domain boundary, so stencils are cut
    # there; one store is shared by the grid, as in a run
    domain = SearchBox((-2.0,) * n, (2.0,) * n)
    coord = st.floats(-2.0, 2.0)
    lo, hi = [], []
    for _ in range(n):
        a, b = sorted(data.draw(st.tuples(coord, coord)))
        assume(a < b)
        lo.append(a)
        hi.append(b)
    axis = data.draw(st.integers(0, n - 1))
    if data.draw(st.booleans()):
        lo[axis] = -2.0
    else:
        hi[axis] = 2.0
    box = SearchBox(lo, hi)
    if use_subdivide:
        assume(splittable(box))  # run_slm's precondition for subdivide
    grid = subdivide(box)[0] if use_subdivide else corners(box)
    s = tuple(w * data.draw(st.floats(0.05, 1.0)) for w in box.widths())
    centre = data.draw(st.tuples(*[coord for _ in range(n)]))

    def f(p):
        v = sum((x - c) ** 2 for x, c in zip(p, centre))
        return round(v, 1) if quantized else v

    calls = []

    def counted(p):
        calls.append(p)
        return f(p)

    values = {}
    out = label_grid(counted, grid, s, domain, sense, values)
    assert len(calls) == len(set(calls))
    assert set(calls) == set(values)
    for p, lv in zip(grid, out):
        target = brute_probe(f, p, s, domain, sense)
        assert (lv.point, lv.value, lv.probe_target) == (p, f(p), target)
        assert lv.label == label_of([t - x for t, x in zip(target, p)])


def test_label_grid_checks_every_vertex_against_the_domain():
    # x = 0.5 is a memo hit at the second vertex, but its y is outside
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError, match=r"probe point \(0\.5, 2\.0\) lies outside"):
        label_grid(lambda p: 0.0, ((0.5, 0.5), (0.5, 2.0)), (0.25, 0.25), box,
                   Sense.MINIMIZE, {})


def test_label_grid_rejects_point_of_wrong_dimension():
    box = SearchBox((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="point dimension mismatch"):
        label_grid(lambda p: 0.0, ((0.5,),), (0.25, 0.25), box, Sense.MINIMIZE, {})
