"""Box geometry: corner/grid enumeration order, subdivision, lattice axes."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmopt.geometry import (
    MAX_BOUND,
    Cell,
    LatticeAxis,
    SearchBox,
    corners,
    splittable,
    subdivide,
)


def random_box(rng, n):
    lo, hi = [], []
    for _ in range(n):
        a, b = sorted(rng.uniform(-10.0, 10.0) for _ in range(2))
        lo.append(a)
        hi.append(b + 0.5)  # keep the sides comfortably nondegenerate
    return SearchBox(tuple(lo), tuple(hi))


# ---------------------------------------------------------------------------
# SearchBox
# ---------------------------------------------------------------------------

def test_box_coerces_to_float_tuples():
    box = SearchBox((0, -1), (2, 3))
    assert box.lo == (0.0, -1.0) and box.hi == (2.0, 3.0)
    assert all(isinstance(v, float) for v in box.lo + box.hi)


def test_box_validation():
    with pytest.raises(ValueError):
        SearchBox((0.0,), (1.0, 2.0))
    with pytest.raises(ValueError):
        SearchBox((), ())
    with pytest.raises(ValueError):
        SearchBox((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        SearchBox((1.0,), (1.0,))


@pytest.mark.parametrize("lo, hi", (
    (1.0, 1.0),
    (math.nan, 1.0),
    (-math.inf, math.inf),
    (0.0, math.inf),
    (-1.7e308, 1.7e308),  # the width overflows
    (1e308, 1.7e308),  # the centre overflows
    (0.0, 1.7e308),  # the midpoint of the upper half overflows
    (0.0, math.nextafter(MAX_BOUND, math.inf)),
), ids=("degenerate", "nan", "infinite", "half_infinite", "wide", "high", "high_half",
        "just_over"))
def test_box_rejects_bounds_outside_the_finite_range(lo, hi):
    # one message for every way an axis can break -M <= lo < hi <= M
    with pytest.raises(ValueError, match=re.escape(f"bounds ({lo!r}, {hi!r}) need -M <= lo")):
        SearchBox((0.0, lo), (1.0, hi))


def test_largest_box_has_finite_widths_centre_and_grid():
    box = SearchBox((-MAX_BOUND, -MAX_BOUND), (MAX_BOUND, MAX_BOUND))
    assert box.widths() == (2 * MAX_BOUND,) * 2
    assert box.center() == (0.0, 0.0)
    for cell in subdivide(box)[1]:
        assert all(math.isfinite(v) for p in subdivide(cell.box)[0] for v in p)


def test_box_metrics():
    box = SearchBox((-2.0, -2.0), (2.0, 2.0))
    assert box.dimension == 2
    assert box.widths() == (4.0, 4.0)
    assert box.center() == (0.0, 0.0)
    assert box.widths() == (4.0, 4.0)


def test_builtin_domain_spacings():
    assert SearchBox((-7.0, -7.0), (7.0, 7.0)).widths() == (14.0, 14.0)
    assert SearchBox((-2.048, -2.048), (2.048, 2.048)).widths() == (4.096, 4.096)
    assert SearchBox(
        (-65.536, -65.536), (65.536, 65.536)
    ).widths() == (131.072, 131.072)


def test_contains_and_clamp():
    box = SearchBox((0.0, 0.0), (1.0, 2.0))
    assert box.contains((0.0, 2.0))
    assert box.contains((0.5, 1.0))
    assert not box.contains((1.0001, 1.0))
    assert box.clamp((-3.0, 5.0)) == (0.0, 2.0)
    assert box.clamp((0.25, 0.75)) == (0.25, 0.75)
    with pytest.raises(ValueError):
        box.contains((0.5,))
    with pytest.raises(ValueError):
        box.clamp((0.5, 0.5, 0.5))


# ---------------------------------------------------------------------------
# corners
# ---------------------------------------------------------------------------

def test_corners_2d_order():
    box = SearchBox((-2.0, -2.0), (2.0, 2.0))
    assert corners(box) == (
        (-2.0, -2.0), (-2.0, 2.0), (2.0, -2.0), (2.0, 2.0),
    )


def test_corners_3d_order():
    box = SearchBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    cs = corners(box)
    assert len(cs) == 8
    assert cs == tuple(sorted(cs))
    assert cs[0] == (0.0, 0.0, 0.0) and cs[-1] == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# subdivide
# ---------------------------------------------------------------------------

def test_subdivide_2d_grid_and_cells():
    grid, cells = subdivide(SearchBox((0.0, 0.0), (2.0, 2.0)))
    assert grid == (
        (0.0, 0.0), (0.0, 1.0), (0.0, 2.0),
        (1.0, 0.0), (1.0, 1.0), (1.0, 2.0),
        (2.0, 0.0), (2.0, 1.0), (2.0, 2.0),
    )
    assert [c.box.lo + c.box.hi for c in cells] == [
        (0.0, 0.0, 1.0, 1.0),
        (0.0, 1.0, 1.0, 2.0),
        (1.0, 0.0, 2.0, 1.0),
        (1.0, 1.0, 2.0, 2.0),
    ]
    assert [c.vertex_indices for c in cells] == [
        (0, 1, 3, 4), (1, 2, 4, 5), (3, 4, 6, 7), (4, 5, 7, 8),
    ]


def test_subdivide_indices_match_cell_corners():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        box = random_box(rng, n)
        grid, cells = subdivide(box)
        assert len(grid) == 3 ** n
        assert len(cells) == 2 ** n
        assert grid == tuple(sorted(grid))
        for cell in cells:
            assert isinstance(cell, Cell)
            assert tuple(grid[i] for i in cell.vertex_indices) == corners(cell.box)
            assert all(a <= p for a, p in zip(box.lo, cell.box.lo))
            assert all(p <= b for p, b in zip(cell.box.hi, box.hi))


def test_subdivide_volume_is_preserved():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 3)
        box = random_box(rng, n)
        _, cells = subdivide(box)
        parent = math.prod(box.widths())
        total = sum(math.prod(c.box.widths()) for c in cells)
        assert math.isclose(total, parent, rel_tol=1e-12)


def test_subdivide_dyadic_bounds_are_exact():
    # repeated halving of binary-representable bounds stays on the
    # binary grid, so deep-generation coordinates can be compared with ==
    grid, cells = subdivide(SearchBox((1.024, 1.024), (2.048, 2.048)))
    assert grid[4] == (1.536, 1.536)
    box = SearchBox((-2.048, -2.048), (2.048, 2.048))
    for expected in (1.024, 0.512, 0.256, 0.128):
        _, cells = subdivide(box)
        box = cells[-1].box  # upper-right cell keeps hi fixed
        assert box.hi == (2.048, 2.048)
        assert box.widths() == (2 * expected, 2 * expected)
    _, cells = subdivide(SearchBox((-65.536, -65.536), (65.536, 65.536)))
    assert cells[0].box.hi == (0.0, 0.0)


def test_splittable():
    assert splittable(SearchBox((0.0, 0.0), (1.0, 1.0)))
    tiny = 1.0 + 2 ** -52
    assert not splittable(SearchBox((1.0,), (tiny,)))


def test_subdivide_rejects_a_box_it_cannot_halve():
    # the second axis is one ulp wide: its midpoint rounds onto a bound
    box = SearchBox((0.0, 1.0), (1.0, 1.0 + 2 ** -52))
    assert not splittable(box)
    with pytest.raises(ValueError, match=r"box \[0, 1\] x \[1, 1\.0000000000000002\] cannot be halved"):
        subdivide(box)


def test_subdivide_cells_equal_checked_boxes():
    _, cells = subdivide(SearchBox((-65.536, 0.1), (65.536, 0.7)))
    for cell in cells:
        checked = SearchBox(cell.box.lo, cell.box.hi)
        assert cell.box == checked and hash(cell.box) == hash(checked)
        assert repr(cell.box) == repr(checked)


def test_corners_product_identity():
    # corners() is the two-point special case of the grid construction
    box = SearchBox((0.0, 1.0, 2.0), (3.0, 4.0, 5.0))
    assert corners(box) == tuple(itertools.product((0.0, 3.0), (1.0, 4.0), (2.0, 5.0)))


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------

def test_lattice_floats_are_the_midpoints_subdivide_makes():
    # non-dyadic bounds: 65.536 and 0.1 are not binary fractions
    domain = SearchBox((-65.536, 0.1), (65.536, 0.7))
    depth = 6
    axes = [LatticeAxis(a, b, depth) for a, b in zip(domain.lo, domain.hi)]
    boxes = [(domain, (0, 0), (2 ** depth,) * 2)]
    for level in range(depth):
        half = 2 ** (depth - level - 1)
        children = []
        for box, klo, khi in boxes:
            grid, cells = subdivide(box)
            ks = list(itertools.product(*((a, a + half, b) for a, b in zip(klo, khi))))
            for point, k in zip(grid, ks):
                assert point == tuple(axis[j] for axis, j in zip(axes, k))
            children += [(c.box, ks[c.vertex_indices[0]], ks[c.vertex_indices[-1]])
                         for c in cells]
        boxes = children


def test_lattice_probes_stay_in_the_domain():
    axis = LatticeAxis(-2.048, 2.048, 3)
    assert axis.probes(2, -2.048) == (-2.048, axis[2])
    assert axis.probes(2, 2.048) == (axis[6], 2.048)
    middle = axis[4]
    assert axis.probes(4, middle) == (-2.048, middle, 2.048)
    assert axis.probes(1, middle) == (axis[3], middle, axis[5])
    with pytest.raises(KeyError):
        axis[9]


def test_lattice_probes_reject_a_float_off_the_lattice():
    axis = LatticeAxis(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="0.3 is not a lattice point"):
        axis.probes(1, 0.3)
    # off the lattice between two entries, and outside the domain
    for bad in (axis[1] + 1e-9, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="is not a lattice point"):
            LatticeAxis(0.0, 1.0, 2).probes(1, bad)


def test_lattice_probes_find_a_float_not_made_yet():
    # axis[2] is 0.0, but no lookup has made it: probes bisects to it
    axis = LatticeAxis(-2.0, 2.0, 2)
    assert axis.probes(1, 0.0) == (-1.0, 0.0, 1.0)
    assert axis.index[0.0] == 2


@settings(max_examples=60, deadline=None)
@given(lo=st.floats(-100.0, 100.0), width=st.floats(0.01, 100.0), depth=st.integers(1, 8),
       step=st.integers(1, 2 ** 8))
def test_lattice_probes_find_every_index_of_a_fresh_axis(lo, width, depth, step):
    full = LatticeAxis(lo, lo + width, depth)
    floats = [full[k] for k in range(full.top + 1)]
    step = min(step, full.top)
    for k, x in enumerate(floats):
        fresh = LatticeAxis(lo, lo + width, depth)
        assert fresh.probes(step, x) == full.probes(step, x)
        assert fresh.index[x] == k
