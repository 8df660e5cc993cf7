"""Vertex labeling by direction of local improvement.

Each grid vertex p is compared against its neighbours on the run's
dyadic lattice (geometry.LatticeAxis), a probe step of indices away
along each axis, those outside the domain discarded. The winner (ties
prefer p, then the earliest neighbour in lexicographic order) defines
the label: 0 when no coordinate of the winner is below p's, otherwise
the largest 1-based index of one that is (the winner - p displacement's
last negative component). label_grid reads the caller's point store
before calling f. checked numbers and checks the objective's calls for
every method, slm and the baselines alike.

label_grid has two paths with one result: the same labels, targets,
evaluations, call numbers and errors. The caller picks the path. Given
the lattice indices of a box's lower corner, the block path labels the
box's 3**n subdivide grid at any n: it looks each of the at most 7**n
probe block points up once and picks each vertex's winner through a
plan cached per block shape. Otherwise the per-vertex loop labels the
grid (generation 0's corners, explore-all's generations of several
boxes, loose point sets): 9**n store lookups for a box's 3**n grid. It
memoizes each axis's candidates per coordinate in a dict whose misses
call LatticeAxis.probes, and reads a vertex's candidates as the product
of its coordinates' entries, looked up in C before the vertex's own
store lookup, so a coordinate the table has not made raises before its
vertex is evaluated. Block over loop per job on CPython 3.11
and 3.13 (BENCH_26.json): sphere4d descent 0.86-0.87, sphere3d
0.89-0.90. Labeling several boxes box by box took 1.09-1.33 times the
loop's time on explore-all, so those grids keep the loop.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from typing import Callable, NamedTuple, Sequence

from .geometry import LatticeAxis, Point

Objective = Callable[[Point], float]


class Sense(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    @property
    def better(self) -> Callable[[float, float], bool]:
        """better(a, b) is True when value a strictly improves on value
        b: operator.lt or operator.gt, a C-level comparison to bind."""
        return operator.lt if self is Sense.MINIMIZE else operator.gt


class ObjectiveEvaluationError(ValueError):
    """The objective raised, or returned a non-finite value: the point,
    the value (or the exception raised, also the error's __cause__) and
    the 1-based number of the run's call."""

    def __init__(self, point: Point, value: float | Exception, evaluation: int):
        self.point = point
        self.value = value
        self.evaluation = evaluation
        what = (f"raised {type(value).__name__}: {value}" if isinstance(value, Exception)
                else f"returned {value!r}")
        super().__init__(f"objective {what} at {point!r} at evaluation {evaluation}")


class LabeledVertex(NamedTuple):
    point: Point
    value: float
    probe_target: Point
    label: int


# A LabeledVertex from one 4-tuple, built in C: tuple.__new__ skips the
# NamedTuple's generated Python __new__ (a frame per vertex) and its arity check.
_vertex = functools.partial(tuple.__new__, LabeledVertex)


def checked(f: Objective, done: int = 0) -> Objective:
    """f wrapped so that its calls are numbered from done + 1 and each
    call is checked: one that raises, or returns a value float() rejects
    or that is not finite, raises ObjectiveEvaluationError with the
    point, the value or exception and the call's number."""
    calls = done
    isfinite = math.isfinite

    def g(p: Point) -> float:
        nonlocal calls
        calls += 1
        try:
            v = float(f(p))
        except Exception as e:
            raise ObjectiveEvaluationError(p, e, calls) from e
        if not isfinite(v):
            raise ObjectiveEvaluationError(p, v, calls)
        return v

    return g


def label_grid(f: Objective, grid: Sequence[Point], step: int, sense: Sense,
               values: dict[Point, float], lattice: Sequence[LatticeAxis],
               corner: Sequence[int] | None = None) -> tuple[LabeledVertex, ...]:
    """Label every grid point, same order as the input grid.

    lattice is the run's lattice, one LatticeAxis per axis, and step the
    probe step in indices, half the grid step of the generation being
    labeled. A coordinate its axis has not made raises ValueError, and
    before its vertex is evaluated: the loop reads a vertex's candidates
    from its per-axis memos before it looks the vertex up in values.
    On each axis the candidates of x, at index k, are the lattice floats
    at k - step, k and k + step that lie in [0, 2**depth]; a vertex p is
    compared with p, then with their product in lexicographic order, and
    ties keep the incumbent. The label is 0 when p wins, else i + 1 for
    the largest i with winner[i] < p[i]: the displacement rule, since
    inside MAX_BOUND winner[i] - p[i] < 0 exactly when winner[i] < p[i].

    values is the caller's point -> value store. f is called, and its
    value checked, only for points missing from it, and each new point
    is added; run_slm passes one store per run, so there each lattice
    point is evaluated once per run. Evaluation order is p, then its
    candidates, vertex by vertex, whatever the store already holds.
    Calls are numbered on from len(values), so with the run's store a
    failing call names the run's call number.

    Two paths give this result (see the module docstring). corner
    promises that grid is subdivide's grid of the box whose lower corner
    has these lattice indices, and step >= 1; run_slm passes it for a
    generation's single box from generation 1 on. It selects the block
    path (at most 7**n store lookups); a grid of another length, or one
    not starting and ending at the corner's floats, raises ValueError.
    Without a corner, or when two block floats collide, the loop runs.
    """
    f = checked(f, len(values))
    block = None if corner is None else _probe_block(grid, step, lattice, corner)
    if block is not None:
        return _label_block(f, grid, sense, values, *block)
    n = len(lattice)
    minimize = sense is Sense.MINIMIZE
    memos = [_ProbeMemo(axis, step) for axis in lattice]
    lookup = dict.__getitem__
    labeled = []
    for p in grid:
        if len(p) != n:
            raise ValueError("point dimension mismatch")
        candidates = itertools.product(*map(lookup, memos, p))
        value = values.get(p)
        if value is None:
            value = values[p] = f(p)
        best, best_v = p, value
        for q in candidates:
            v = values.get(q)
            if v is None:
                v = values[q] = f(q)
            if (v < best_v) if minimize else (v > best_v):
                best, best_v = q, v
        label = 0
        if best is not p:
            for i, t in enumerate(best):
                if t < p[i]:
                    label = i + 1
        labeled.append(_vertex((p, value, best, label)))
    return tuple(labeled)


class _ProbeMemo(dict):
    """One axis's probe candidates per coordinate, made on first lookup
    by LatticeAxis.probes: a coordinate the table has not made raises
    ValueError."""

    def __init__(self, axis: LatticeAxis, step: int) -> None:
        self.axis = axis
        self.step = step

    def __missing__(self, x: float) -> tuple[float, ...]:
        candidates = self[x] = self.axis.probes(self.step, x)
        return candidates


_Shape = tuple[tuple[bool, bool], ...]  # per axis: does the block hold k - step, k + 5 step
_Vertex = tuple[Callable[[list[float]], tuple[float, ...]], tuple[int, ...], tuple[int, ...]]


def _probe_block(grid: Sequence[Point], step: int, lattice: Sequence[LatticeAxis],
                 corner: Sequence[int]) -> tuple[list[list[float]], _Shape] | None:
    """The probe block of the box whose lower corner has lattice indices
    corner: per axis, the floats of indices k - step to k + 5 step in
    [0, 2**depth], made in the loop's probe order, and the block's shape,
    whether k - step and k + 5 step are in it. None when two block floats
    of an axis are equal; ValueError unless grid has 3**n points, the
    first and last at the block floats of k and k + 4 step."""
    axes, shape = [], []
    for axis, k in zip(lattice, corner):
        xs = [axis[j] for j in range(k - step, k + 6 * step, step) if 0 <= j <= axis.top]
        if not all(map(operator.lt, xs, xs[1:])):
            return None
        axes.append(xs)
        shape.append((k >= step, k + 5 * step <= axis.top))
    first = [xs[lo] for xs, (lo, _) in zip(axes, shape)]
    last = [xs[lo + 4] for xs, (lo, _) in zip(axes, shape)]
    if len(grid) != 3 ** len(axes) or list(grid[0]) != first or list(grid[-1]) != last:
        raise ValueError("the grid is not the 3**n grid of the box at corner")
    return axes, tuple(shape)


@functools.lru_cache(maxsize=32)
def _block_plan(shape: _Shape) -> tuple[tuple[int, ...], tuple[_Vertex, ...]]:
    """The labeling plan of a probe block of this shape, flat indices in
    row-major (lexicographic) order: the fill order, each block position
    in the order the per-vertex loop first reaches it (vertex, then its
    candidates), and per grid vertex a getter of its candidates' values,
    their indices and the label each would give. A vertex's own index
    comes first among its candidates, with label 0, as the loop
    compares p before its candidates."""
    sizes = [5 + has_lo + has_hi for has_lo, has_hi in shape]
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
    # per axis, each vertex's block position and its candidates' positions
    per_axis = [[(c, [j for j in (c - 1, c, c + 1) if 0 <= j < size])
                 for c in (has_lo, has_lo + 2, has_lo + 4)]
                for (has_lo, _), size in zip(shape, sizes)]
    fill: dict[int, None] = {}
    vertices = []
    for axes in itertools.product(*per_axis):
        own = [c for c, _ in axes]
        cands, labels = [sum(map(operator.mul, own, strides))], [0]
        for q in itertools.product(*[js for _, js in axes]):
            cands.append(sum(map(operator.mul, q, strides)))
            labels.append(max([i + 1 for i, (j, c) in enumerate(zip(q, own)) if j < c],
                              default=0))
        fill.update(dict.fromkeys(cands))
        vertices.append((operator.itemgetter(*cands), tuple(cands), tuple(labels)))
    return tuple(fill), tuple(vertices)


def _label_block(f: Objective, grid: Sequence[Point], sense: Sense, values: dict[Point, float],
                 axes: list[list[float]], shape: _Shape) -> tuple[LabeledVertex, ...]:
    """label_grid's block path: look every block point up in the store
    once, evaluate the misses in the loop's order, then pick each
    vertex's winner from its candidates' values, p's own first. min and
    max return the first of equal values and .index finds it, so p wins
    unless a candidate is strictly better, and among equal candidates
    the first in lexicographic order wins: the loop's ties keep the
    incumbent."""
    fill, plan = _block_plan(shape)
    points = list(itertools.product(*axes))
    for (_, cands, _), p in zip(plan, grid):
        points[cands[0]] = p  # f and the store see the grid's own point, as in the loop
    block = list(map(values.get, points))
    for i in fill:
        if block[i] is None:
            q = points[i]
            block[i] = values[q] = f(q)
    pick = min if sense is Sense.MINIMIZE else max
    labeled = []
    for p, (get, cands, labels) in zip(grid, plan):
        vs = get(block)
        j = vs.index(pick(vs))
        labeled.append(_vertex((p, vs[0], points[cands[j]], labels[j])))
    return tuple(labeled)
