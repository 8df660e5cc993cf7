"""The subdivision search loop.

One generation is three steps. _label_frontier labels the grid of every
frontier box and finds the completely labeled cells (vertex labels
covering {0..n}); _next_cells, the frontier policy, picks the cells to
refine; their boxes, at half the spacing, are the next frontier.
Generation 0 labels only the 2**n corners of the domain as a single
cell; every later generation labels the 3**n grid of each frontier box.
There is one policy: single descent keeps the first ranked cell,
explore-all the first cell_budget. run_slm stops with TOLERANCE_REACHED
when the largest spacing component reaches the tolerance, GENERATION_CAP
at max_generations, or BOX_UNSPLITTABLE when a box picked for refinement
can no longer be halved in floating point. For explore-all, _candidates
then lists one best vertex per final box.

Probes at half the grid spacing land on a shared dyadic lattice: the
next generation's grid points are this generation's probe points, and
neighbouring vertices and boxes probe the same points. run_slm fixes the
lattice's depth before the first generation, one more than the last
generation tolerance and max_generations allow, so the last
generation's probes are one index apart. Per axis, a table
(geometry.LatticeAxis) maps each index to the float subdivide computes
for it. label_grid labels on that lattice only: it takes every probe
coordinate from the table and rejects a vertex coordinate the table has
not made, so a lattice point has one float on every domain, whether
reached as a grid point or as a probe. Every grid point is made before
its generation: generation 0's corners are the table's ends, and every
later grid point was a probe of the generation before. run_slm owns a point -> value
store keyed on the float tuple and hands it to every label_grid call,
which evaluates and checks only the points missing from it, numbering
them on from the store's size, so a failing call names the run's
call number. A generation of one box labels its own grid, one of
several boxes their distinct grid points together, on the labeling
path slmopt.labeling's docstring gives.
Each lattice point is then evaluated once per run and labeled at most
once per generation, and `evaluations` counts them. 0.0 and -0.0
compare equal and share one key. First-time evaluations happen in the
same order as without the store, so results do not depend on it. No
point or value outlives its run; only process-wide caches of pure
functions of shape do (geometry._cell_corner_indices, labeling._block_plan).

The reported best is the best point ever evaluated, including probe
candidates, not just grid vertices: the first best entry of the store
in evaluation order. run_slm finds it with no Python frame per point:
min or max over the store's values, .index of that value, and the key
at that position.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import NamedTuple, Sequence

from .geometry import (
    Cell,
    LatticeAxis,
    Point,
    SearchBox,
    Spacing,
    _Frozen,
    corners,
    make_cell,
    splittable,
    subdivide,
)
from .labeling import (
    LabeledVertex,
    Objective,
    Sense,
    label_grid,
)

TOLERANCE_REACHED = "tolerance_reached"
GENERATION_CAP = "generation_cap"
BOX_UNSPLITTABLE = "box_unsplittable"  # a box to refine can no longer be halved in floats

_Staged = tuple[SearchBox, tuple[Cell, ...], tuple[LabeledVertex, ...], tuple[Cell, ...],
                list[float]]


DEFAULT_MAX_GENERATIONS = 60


class SlmConfig(_Frozen):
    __slots__ = ("sense", "tolerance", "max_generations", "explore_all", "cell_budget")
    sense: Sense
    tolerance: float
    max_generations: int
    explore_all: bool
    cell_budget: int

    def __init__(self, sense: Sense, tolerance: float,
                 max_generations: int = DEFAULT_MAX_GENERATIONS, explore_all: bool = False,
                 cell_budget: int = 32) -> None:
        if not 0 < tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if max_generations < 1:
            raise ValueError("max_generations must be at least 1")
        if cell_budget < 1:
            raise ValueError("cell_budget must be at least 1")
        self._set(sense, tolerance, max_generations, explore_all, cell_budget)


class GenerationRecord(NamedTuple):
    index: int
    box: SearchBox
    spacing: Spacing
    vertices: tuple[LabeledVertex, ...]
    complete_cells: tuple[Cell, ...]
    chosen: Cell | None

    @property
    def fallback_used(self) -> bool:
        return not self.complete_cells


# A GenerationRecord from one 6-tuple, built in C: tuple.__new__ skips the
# NamedTuple's generated Python __new__ (a frame per box) and its arity check.
_record = functools.partial(tuple.__new__, GenerationRecord)


@dataclass(frozen=True)
class RunResult:
    best_point: Point
    best_value: float
    candidates: tuple[tuple[Point, float], ...]
    generations: tuple[GenerationRecord, ...]
    evaluations: int
    termination: str


def complete_cells(cells: Sequence[Cell], labels: Sequence[int]) -> tuple[Cell, ...]:
    """Cells whose vertex labels cover {0, 1, ..., n}, input order kept."""
    if not cells:
        return ()
    needed = set(range(len(cells[0].lo) + 1))
    return tuple([c for c in cells if needed.issubset(map(labels.__getitem__, c.vertex_indices))])


def _cell_key(cell: Cell, ranks: Sequence[float]) -> tuple[float, Point]:
    """A cell's selection key: its best vertex rank, then its lower corner."""
    return min(map(ranks.__getitem__, cell.vertex_indices)), cell.lo


def _label_frontier(f: Objective, store: dict[Point, float], lattice: Sequence[LatticeAxis],
                    frontier: Sequence[SearchBox], gen: int, sense: Sense) -> list[_Staged]:
    """Label the grids of all frontier boxes with one label_grid call that
    reads and fills the run's store and probes the lattice at half the
    generation's grid step: a single box's own grid, unmerged, or the
    distinct points of several boxes' grids in order of first appearance,
    each box's vertices read back by position. run_slm passes the frontier
    already ordered by corners (lo, then hi). Returns (box, cells, vertices,
    complete cells, ranks) per box; a vertex's rank is its value when
    minimizing and minus its value when maximizing, so lower ranks are
    better and every selection reads ranks, not the sense."""
    layouts = []
    for box in frontier:
        if gen == 0:
            grid: tuple[Point, ...] = corners(box)
            cells: tuple[Cell, ...] = (make_cell((box.lo, box.hi, tuple(range(len(grid))))),)
        else:
            grid, cells = subdivide(box)
        layouts.append((box, grid, cells))
    step = lattice[0].top >> (gen + 1)
    if len(layouts) == 1:
        ((_, grid, _),) = layouts
        per_box = [label_grid(f, grid, step, sense, store, lattice)]
    else:
        position: dict[Point, int] = {}
        getters = [itemgetter(*[position.setdefault(p, len(position)) for p in grid])
                   for _, grid, _ in layouts]
        labeled = label_grid(f, tuple(position), step, sense, store, lattice)
        per_box = [get(labeled) for get in getters]
    minimize = sense is Sense.MINIMIZE
    staged = []
    for (box, _, cells), vertices in zip(layouts, per_box):
        ranks = [v.value for v in vertices] if minimize else [-v.value for v in vertices]
        staged.append((box, cells, vertices, complete_cells(cells, [v.label for v in vertices]),
                       ranks))
    return staged


def _next_cells(staged: Sequence[_Staged], config: SlmConfig) -> list[Cell]:
    """The frontier policy: the cells whose boxes the next generation labels.

    Every complete cell ranks ahead of every cell of a box with none (such
    a box offers all its children, so enumeration breadth survives flat or
    aliased generations), and each group is ordered by _cell_key: best
    vertex rank first. Among equal-ranked cells the smallest lower corner
    wins. The run keeps the first cell_budget cells with explore_all and
    the first one without: single descent is this policy at budget 1.
    """
    ranked = sorted(
        (((not complete, *_cell_key(c, ranks)), c)
         for _, cells, _, complete, ranks in staged for c in complete or cells),
        key=lambda kc: kc[0],
    )
    return [c for _, c in ranked[: config.cell_budget if config.explore_all else 1]]


def _candidates(staged: Sequence[_Staged]) -> tuple[tuple[Point, float], ...]:
    """The first best-ranked vertex of each final box, one entry per point
    (the first box's wins), best first and ties by point."""
    reps: dict[Point, tuple[float, float]] = {}
    for _, _, vertices, _, ranks in staged:
        i = ranks.index(min(ranks))
        reps.setdefault(vertices[i].point, (ranks[i], vertices[i].value))
    ranked = sorted(reps.items(), key=lambda pr: (pr[1][0], pr[0]))
    return tuple((p, v) for p, (_, v) in ranked)


def _spacings(domain: SearchBox, config: SlmConfig) -> list[Spacing]:
    """The grid spacing of every generation the run can reach: the
    domain's widths, halved until the largest is within tolerance or
    max_generations is reached."""
    spacings = [domain.widths()]
    while not (max(spacings[-1]) <= config.tolerance
               or len(spacings) > config.max_generations):
        spacings.append(tuple(v / 2.0 for v in spacings[-1]))
    return spacings


def run_slm(f: Objective, domain: SearchBox, config: SlmConfig) -> RunResult:
    """Run the subdividing labeling search on one objective.

    Deterministic: no randomness. Each generation refines, in lockstep,
    the cells the frontier policy (_next_cells) ranks first: one for
    single descent, which records it as `chosen`, and up to cell_budget
    with explore_all, whose candidates then hold one best vertex per box
    of the last generation, best first and ties by point.
    """
    sense = config.sense
    spacings = _spacings(domain, config)
    lattice = tuple(LatticeAxis(a, b, depth=len(spacings)) for a, b in zip(domain.lo, domain.hi))
    store: dict[Point, float] = {}
    generations: list[GenerationRecord] = []
    frontier: list[SearchBox] = [domain]
    # where the plan ends, unless a cell picked for refinement cannot be halved
    termination = TOLERANCE_REACHED if max(spacings[-1]) <= config.tolerance else GENERATION_CAP
    for gen, spacing in enumerate(spacings):
        staged = _label_frontier(f, store, lattice, frontier, gen, sense)
        refine = _next_cells(staged, config) if gen + 1 < len(spacings) else []
        chosen = refine[0] if refine and not config.explore_all else None  # descent has one box
        generations += [_record((gen, box, spacing, vertices, complete, chosen))
                        for box, _, vertices, complete, _ in staged]
        frontier = [c.box for c in sorted(refine)]  # a Cell sorts by lo, then hi
        if not all(map(splittable, frontier)):
            termination = BOX_UNSPLITTABLE
            break

    # The first best entry in evaluation order, scanned in C: min and max
    # return the first of equal values, .index finds that same position
    # (0.0 and -0.0 are equal, so a signed zero cannot move it), and the
    # store's keys are in the order of its values.
    values = list(store.values())
    i = values.index((min if sense is Sense.MINIMIZE else max)(values))
    best_point = next(islice(store, i, None))
    return RunResult(
        best_point=best_point,
        best_value=values[i],
        candidates=_candidates(staged) if config.explore_all else (),
        generations=tuple(generations),
        evaluations=len(store),
        termination=termination,
    )
