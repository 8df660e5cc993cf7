"""The subdivision search loop.

One generation = label a grid, collect the completely labeled cells
(vertex labels covering {0..n}), pick where to descend, halve the
spacing. Generation 0 labels only the 2**n corners of the domain as a
single cell; every later generation labels the 3**n grid of the chosen
box. The search stops when the largest spacing component reaches the
tolerance, when the generation cap hits, or when a box can no longer be
split in floating point.

The reported best is the best point ever evaluated, including probe
candidates, not just grid vertices.

Probes at half the grid spacing land on a shared dyadic lattice: the
next generation's grid points are this generation's probe points, and
neighbouring vertices and boxes probe the same points. So each run
keeps a point -> value store keyed on the float tuple, and each
generation labels the distinct grid points of all its boxes together.
Each lattice point is then evaluated once per run and labeled at most
once per generation, and `evaluations` counts distinct points. A point
reached by two sums that round differently is two keys, evaluated as
before; 0.0 and -0.0 compare equal and share one key. First-time
evaluations happen in the same order as without the store, so results
do not depend on it. Nothing is kept across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import (
    Cell,
    Point,
    SearchBox,
    Spacing,
    corners,
    initial_spacing,
    splittable,
    subdivide,
)
from .labeling import (
    LabeledVertex,
    Objective,
    ObjectiveEvaluationError,
    Sense,
    label_grid,
)

TOLERANCE_REACHED = "tolerance_reached"
GENERATION_CAP = "generation_cap"
NO_COMPLETE_CELL = "no_complete_cell_exhausted"


@dataclass(frozen=True)
class SlmConfig:
    sense: Sense
    tolerance: float
    max_generations: int = 60
    explore_all: bool = False
    cell_budget: int = 32

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_generations < 1:
            raise ValueError("max_generations must be at least 1")
        if self.cell_budget < 1:
            raise ValueError("cell_budget must be at least 1")


@dataclass(frozen=True)
class GenerationRecord:
    index: int
    box: SearchBox
    spacing: Spacing
    vertices: tuple[LabeledVertex, ...]
    complete_cells: tuple[Cell, ...]
    chosen: Cell | None
    fallback_used: bool


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
    needed = set(range(cells[0].box.dimension + 1))
    return tuple(
        c for c in cells if needed.issubset(labels[i] for i in c.vertex_indices)
    )


def _vertex_rank(value: float, sense: Sense) -> float:
    return value if sense is Sense.MINIMIZE else -value


def _cell_best_value(cell: Cell, vertices: Sequence[LabeledVertex], sense: Sense) -> float:
    vals = [vertices[i].value for i in cell.vertex_indices]
    return min(vals) if sense is Sense.MINIMIZE else max(vals)


def select_cell(complete: Sequence[Cell], vertices: Sequence[LabeledVertex],
                sense: Sense) -> Cell:
    """Complete cell with the best vertex value; ties go to the
    lexicographically smallest lower corner."""
    if not complete:
        raise ValueError("no complete cells to select from")
    return min(
        complete,
        key=lambda c: (_vertex_rank(_cell_best_value(c, vertices, sense), sense),
                       c.box.lo),
    )


def _best_vertex_index(vertices: Sequence[LabeledVertex], sense: Sense) -> int:
    best = 0
    for i in range(1, len(vertices)):
        if sense.better(vertices[i].value, vertices[best].value):
            best = i
    return best


def _fallback_cell(cells: Sequence[Cell], vertices: Sequence[LabeledVertex],
                   sense: Sense) -> Cell:
    """Descent target when nothing is completely labeled: the first cell
    containing the best-valued vertex."""
    target = _best_vertex_index(vertices, sense)
    for c in cells:
        if target in c.vertex_indices:
            return c
    raise AssertionError("subdivision cells must cover the grid")


def generation_bound(domain: SearchBox, tolerance: float) -> int:
    """Number of halvings of the widest side until it is <= tolerance.

    Computed by the same halving loop the run itself performs, so the
    bound agrees with run_slm even where floating-point log2 would
    round the wrong way.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    widest = max(domain.widths())
    count = 0
    while widest > tolerance:
        widest /= 2.0
        count += 1
    return count


def run_slm(f: Objective, domain: SearchBox, config: SlmConfig) -> RunResult:
    """Run the subdividing labeling search on one objective.

    Deterministic: no randomness, all tie-breaks lexicographic. With
    explore_all, every complete cell (up to cell_budget, ranked by best
    vertex value) is refined in lockstep and candidates holds one best
    vertex per surviving cell.
    """
    sense = config.sense
    store: dict[Point, float] = {}
    best_point: Point | None = None
    best_value = math.nan

    def counted(p: Point) -> float:
        nonlocal best_point, best_value
        v = store.get(p)
        if v is None:
            v = store[p] = float(f(p))
            if math.isfinite(v) and (best_point is None or sense.better(v, best_value)):
                best_point, best_value = p, v
        return v

    generations: list[GenerationRecord] = []
    frontier: list[SearchBox] = [domain]
    spacing: Spacing = initial_spacing(domain)
    gen = 0
    termination = None
    last_staged: list[tuple[SearchBox, tuple[LabeledVertex, ...], tuple[Cell, ...], tuple[Cell, ...]]] = []

    while termination is None:
        probe_s = tuple(v / 2.0 for v in spacing)
        layouts = []
        # distinct grid points of all boxes, in order of first appearance
        position: dict[Point, int] = {}
        for box in sorted(frontier, key=lambda b: (b.lo, b.hi)):
            if gen == 0:
                grid: tuple[Point, ...] = corners(box)
                cells: tuple[Cell, ...] = (Cell(box, tuple(range(len(grid)))),)
            else:
                grid, cells = subdivide(box)
            layouts.append((box, grid, cells))
            for p in grid:
                position.setdefault(p, len(position))
        try:
            labeled = label_grid(counted, tuple(position), probe_s, domain, sense)
        except ObjectiveEvaluationError as e:
            raise ObjectiveEvaluationError(e.point, e.value, generation=gen) from e
        staged = []
        for box, grid, cells in layouts:
            vertices = tuple(labeled[position[p]] for p in grid)
            labels = [v.label for v in vertices]
            staged.append((box, vertices, complete_cells(cells, labels), cells))
        last_staged = staged

        if max(spacing) <= config.tolerance:
            termination = TOLERANCE_REACHED
        elif gen >= config.max_generations:
            termination = GENERATION_CAP

        chosen_for: dict[int, Cell] = {}
        next_frontier: list[SearchBox] = []
        if termination is None:
            if config.explore_all:
                # complete cells are the signal and always rank first; a
                # box with none keeps all its children so enumeration
                # breadth survives flat or aliased generations, with
                # cell_budget capping the growth
                sure, unsure = [], []
                for box, vertices, complete, cells in staged:
                    if complete:
                        for c in complete:
                            rank = _vertex_rank(_cell_best_value(c, vertices, sense), sense)
                            sure.append(((rank, c.box.lo), c))
                    else:
                        for c in cells:
                            rank = _vertex_rank(_cell_best_value(c, vertices, sense), sense)
                            unsure.append(((rank, c.box.lo), c))
                sure.sort(key=lambda rc: rc[0])
                unsure.sort(key=lambda rc: rc[0])
                ranked = [c for _, c in sure] + [c for _, c in unsure]
                next_frontier = [c.box for c in ranked[: config.cell_budget]]
            else:
                box, vertices, complete, cells = staged[0]
                if complete:
                    cell = select_cell(complete, vertices, sense)
                else:
                    cell = _fallback_cell(cells, vertices, sense)
                chosen_for[0] = cell
                next_frontier = [cell.box]

        for i, (box, vertices, complete, cells) in enumerate(staged):
            generations.append(
                GenerationRecord(
                    index=gen,
                    box=box,
                    spacing=spacing,
                    vertices=vertices,
                    complete_cells=complete,
                    chosen=chosen_for.get(i),
                    fallback_used=not complete,
                )
            )

        if termination is None:
            if not all(splittable(b) for b in next_frontier):
                termination = NO_COMPLETE_CELL
            else:
                frontier = next_frontier
                spacing = tuple(v / 2.0 for v in spacing)
                gen += 1

    candidates: tuple[tuple[Point, float], ...] = ()
    if config.explore_all:
        reps: dict[Point, float] = {}
        for box, vertices, complete, cells in last_staged:
            v = vertices[_best_vertex_index(vertices, sense)]
            reps.setdefault(v.point, v.value)
        candidates = tuple(
            sorted(reps.items(), key=lambda pv: (_vertex_rank(pv[1], sense), pv[0]))
        )

    assert best_point is not None
    return RunResult(
        best_point=best_point,
        best_value=best_value,
        candidates=candidates,
        generations=tuple(generations),
        evaluations=len(store),
        termination=termination,
    )
