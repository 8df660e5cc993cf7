"""Vertex labeling by direction of local improvement.

Each grid vertex p is compared against its admissible neighbors
p + delta for the 3**n - 1 offsets delta of the probe spacing. The
winner (ties prefer p, then the earliest offset) defines a displacement
d = winner - p, and the label is 0 when no component of d is negative,
otherwise the largest 1-based index of a negative component.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .geometry import Point, SearchBox, Spacing, check_spacing

Objective = Callable[[Point], float]


class Sense(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def better(self, a: float, b: float) -> bool:
        """True when value a strictly improves on value b."""
        return a < b if self is Sense.MINIMIZE else a > b


class ObjectiveEvaluationError(ValueError):
    """The objective returned a non-finite value.

    Carries the offending point; the subdivision loop attaches the
    generation index when it re-raises.
    """

    def __init__(self, point: Point, value: float, generation: int | None = None):
        self.point = point
        self.value = value
        self.generation = generation
        where = f" at generation {generation}" if generation is not None else ""
        super().__init__(f"objective returned {value!r} at {point!r}{where}")


@dataclass(frozen=True)
class LabeledVertex:
    point: Point
    value: float
    probe_target: Point
    displacement: Point
    label: int


def _checked(f: Objective, p: Point) -> float:
    v = float(f(p))
    if not math.isfinite(v):
        raise ObjectiveEvaluationError(p, v)
    return v


def _probe(f: Objective, p: Point, s: Spacing, domain: SearchBox,
           sense: Sense) -> tuple[Point, float, float]:
    """Returns (target, target value, value at p). Out-of-domain
    candidates are discarded, never clamped; ties keep the incumbent.

    Candidates are the points p + delta of probe_offsets, in the same
    order, with each axis's deltas filtered against the domain first.
    """
    if not domain.contains(p):
        raise ValueError(f"probe point {p!r} lies outside the domain")
    check_spacing(len(p), s)
    fp = _checked(f, p)
    best, best_v = p, fp
    axes = []
    home = 0  # index of the all-zero delta in the product below
    for x, h, a, b in zip(p, s, domain.lo, domain.hi):
        below = x + -h
        axis = [q for q in (below, x + 0.0, x + h) if a <= q <= b]
        home = home * len(axis) + int(a <= below)
        axes.append(axis)
    for i, q in enumerate(itertools.product(*axes)):
        if i == home:
            continue
        v = _checked(f, q)
        if sense.better(v, best_v):
            best, best_v = q, v
    return best, best_v, fp


def label_of(displacement: Sequence[float]) -> int:
    """0 if every component is >= 0, else the largest 1-based index
    whose component is negative."""
    label = 0
    for i, d in enumerate(displacement):
        if d < 0:
            label = i + 1
    return label


def label_vertex(f: Objective, p: Point, s: Spacing, domain: SearchBox,
                 sense: Sense) -> LabeledVertex:
    target, _, fp = _probe(f, p, s, domain, sense)
    d = tuple(t - x for t, x in zip(target, p))
    return LabeledVertex(point=p, value=fp, probe_target=target,
                         displacement=d, label=label_of(d))


def label_grid(f: Objective, grid: Sequence[Point], s: Spacing,
               domain: SearchBox, sense: Sense) -> tuple[LabeledVertex, ...]:
    """Label every grid point, same order as the input grid.

    s is the probe spacing (half the grid spacing of the generation
    being labeled). Vertices are independent, so evaluation order
    cannot change the result. Each vertex calls f for itself and for
    every admissible neighbour, and nothing is cached here. run_slm
    passes the distinct grid points of a whole generation at once and an
    f backed by its per-run store, so there each lattice point is
    labeled once per generation and evaluated once per run.
    """
    return tuple(label_vertex(f, p, s, domain, sense) for p in grid)
