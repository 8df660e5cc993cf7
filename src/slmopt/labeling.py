"""Vertex labeling by direction of local improvement.

Each grid vertex p is compared against its neighbours on the run's
dyadic lattice (geometry.LatticeAxis), a probe step of indices away
along each axis, those outside the domain discarded. The winner (ties
prefer p, then the earliest neighbour in lexicographic order) defines a
displacement d = winner - p, and the label is 0 when no component of d
is negative, otherwise the largest 1-based index of a negative
component. label_grid memoizes each axis's candidates and reads the
caller's point store before calling f.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .geometry import LatticeAxis, Point

Objective = Callable[[Point], float]


class Sense(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def better(self, a: float, b: float) -> bool:
        """True when value a strictly improves on value b."""
        return a < b if self is Sense.MINIMIZE else a > b


class ObjectiveEvaluationError(ValueError):
    """The objective returned a non-finite value.

    Carries the offending point; when they re-raise it, the subdivision
    loop attaches the generation index and a baseline the 1-based
    evaluation number.
    """

    def __init__(self, point: Point, value: float, generation: int | None = None,
                 evaluation: int | None = None):
        self.point = point
        self.value = value
        self.generation = generation
        self.evaluation = evaluation
        where = (f" at generation {generation}" if generation is not None
                 else f" at evaluation {evaluation}" if evaluation is not None else "")
        super().__init__(f"objective returned {value!r} at {point!r}{where}")


@dataclass(frozen=True)
class LabeledVertex:
    point: Point
    value: float
    probe_target: Point
    label: int


def _checked(f: Objective, p: Point) -> float:
    v = float(f(p))
    if not math.isfinite(v):
        raise ObjectiveEvaluationError(p, v)
    return v


def label_of(displacement: Sequence[float]) -> int:
    """0 if every component is >= 0, else the largest 1-based index
    whose component is negative."""
    label = 0
    for i, d in enumerate(displacement):
        if d < 0:
            label = i + 1
    return label


def label_grid(f: Objective, grid: Sequence[Point], step: int, sense: Sense,
               values: dict[Point, float],
               lattice: Sequence[LatticeAxis]) -> tuple[LabeledVertex, ...]:
    """Label every grid point, same order as the input grid.

    lattice is the run's lattice, one LatticeAxis per axis, and step the
    probe step in indices, half the grid step of the generation being
    labeled. A coordinate its axis has not made raises ValueError.
    On each axis the candidates of x, at index k, are the lattice floats
    at k - step, k and k + step that lie in [0, 2**depth]; a vertex p is
    compared with p, then with their product in lexicographic order, and
    ties keep the incumbent. Each axis memoizes x -> its candidates.

    values is the caller's point -> value store. f is called, and its
    value checked, only for points missing from it, and each new point
    is added; run_slm passes one store per run, so there each lattice
    point is evaluated once per run. Evaluation order is p, then its
    candidates, vertex by vertex, whatever the store already holds.
    """
    n = len(lattice)
    minimize = sense is Sense.MINIMIZE
    per_axis = tuple((functools.partial(axis.probes, step), {}) for axis in lattice)
    labeled = []
    for p in grid:
        if len(p) != n:
            raise ValueError("point dimension mismatch")
        axes = []
        for x, (probe, memo) in zip(p, per_axis):
            candidates = memo.get(x)
            if candidates is None:
                candidates = memo[x] = probe(x)
            axes.append(candidates)
        value = values.get(p)
        if value is None:
            value = values[p] = _checked(f, p)
        best, best_v = p, value
        for q in itertools.product(*axes):
            v = values.get(q)
            if v is None:
                v = values[q] = _checked(f, q)
            if (v < best_v) if minimize else (v > best_v):
                best, best_v = q, v
        labeled.append(LabeledVertex(point=p, value=value, probe_target=best,
                                     label=label_of([t - x for t, x in zip(best, p)])))
    return tuple(labeled)
