"""Vertex labeling by direction of local improvement.

Each grid vertex p is compared against its neighbours on the run's
dyadic lattice (geometry.LatticeAxis), a probe step of indices away
along each axis, those outside the domain discarded. The winner (ties
prefer p, then the earliest neighbour in lexicographic order) defines
the label: 0 when no coordinate of the winner is below p's, otherwise
the largest 1-based index of one that is (the winner - p displacement's
last negative component). label_grid memoizes each axis's candidates and
reads the caller's point store before calling f. checked numbers and
checks the objective's calls for every method, slm and the baselines
alike.
"""

from __future__ import annotations

import enum
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


def checked(f: Objective, done: int = 0) -> Objective:
    """f wrapped so that its calls are numbered from done + 1 and each
    call is checked: one that raises, or returns a value float() rejects
    or that is not finite, raises ObjectiveEvaluationError with the
    point, the value or exception and the call's number."""
    calls = done

    def g(p: Point) -> float:
        nonlocal calls
        calls += 1
        try:
            v = float(f(p))
        except Exception as e:
            raise ObjectiveEvaluationError(p, e, calls) from e
        if not math.isfinite(v):
            raise ObjectiveEvaluationError(p, v, calls)
        return v

    return g


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
    ties keep the incumbent. The label is 0 when p wins, else i + 1 for
    the largest i with winner[i] < p[i]: the displacement rule, since
    inside MAX_BOUND winner[i] - p[i] < 0 exactly when winner[i] < p[i].
    Each axis memoizes x -> its candidates.

    values is the caller's point -> value store. f is called, and its
    value checked, only for points missing from it, and each new point
    is added; run_slm passes one store per run, so there each lattice
    point is evaluated once per run. Evaluation order is p, then its
    candidates, vertex by vertex, whatever the store already holds.
    Calls are numbered on from len(values), so with the run's store a
    failing call names the run's call number.
    """
    n = len(lattice)
    f = checked(f, len(values))
    minimize = sense is Sense.MINIMIZE
    per_axis = tuple((axis, {}) for axis in lattice)
    labeled = []
    for p in grid:
        if len(p) != n:
            raise ValueError("point dimension mismatch")
        axes = []
        for x, (axis, memo) in zip(p, per_axis):
            candidates = memo.get(x)
            if candidates is None:
                candidates = memo[x] = axis.probes(step, x)
            axes.append(candidates)
        value = values.get(p)
        if value is None:
            value = values[p] = f(p)
        best, best_v = p, value
        for q in itertools.product(*axes):
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
        labeled.append(LabeledVertex(p, value, best, label))
    return tuple(labeled)
