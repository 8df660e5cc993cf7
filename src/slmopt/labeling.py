"""Vertex labeling by direction of local improvement.

Each grid vertex p is compared against its admissible neighbors
p + delta for the 3**n - 1 offsets delta of the probe spacing. The
winner (ties prefer p, then the earliest offset) defines a displacement
d = winner - p, and the label is 0 when no component of d is negative,
otherwise the largest 1-based index of a negative component. label_grid
builds each vertex's neighbours from per-axis memos of in-domain
coordinates and reads the caller's point store before calling f.
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


def label_vertex(f: Objective, p: Point, s: Spacing, domain: SearchBox,
                 sense: Sense) -> LabeledVertex:
    return label_grid(f, (p,), s, domain, sense, {})[0]


def label_grid(f: Objective, grid: Sequence[Point], s: Spacing, domain: SearchBox,
               sense: Sense, values: dict[Point, float]) -> tuple[LabeledVertex, ...]:
    """Label every grid point, same order as the input grid.

    s is the probe spacing (half the grid spacing of the generation
    being labeled). A vertex p is compared with p itself, then with the
    points p + delta of probe_offsets, in the same order, with each
    axis's deltas filtered against the domain first. Out-of-domain
    candidates are discarded, never clamped; ties keep the incumbent,
    which starts as p (the product's p + 0 is the same key, a tie).
    Each axis memoizes x -> its in-domain (x - h, x, x + h) for the
    call; x is range-checked when first seen, so every vertex is checked.

    values is the caller's point -> value store. f is called, and its
    value checked, only for points missing from it, and each new point
    is added; run_slm passes one store per run, so there each distinct
    point is evaluated once per run. Evaluation order is p, then its
    candidates, vertex by vertex, whatever the store already holds.
    """
    n = domain.dimension
    check_spacing(n, s)
    minimize = sense is Sense.MINIMIZE
    per_axis = tuple(zip(s, domain.lo, domain.hi, [{} for _ in range(n)]))
    labeled = []
    for p in grid:
        if len(p) != n:
            raise ValueError("point dimension mismatch")
        axes = []
        for x, (h, a, b, memo) in zip(p, per_axis):
            candidates = memo.get(x)
            if candidates is None:
                if not a <= x <= b:
                    raise ValueError(f"probe point {p!r} lies outside the domain")
                candidates = memo[x] = tuple(q for q in (x + -h, x + 0.0, x + h) if a <= q <= b)
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
