"""Vertex labeling by direction of local improvement.

Each grid vertex p is compared against its admissible neighbors
p + delta for the 3**n - 1 offsets delta of the probe spacing. The
winner (ties prefer p, then the earliest offset) defines a displacement
d = winner - p, and the label is 0 when no component of d is negative,
otherwise the largest 1-based index of a negative component. label_grid
builds each vertex's neighbours from per-axis memos of in-domain
coordinates, taken from the run's lattice in a run, and reads the
caller's point store before calling f.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .geometry import LatticeAxis, Point, SearchBox, Spacing, check_spacing

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


def _stencil(h: float, a: float, b: float, x: float) -> tuple[float, ...]:
    """x - h, x and x + h, those in [a, b]."""
    return tuple(q for q in (x + -h, x + 0.0, x + h) if a <= q <= b)


def label_vertex(f: Objective, p: Point, s: Spacing, domain: SearchBox,
                 sense: Sense) -> LabeledVertex:
    return label_grid(f, (p,), s, domain, sense, {})[0]


def label_grid(f: Objective, grid: Sequence[Point], s: Spacing | int, domain: SearchBox,
               sense: Sense, values: dict[Point, float],
               lattice: Sequence[LatticeAxis] | None = None) -> tuple[LabeledVertex, ...]:
    """Label every grid point, same order as the input grid.

    s is the probe spacing (half the grid spacing of the generation
    being labeled). A vertex p is compared with p itself, then with its
    candidates in probe_offsets order: per axis, the coordinates below,
    at and above p's, with those outside the domain discarded, never
    clamped. Ties keep the incumbent, which starts as p (the product's
    centre is the same key, a tie). Without a lattice, s holds a float
    per axis and the candidates of x on axis i are x - s[i], x and
    x + s[i]. run_slm passes its run's lattice, one LatticeAxis per axis,
    and an index step s: every coordinate must then be a lattice float,
    and the candidates of x, at index k, are the lattice floats at k - s,
    k and k + s, so a probe is the very float a later grid point at that
    index has. Each axis memoizes x -> its candidates for the call; x is
    range-checked when first seen, so every vertex is checked.

    values is the caller's point -> value store. f is called, and its
    value checked, only for points missing from it, and each new point
    is added; run_slm passes one store per run, so there each lattice
    point is evaluated once per run. Evaluation order is p, then its
    candidates, vertex by vertex, whatever the store already holds.
    """
    n = domain.dimension
    if lattice is None:
        check_spacing(n, s)
        probes = [functools.partial(_stencil, h, a, b) for h, a, b in zip(s, domain.lo, domain.hi)]
    else:
        probes = [functools.partial(axis.probes, s) for axis in lattice]
    minimize = sense is Sense.MINIMIZE
    per_axis = tuple(zip(domain.lo, domain.hi, probes, [{} for _ in range(n)]))
    labeled = []
    for p in grid:
        if len(p) != n:
            raise ValueError("point dimension mismatch")
        axes = []
        for x, (a, b, probe, memo) in zip(p, per_axis):
            candidates = memo.get(x)
            if candidates is None:
                if not a <= x <= b:
                    raise ValueError(f"probe point {p!r} lies outside the domain")
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
