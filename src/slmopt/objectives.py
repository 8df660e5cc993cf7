"""Benchmark objectives and the name registry.

Five builtins, all 2-D:

  sphere_min   x1^2 + (x2-0.4)^2 on [-2,2]^2, minimize
  trig         cos(pi*x1/2) - sin(pi*x2/2) on [-7,7]^2, minimize
  sphere_max   same surface as sphere_min, maximize
  rosenbrock   100*(x0^2 - x1)^2 + (1 - x0)^2 on [-2.048,2.048]^2, minimize
  shekel       De Jong f5 (Shekel's Foxholes) on [-65.536,65.536]^2, minimize

Each evaluator unpacks its point, so any length but 2 raises ValueError.

Custom objectives can be added at runtime with register_objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .geometry import Point, SearchBox
from .labeling import Sense


@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    domain: SearchBox
    sense: Sense
    known_optima: tuple[tuple[Point, float], ...]
    evaluator: Callable[[Point], float]


class UnknownObjectiveError(KeyError, ValueError):
    """A KeyError to lookups, a ValueError to input checks; str is the message."""

    def __init__(self, name: str, available: Sequence[str]):
        self.unknown_name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown objective {name!r}; available: {', '.join(available)}"
        )

    def __str__(self) -> str:
        return self.args[0]


def eval_sphere_min(p: Sequence[float]) -> float:
    x1, x2 = p
    return x1 ** 2 + (x2 - 0.4) ** 2


def eval_trig(p: Sequence[float]) -> float:
    x1, x2 = p
    return math.cos(math.pi * x1 / 2.0) - math.sin(math.pi * x2 / 2.0)


def eval_rosenbrock(p: Sequence[float]) -> float:
    x0, x1 = p
    return 100.0 * (x0 ** 2 - x1) ** 2 + (1.0 - x0) ** 2


# well j = 1..25 sits at column (j-1) mod 5, row (j-1) div 5 of these
_SHEKEL_BASE = (-32.0, -16.0, 0.0, 16.0, 32.0)


def eval_shekel(p: Sequence[float]) -> float:
    """De Jong f5: 1 / (0.002 + sum_j 1/(j + dist_j^6)), wells j = 1..25.

    Every denominator is >= 1, so the function is finite everywhere,
    ranges over roughly (0.99, 500.05), and bottoms out at
    f(-32,-32) = 0.998004 in the deepest well. dist_j^6 is separable:
    the 5 column and 5 row powers are computed once, and 1/((j + col) +
    row) is added for j = 1..25 by plain += (sum() compensates from
    Python 3.12), bit-identical to the well-by-well formula.
    """
    x1, x2 = p
    cols = [(x1 - a0) ** 6 for a0 in _SHEKEL_BASE]
    total = 0.0
    j = 0
    for a1 in _SHEKEL_BASE:
        row = (x2 - a1) ** 6
        for col in cols:
            j += 1
            total += 1.0 / ((j + col) + row)
    return 1.0 / (0.002 + total)


# cos(pi*x1/2) = -1 at x1 = 2 mod 4 and sin(pi*x2/2) = 1 at x2 = 1 mod 4;
# [-7, 7]^2 holds 4 x 4 of them, the row x2 = -7 on the boundary included
_TRIG_OPTIMA = tuple(
    ((float(x1), float(x2)), -2.0)
    for x1 in (-6, -2, 2, 6)
    for x2 in (-7, -3, 1, 5)
)

_REGISTRY: dict[str, ObjectiveSpec] = {}


def register_objective(spec: ObjectiveSpec) -> None:
    """Add a custom objective; rejects duplicate names."""
    if spec.name in _REGISTRY:
        raise ValueError(f"objective {spec.name!r} is already registered")
    for point, _ in spec.known_optima:
        if not spec.domain.contains(point):
            raise ValueError(f"known optimum {point!r} lies outside the domain")
    _REGISTRY[spec.name] = spec


def registry_lookup(name: str) -> ObjectiveSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownObjectiveError(name, builtin_names()) from None


def builtin_names() -> tuple[str, ...]:
    return _BUILTINS


register_objective(ObjectiveSpec(
    name="sphere_min",
    domain=SearchBox((-2.0, -2.0), (2.0, 2.0)),
    sense=Sense.MINIMIZE,
    known_optima=(((0.0, 0.4), 0.0),),
    evaluator=eval_sphere_min,
))
register_objective(ObjectiveSpec(
    name="trig",
    domain=SearchBox((-7.0, -7.0), (7.0, 7.0)),
    sense=Sense.MINIMIZE,
    known_optima=_TRIG_OPTIMA,
    evaluator=eval_trig,
))
# the closed box has two maximizers of the sphere surface, both kept so
# deviation is measured against whichever one a run actually found
register_objective(ObjectiveSpec(
    name="sphere_max",
    domain=SearchBox((-2.0, -2.0), (2.0, 2.0)),
    sense=Sense.MAXIMIZE,
    known_optima=(((-2.0, -2.0), 9.76), ((2.0, -2.0), 9.76)),
    evaluator=eval_sphere_min,
))
register_objective(ObjectiveSpec(
    name="rosenbrock",
    domain=SearchBox((-2.048, -2.048), (2.048, 2.048)),
    sense=Sense.MINIMIZE,
    known_optima=(((1.0, 1.0), 0.0),),
    evaluator=eval_rosenbrock,
))
register_objective(ObjectiveSpec(
    name="shekel",
    domain=SearchBox((-65.536, -65.536), (65.536, 65.536)),
    sense=Sense.MINIMIZE,
    known_optima=(((-32.0, -32.0), eval_shekel((-32.0, -32.0))),),
    evaluator=eval_shekel,
))
_BUILTINS = tuple(_REGISTRY)  # the five above, in registration order
