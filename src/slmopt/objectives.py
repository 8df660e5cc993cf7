"""Benchmark objectives and the name registry.

Five builtins, all 2-D:

  sphere_min   x1^2 + (x2-0.4)^2 on [-2,2]^2, minimize
  trig         cos(pi*x1/2) - sin(pi*x2/2) on [-7,7]^2, minimize
  sphere_max   same surface as sphere_min, maximize
  rosenbrock   100*(x0^2 - x1)^2 + (1 - x0)^2 on [-2.048,2.048]^2, minimize
  shekel       De Jong f5 (Shekel's Foxholes) on [-65.536,65.536]^2, minimize

Each evaluator unpacks its point, so any length but 2 raises ValueError.

Every method's objective calls run through these evaluators. Each is
written for little interpreter work per call, yet does a fixed sequence
of float operations (eval_shekel states its order), and the tests hold
each builtin bit for bit against an int-exponent oracle, on and off its
domain, exceptions included. A float exponent keeps those bits: CPython
turns the int exponent of x ** 2 into exactly 2.0 before the one
float_pow call that x ** 2.0 makes, so both hand libm's pow the same
doubles, and skipping the conversion is all the float form saves.
x * x and math.pow stay out, since either can round differently:
float_pow raises |x| for a negative base, math.pow hands x to pow as it
is. So does sum() for a left-to-right fold, which compensates from 3.12.

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


def eval_sphere_min(p: Sequence[float]) -> float:
    x1, x2 = p
    return x1 ** 2.0 + (x2 - 0.4) ** 2.0


_cos, _sin, _PI = math.cos, math.sin, math.pi


def eval_trig(p: Sequence[float]) -> float:
    x1, x2 = p
    return _cos(_PI * x1 / 2.0) - _sin(_PI * x2 / 2.0)


def eval_rosenbrock(p: Sequence[float]) -> float:
    x0, x1 = p
    return 100.0 * (x0 ** 2.0 - x1) ** 2.0 + (1.0 - x0) ** 2.0


def eval_shekel(p: Sequence[float]) -> float:
    """De Jong f5: 1 / (0.002 + sum_j 1/(j + dist_j^6)), wells j = 1..25.

    Every denominator is >= 1, so the function is finite everywhere,
    ranges over roughly (0.99, 500.05), and bottoms out at
    f(-32,-32) = 0.998004 in the deepest well.

    Well j = 1..25 sits at column (j-1) mod 5, row (j-1) div 5 of the
    centres -32, -16, 0, 16, 32. Operation order: the five column powers
    (x1 - a)**6.0 and the five row powers (x2 - b)**6.0 once each, then
    the 25 terms 1/((j + col) + row), row-major, added left to right in
    one expression: bit-identical to the well-by-well formula folded
    from 0.0, since 0.0 + t is t for the first term t >= 0. The body is
    straight-line to cut interpreter work only: no loop and no unpacking
    of a well table, each j a float literal; x1 + 32.0 is x1 - (-32.0),
    x1 is x1 - 0.0, -0.0 included.
    """
    x1, x2 = p
    c0 = (x1 + 32.0) ** 6.0
    c1 = (x1 + 16.0) ** 6.0
    c2 = x1 ** 6.0
    c3 = (x1 - 16.0) ** 6.0
    c4 = (x1 - 32.0) ** 6.0
    r0 = (x2 + 32.0) ** 6.0
    r1 = (x2 + 16.0) ** 6.0
    r2 = x2 ** 6.0
    r3 = (x2 - 16.0) ** 6.0
    r4 = (x2 - 32.0) ** 6.0
    return 1.0 / (0.002
                  + (1.0 / ((1.0 + c0) + r0) + 1.0 / ((2.0 + c1) + r0)
                     + 1.0 / ((3.0 + c2) + r0) + 1.0 / ((4.0 + c3) + r0)
                     + 1.0 / ((5.0 + c4) + r0)
                     + 1.0 / ((6.0 + c0) + r1) + 1.0 / ((7.0 + c1) + r1)
                     + 1.0 / ((8.0 + c2) + r1) + 1.0 / ((9.0 + c3) + r1)
                     + 1.0 / ((10.0 + c4) + r1)
                     + 1.0 / ((11.0 + c0) + r2) + 1.0 / ((12.0 + c1) + r2)
                     + 1.0 / ((13.0 + c2) + r2) + 1.0 / ((14.0 + c3) + r2)
                     + 1.0 / ((15.0 + c4) + r2)
                     + 1.0 / ((16.0 + c0) + r3) + 1.0 / ((17.0 + c1) + r3)
                     + 1.0 / ((18.0 + c2) + r3) + 1.0 / ((19.0 + c3) + r3)
                     + 1.0 / ((20.0 + c4) + r3)
                     + 1.0 / ((21.0 + c0) + r4) + 1.0 / ((22.0 + c1) + r4)
                     + 1.0 / ((23.0 + c2) + r4) + 1.0 / ((24.0 + c3) + r4)
                     + 1.0 / ((25.0 + c4) + r4)))


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
    if name not in _REGISTRY:
        raise ValueError(f"unknown objective {name!r}; available: {', '.join(_REGISTRY)}")
    return _REGISTRY[name]


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
