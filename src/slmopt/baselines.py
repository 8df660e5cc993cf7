"""Seeded comparison baselines: random search, greedy random walk,
simulated annealing.

Reproducibility contract: every run owns a fresh stdlib
``random.Random(seed)`` (Mersenne Twister), and all randomness flows
through ``rng.random()`` alone, drawn dimension-major (one draw per
coordinate per proposal, in coordinate order). Equal (spec, cfg) gives
bit-identical results on any platform. Each run calls its objective
through labeling.checked, as run_slm does: a call that raises or
returns a non-finite value raises ObjectiveEvaluationError with its
point and its 1-based evaluation number.

Uniform points (random search's, annealing's temperature samples) are
drawn ahead CHUNK points at a time, in the same dimension-major order,
and built column by column with no Python frame per point; step scales
are made a chunk at a time too, so a run holds O(CHUNK * n) floats
whatever its iteration count. A run stopped by a failing evaluation has
drawn further ahead than the points it evaluated, which nothing can
observe, because each run owns its generator.

Each run binds its invariants once: the bound ``random`` method, the
objective, the comparison (Sense.better: operator.lt or operator.gt) and
the per-axis (lo, hi, width) tuples. The clamp ``v = a if a > v else v;
v = b if b < v else v`` is ``min(max(v, a), b)`` bit for bit, signed
zeros included: each keeps v unless the bound compares strictly past it.
"""

from __future__ import annotations

import math
import random
from itertools import chain, islice
from typing import Callable, Iterator, NamedTuple

from .geometry import Point, SearchBox, _Frozen
from .labeling import checked
from .objectives import ObjectiveSpec

# proposal radius per dimension, as a fraction of the domain width,
# decaying geometrically from the first iteration to the last
STEP_SCALE_INITIAL = 0.5
STEP_SCALE_FINAL = 0.01
# annealing starts at the value spread of this many uniform samples
TEMPERATURE_SAMPLES = 10
COOLING_RATIO = 0.95
# uniform points and step scales are made this many at a time; it only
# bounds memory, to O(CHUNK * n) floats, and changes no value
CHUNK = 1024


class BaselineConfig(_Frozen):
    __slots__ = ("iterations", "seed", "initial_point")
    iterations: int
    seed: int
    initial_point: Point | None

    def __init__(self, iterations: int, seed: int, initial_point: Point | None = None) -> None:
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        # an infinite coordinate clamps to a bound; NaN has no place to go
        if initial_point is not None and any(math.isnan(float(v)) for v in initial_point):
            raise ValueError(f"initial point {tuple(initial_point)!r} has a NaN coordinate")
        self._set(iterations, seed, initial_point)


class OptimRunResult(NamedTuple):
    best_point: Point
    best_value: float
    evaluations: int
    notes: tuple[str, ...] = ()


def _step_scales(cfg: BaselineConfig) -> Iterator[float]:
    """Proposal radius for each iteration, as a fraction of the width:
    geometric decay from STEP_SCALE_INITIAL to STEP_SCALE_FINAL, made
    CHUNK iterations at a time."""
    s0 = STEP_SCALE_INITIAL
    ratio = STEP_SCALE_FINAL / s0
    count = cfg.iterations
    last = max(1, count - 1)
    return chain.from_iterable(
        [s0 * ratio ** (t / last) for t in range(start, min(start + CHUNK, count))]
        for start in range(0, count, CHUNK))


def _uniform_points(draw: Callable[[], float], domain: SearchBox, count: int) -> Iterator[Point]:
    """count uniform points of domain, a + w * u on each axis (lo a, width
    w), u read from draw dimension-major. Each chunk of k points takes its
    k * n draws at once and builds axis i's column from every n-th draw,
    so exactly count * n values are drawn once every point is read."""
    axes = tuple(enumerate(zip(domain.lo, domain.widths())))
    n = len(axes)
    stream = iter(draw, None)

    def chunks() -> Iterator[Iterator[Point]]:
        for start in range(0, count, CHUNK):
            us = list(islice(stream, min(CHUNK, count - start) * n))
            yield zip(*[[a + w * u for u in us[i::n]] for i, (a, w) in axes])

    # chain reads each chunk's zip at C level: no Python frame per point
    return chain.from_iterable(chunks())


def _propose(draw: Callable[[], float], x: Point,
             bounds: tuple[tuple[float, float, float], ...], scale: float) -> Point:
    """x + u, u uniform in [-scale*w, scale*w] per axis (lo, hi, w),
    clamped into [lo, hi] as min(max(v, lo), hi) would."""
    out = []
    for xi, (a, b, w) in zip(x, bounds):
        v = xi + (2.0 * draw() - 1.0) * (scale * w)
        v = a if a > v else v
        out.append(b if b < v else v)
    return tuple(out)


def random_search(spec: ObjectiveSpec, cfg: BaselineConfig) -> OptimRunResult:
    """Uniform sampling over the domain; best of cfg.iterations draws.

    evaluations == cfg.iterations.
    """
    better = spec.sense.better
    f = checked(spec.evaluator)
    points = _uniform_points(random.Random(cfg.seed).random, spec.domain, cfg.iterations)
    best_p = next(points)
    best_v = f(best_p)
    for p in points:
        v = f(p)
        if better(v, best_v):
            best_p, best_v = p, v
    return OptimRunResult(best_p, best_v, cfg.iterations)


def _initial(spec: ObjectiveSpec, cfg: BaselineConfig) -> tuple[Point, tuple[str, ...]]:
    if cfg.initial_point is None:
        return spec.domain.center(), ()
    given = tuple(float(v) for v in cfg.initial_point)
    n = spec.domain.dimension
    if len(given) != n:
        raise ValueError(f"initial point {given} is {len(given)}-D; {spec.name} is {n}-D")
    clamped = spec.domain.clamp(given)
    if clamped != given:
        return clamped, (f"initial point clamped from {given} to {clamped}",)
    return clamped, ()


def random_search_walk(spec: ObjectiveSpec, cfg: BaselineConfig) -> OptimRunResult:
    """Greedy walk: propose x + u, u uniform in the decaying step box,
    clamped to the domain; move only on strict improvement.

    Starts from cfg.initial_point (clamped into the domain, recorded in
    notes) or the domain center. evaluations == cfg.iterations + 1.
    """
    draw = random.Random(cfg.seed).random
    better = spec.sense.better
    f = checked(spec.evaluator)
    bounds = tuple(zip(spec.domain.lo, spec.domain.hi, spec.domain.widths()))
    x, notes = _initial(spec, cfg)
    fx = f(x)
    for scale in _step_scales(cfg):
        p = _propose(draw, x, bounds, scale)
        v = f(p)
        if better(v, fx):
            x, fx = p, v
    return OptimRunResult(x, fx, cfg.iterations + 1, notes)


def simulated_annealing(spec: ObjectiveSpec, cfg: BaselineConfig) -> OptimRunResult:
    """Metropolis walk with the same proposal scheme as the greedy walk.

    Improvements and value ties are always accepted; a worsening of
    |delta| is accepted with probability exp(-|delta|/T). T starts at
    the value spread of TEMPERATURE_SAMPLES (10) uniform samples, drawn
    and evaluated first (1.0 when they are all equal), so evaluations ==
    cfg.iterations + TEMPERATURE_SAMPLES + 1. T multiplies by
    COOLING_RATIO each iteration. Returns the best point ever visited,
    not the final state.
    """
    draw = random.Random(cfg.seed).random
    better = spec.sense.better
    f = checked(spec.evaluator)
    exp = math.exp
    bounds = tuple(zip(spec.domain.lo, spec.domain.hi, spec.domain.widths()))
    x, notes = _initial(spec, cfg)
    samples = [f(p) for p in _uniform_points(draw, spec.domain, TEMPERATURE_SAMPLES)]
    temperature = max(samples) - min(samples)
    if temperature <= 0.0:
        temperature = 1.0
    fx = f(x)
    best_p, best_v = x, fx
    for scale in _step_scales(cfg):
        p = _propose(draw, x, bounds, scale)
        v = f(p)
        if v == fx or better(v, fx):
            x, fx = p, v
        else:
            u = draw()
            # T underflows to 0.0 after about 14 500 iterations
            if temperature > 0.0 and u < exp(-abs(v - fx) / temperature):
                x, fx = p, v
        if better(fx, best_v):
            best_p, best_v = x, fx
        temperature *= COOLING_RATIO
    return OptimRunResult(best_p, best_v, cfg.iterations + TEMPERATURE_SAMPLES + 1, notes)
