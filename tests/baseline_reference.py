"""The test suite's reference for the three seeded baselines: the plain
loops of random search, the greedy random walk and simulated annealing,
written for reading, with one helper per step. slmopt.baselines binds
every per-run invariant once and must evaluate the same points, in the
same order, and return the same results, bit for bit.

test_baselines imports it."""

from __future__ import annotations

import math
import random
from typing import Iterator

from slmopt.baselines import (
    COOLING_RATIO,
    STEP_SCALE_FINAL,
    STEP_SCALE_INITIAL,
    TEMPERATURE_SAMPLES,
    BaselineConfig,
    OptimRunResult,
)
from slmopt.geometry import Point, SearchBox
from slmopt.labeling import _checked
from slmopt.objectives import ObjectiveSpec


def _uniform_point(rng: random.Random, lo: Point, widths: tuple[float, ...]) -> Point:
    return tuple(a + w * rng.random() for a, w in zip(lo, widths))


def _step_sigmas(cfg: BaselineConfig, box: SearchBox) -> Iterator[tuple[float, ...]]:
    """Per-dimension proposal radius for each iteration: geometric decay
    from STEP_SCALE_INITIAL*width to STEP_SCALE_FINAL*width."""
    s0 = STEP_SCALE_INITIAL
    widths = box.widths()
    last = max(1, cfg.iterations - 1)
    for t in range(cfg.iterations):
        scale = s0 * (STEP_SCALE_FINAL / s0) ** (t / last)
        yield tuple(scale * w for w in widths)


def _propose(rng: random.Random, x: Point, box: SearchBox,
             sigma: tuple[float, ...]) -> Point:
    out = []
    for xi, a, b, s in zip(x, box.lo, box.hi, sigma):
        u = (2.0 * rng.random() - 1.0) * s
        out.append(min(max(xi + u, a), b))
    return tuple(out)


def random_search(spec: ObjectiveSpec, cfg: BaselineConfig) -> OptimRunResult:
    """Uniform sampling over the domain; best of cfg.iterations draws.

    evaluations == cfg.iterations.
    """
    rng = random.Random(cfg.seed)
    better = spec.sense.better
    lo, widths = spec.domain.lo, spec.domain.widths()
    best_p = _uniform_point(rng, lo, widths)
    best_v = _checked(spec.evaluator, best_p)
    for _ in range(cfg.iterations - 1):
        p = _uniform_point(rng, lo, widths)
        v = _checked(spec.evaluator, p)
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
    rng = random.Random(cfg.seed)
    better = spec.sense.better
    x, notes = _initial(spec, cfg)
    fx = _checked(spec.evaluator, x)
    for sigma in _step_sigmas(cfg, spec.domain):
        p = _propose(rng, x, spec.domain, sigma)
        v = _checked(spec.evaluator, p)
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
    rng = random.Random(cfg.seed)
    better = spec.sense.better
    lo, widths = spec.domain.lo, spec.domain.widths()
    x, notes = _initial(spec, cfg)
    samples = [_checked(spec.evaluator, _uniform_point(rng, lo, widths))
               for _ in range(TEMPERATURE_SAMPLES)]
    temperature = max(samples) - min(samples)
    if temperature <= 0.0:
        temperature = 1.0
    fx = _checked(spec.evaluator, x)
    best_p, best_v = x, fx
    for sigma in _step_sigmas(cfg, spec.domain):
        p = _propose(rng, x, spec.domain, sigma)
        v = _checked(spec.evaluator, p)
        if v == fx or better(v, fx):
            x, fx = p, v
        else:
            u = rng.random()
            # T underflows to 0.0 after about 14 500 iterations
            if temperature > 0.0 and u < math.exp(-abs(v - fx) / temperature):
                x, fx = p, v
        if better(fx, best_v):
            best_p, best_v = x, fx
        temperature *= COOLING_RATIO
    return OptimRunResult(best_p, best_v, cfg.iterations + TEMPERATURE_SAMPLES + 1, notes)
