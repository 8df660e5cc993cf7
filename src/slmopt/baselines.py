"""Seeded comparison baselines: random search, greedy random walk,
simulated annealing.

Reproducibility contract: every run owns a fresh stdlib
``random.Random(seed)`` (Mersenne Twister), and all randomness flows
through ``rng.random()`` alone, drawn dimension-major (one draw per
coordinate per proposal, in coordinate order). Equal (spec, cfg) gives
bit-identical results on any platform. A non-finite value raises
ObjectiveEvaluationError with its point, as in run_slm.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .geometry import Point, SearchBox
from .labeling import _checked
from .objectives import ObjectiveSpec


@dataclass(frozen=True)
class BaselineConfig:
    iterations: int
    seed: int
    initial_point: Point | None = None
    step_scale_initial: float = 0.5
    step_scale_final: float = 0.01
    temperature_initial: float | None = None
    cooling_ratio: float = 0.95

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # 0 is allowed on purpose: a zero step scale freezes the walk
        if not 0.0 <= self.step_scale_final <= self.step_scale_initial:
            raise ValueError("need 0 <= step_scale_final <= step_scale_initial")
        if self.temperature_initial is not None and not self.temperature_initial > 0:
            raise ValueError("temperature_initial must be positive")
        if not 0.0 < self.cooling_ratio < 1.0:
            raise ValueError("cooling_ratio must be in (0, 1)")


@dataclass(frozen=True)
class OptimRunResult:
    best_point: Point
    best_value: float
    evaluations: int
    trajectory: tuple[tuple[int, float], ...]
    notes: tuple[str, ...] = ()


def _uniform_point(rng: random.Random, box: SearchBox) -> Point:
    return tuple(a + (b - a) * rng.random() for a, b in zip(box.lo, box.hi))


def _step_sigma(cfg: BaselineConfig, box: SearchBox, t: int) -> tuple[float, ...]:
    """Per-dimension proposal radius at iteration t: geometric decay
    from step_scale_initial*width to step_scale_final*width."""
    s0, sf = cfg.step_scale_initial, cfg.step_scale_final
    if s0 <= 0.0:
        scale = 0.0
    elif cfg.iterations == 1:
        scale = s0
    else:
        scale = s0 * (sf / s0) ** (t / (cfg.iterations - 1))
    return tuple(scale * w for w in box.widths())


def _propose(rng: random.Random, x: Point, box: SearchBox,
             sigma: tuple[float, ...]) -> Point:
    out = []
    for xi, a, b, s in zip(x, box.lo, box.hi, sigma):
        u = (2.0 * rng.random() - 1.0) * s
        out.append(min(max(xi + u, a), b))
    return tuple(out)


def random_search(spec: ObjectiveSpec, cfg: BaselineConfig) -> OptimRunResult:
    """Uniform sampling over the domain; best of cfg.iterations draws.

    evaluations == cfg.iterations. Trajectory entries are
    (evaluation count, best value) at each improvement.
    """
    rng = random.Random(cfg.seed)
    better = spec.sense.better
    best_p: Point | None = None
    best_v = math.nan
    trajectory = []
    for k in range(cfg.iterations):
        p = _uniform_point(rng, spec.domain)
        v = _checked(spec.evaluator, p)
        if best_p is None or better(v, best_v):
            best_p, best_v = p, v
            trajectory.append((k + 1, v))
    assert best_p is not None
    return OptimRunResult(best_p, best_v, cfg.iterations, tuple(trajectory))


def _initial(spec: ObjectiveSpec, cfg: BaselineConfig) -> tuple[Point, tuple[str, ...]]:
    if cfg.initial_point is None:
        return spec.domain.center(), ()
    given = tuple(float(v) for v in cfg.initial_point)
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
    evals = 1
    trajectory = [(evals, fx)]
    for t in range(cfg.iterations):
        p = _propose(rng, x, spec.domain, _step_sigma(cfg, spec.domain, t))
        v = _checked(spec.evaluator, p)
        evals += 1
        if better(v, fx):
            x, fx = p, v
            trajectory.append((evals, v))
    return OptimRunResult(x, fx, evals, tuple(trajectory), notes)


def simulated_annealing(spec: ObjectiveSpec, cfg: BaselineConfig) -> OptimRunResult:
    """Metropolis walk with the same proposal scheme as the greedy walk.

    Improvements and value ties are always accepted; a worsening of
    |delta| is accepted with probability exp(-|delta|/T). T starts at
    cfg.temperature_initial, or, when that is None, at the value spread
    of 10 uniform probe samples (drawn and evaluated first, so the
    default costs 10 extra evaluations: evaluations ==
    cfg.iterations + 1 + 10; with an explicit temperature it is
    cfg.iterations + 1). T multiplies by cooling_ratio each iteration.
    Returns the best point ever visited, not the final state.
    """
    rng = random.Random(cfg.seed)
    better = spec.sense.better
    evals = 0
    if cfg.temperature_initial is None:
        samples = [_checked(spec.evaluator, _uniform_point(rng, spec.domain)) for _ in range(10)]
        evals += 10
        temperature = max(samples) - min(samples)
        if temperature <= 0.0:
            temperature = 1.0
    else:
        temperature = cfg.temperature_initial
    x, notes = _initial(spec, cfg)
    fx = _checked(spec.evaluator, x)
    evals += 1
    best_p, best_v = x, fx
    trajectory = [(evals, fx)]
    for t in range(cfg.iterations):
        p = _propose(rng, x, spec.domain, _step_sigma(cfg, spec.domain, t))
        v = _checked(spec.evaluator, p)
        evals += 1
        if v == fx or better(v, fx):
            x, fx = p, v
        else:
            u = rng.random()
            if temperature > 0.0 and u < math.exp(-abs(v - fx) / temperature):
                x, fx = p, v
        if better(fx, best_v):
            best_p, best_v = x, fx
            trajectory.append((evals, fx))
        temperature *= cfg.cooling_ratio
    return OptimRunResult(best_p, best_v, evals, tuple(trajectory), notes)
