"""Acceptance gate: twelve checks covering the worked labeling rows, engine
convergence on the builtin surfaces, exhaustive candidate enumeration,
generation scaling, baseline quality, bench determinism, and structural
invariants. Each check prints one `criterion N: PASS/FAIL` line outside the
capture so the verdicts always reach the console log, then asserts."""

import csv
import io
import json
import math
import random
import time

from slmopt.baselines import (
    BaselineConfig,
    random_search,
    random_search_walk,
    simulated_annealing,
)
from slmopt.bench import (
    AlgorithmSpec,
    BenchSpec,
    emit_csv,
    emit_json_lines,
    emit_markdown,
    run_bench,
)
from slmopt.engine import SlmConfig, run_slm
from slmopt.geometry import SearchBox
from slmopt.labeling import Sense, label_grid
from slmopt.objectives import (
    eval_rosenbrock,
    eval_shekel,
    eval_sphere_min,
    registry_lookup,
)

from lattice_reference import index_step, run_lattice


def report(capsys, num, ok, detail):
    # bypass capture so the verdict line lands in the piped console output
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def timed(started, limit):
    elapsed = time.perf_counter() - started
    return elapsed <= limit, f"{elapsed * 1000:.0f} ms (limit {limit * 1000:.0f} ms)"


def within(point, target, tol):
    return all(abs(a - b) <= tol for a, b in zip(point, target))


# ---------------------------------------------------------------------------
# criterion 1: worked labeling rows reproduce exactly
# ---------------------------------------------------------------------------

SPHERE_DOMAIN = SearchBox((-2.0, -2.0), (2.0, 2.0))
ROSEN_DOMAIN = SearchBox((-2.048, -2.048), (2.048, 2.048))

# (point, probe target, label) rows, grouped by surface and probe spacing;
# every row was hand-checked against the objective arithmetic. Each group
# is labeled on the domain's lattice at LATTICE_DEPTH, where each probe
# spacing is a whole number of index steps.
LATTICE_DEPTH = 11  # a run's lattice at the default tolerance, width / 2**10
WORKED_ROW_GROUPS = (
    (eval_sphere_min, SPHERE_DOMAIN, (2.0, 2.0), (
        ((-2.0, 2.0), (0.0, 0.0), 2),
        ((2.0, 2.0), (0.0, 0.0), 2),
        ((-2.0, -2.0), (0.0, 0.0), 0),
        ((2.0, -2.0), (0.0, 0.0), 1),
    )),
    (eval_sphere_min, SPHERE_DOMAIN, (1.0, 1.0), (
        ((-2.0, 2.0), (-1.0, 1.0), 2),
        ((2.0, 2.0), (1.0, 1.0), 2),
        ((-2.0, -2.0), (-1.0, -1.0), 0),
        ((2.0, -2.0), (1.0, -1.0), 1),
        ((2.0, 0.0), (1.0, 0.0), 1),
        ((0.0, 2.0), (0.0, 1.0), 2),
        ((-2.0, 0.0), (-1.0, 0.0), 0),
        ((0.0, -2.0), (0.0, -1.0), 0),
    )),
    (eval_sphere_min, SPHERE_DOMAIN, (0.5, 0.5), (
        ((-1.0, 1.0), (-0.5, 0.5), 2),
        ((1.0, 1.0), (0.5, 0.5), 2),
        ((-1.0, -1.0), (-0.5, -0.5), 0),
        ((1.0, -1.0), (0.5, -0.5), 1),
        ((1.0, 0.0), (0.5, 0.5), 1),
        ((0.0, 1.0), (0.0, 0.5), 2),
        ((-1.0, 0.0), (-0.5, 0.5), 0),
        ((0.0, -1.0), (0.0, -0.5), 0),
        ((0.0, 0.0), (0.0, 0.5), 0),
        ((-1.0, 2.0), (-0.5, 1.5), 2),
        ((2.0, 2.0), (1.5, 1.5), 2),
        ((-2.0, 1.0), (-1.5, 0.5), 2),
    )),
    (eval_rosenbrock, ROSEN_DOMAIN, (2.048, 2.048), (
        ((2.048, 2.048), (0.0, 0.0), 2),
        ((2.048, -2.048), (0.0, 0.0), 1),
        ((-2.048, -2.048), (0.0, 0.0), 0),
        ((-2.048, 2.048), (0.0, 0.0), 2),
    )),
    (eval_rosenbrock, ROSEN_DOMAIN, (0.512, 0.512), (
        ((1.024, 2.048), (1.536, 2.048), 0),
        ((2.048, 1.024), (1.536, 1.536), 1),
        ((1.024, 1.024), (1.024, 1.024), 0),
        # flat-valley rows: target pinned to the true probe argmin
        ((1.024, 0.0), (0.512, 0.512), 1),
        ((0.0, 1.024), (0.512, 0.512), 2),
    )),
)

# published label sequences for the corner and refined sphere grids and the
# banana corners, in row order
PINNED_LABEL_SEQUENCES = {0: (2, 2, 0, 1), 1: (2, 2, 0, 1, 1, 2, 0, 0),
                          3: (2, 1, 0, 2)}


def test_criterion_01_worked_labeling_rows(capsys):
    started = time.perf_counter()
    bad = []
    total = 0
    for gi, (f, domain, spacing, rows) in enumerate(WORKED_ROW_GROUPS):
        points = tuple(point for point, _, _ in rows)
        try:  # every fixture coordinate is the lattice float at its index
            lattice = run_lattice(domain, LATTICE_DEPTH,
                                  points + tuple(target for _, target, _ in rows))
        except (AssertionError, KeyError):
            bad.append(f"group {gi} off the lattice")
            continue
        step = index_step(domain, spacing, LATTICE_DEPTH)
        labeled = label_grid(f, points, step, Sense.MINIMIZE, {}, lattice)
        got_labels = []
        for (point, target, label), lv in zip(rows, labeled):
            total += 1
            got_labels.append(lv.label)
            if lv.probe_target != target or lv.label != label:
                bad.append(f"{point}@{spacing}")
        if gi in PINNED_LABEL_SEQUENCES and tuple(got_labels) != PINNED_LABEL_SEQUENCES[gi]:
            bad.append(f"label sequence of group {gi}")
    in_time, clock = timed(started, 1.0)
    ok = not bad and in_time
    report(capsys, 1, ok,
           f"{total} rows exact, {len(bad)} mismatches {bad or ''}; {clock}")


# ---------------------------------------------------------------------------
# criteria 2-3: sphere run and its chosen-box trajectory
# ---------------------------------------------------------------------------

def sphere_run(tol=0.0625):
    spec = registry_lookup("sphere_min")
    cfg = SlmConfig(sense=spec.sense, tolerance=tol)
    return run_slm(spec.evaluator, spec.domain, cfg)


def test_criterion_02_sphere_convergence(capsys):
    started = time.perf_counter()
    res = sphere_run()
    gens = res.generations[-1].index
    ok_point = within(res.best_point, (0.0, 0.4), 0.0625)
    ok_gens = 5 <= gens <= 8
    in_time, clock = timed(started, 0.1)
    report(capsys, 2, ok_point and ok_gens and in_time,
           f"best {res.best_point} (need each coord within 0.0625 of (0, 0.4)), "
           f"{gens} generations (need 5..8); {clock}")


def test_criterion_03_sphere_box_trajectory(capsys):
    started = time.perf_counter()
    res = sphere_run()
    got = [(r.chosen.box.lo, r.chosen.box.hi) for r in res.generations[:3]]
    want = [((-2.0, -2.0), (2.0, 2.0)),
            ((0.0, 0.0), (2.0, 2.0)),
            ((0.0, 0.0), (1.0, 1.0))]
    in_time, clock = timed(started, 0.1)
    report(capsys, 3, got == want and in_time,
           f"first chosen boxes {got} (need {want}); {clock}")


# ---------------------------------------------------------------------------
# criteria 4-6: remaining builtin surfaces
# ---------------------------------------------------------------------------

def test_criterion_04_bumpy_maximization(capsys):
    started = time.perf_counter()
    spec = registry_lookup("sphere_max")
    res = run_slm(spec.evaluator, spec.domain,
                  SlmConfig(sense=spec.sense, tolerance=0.01))
    ok = within(res.best_point, (-2.0, -2.0), 0.01)
    in_time, clock = timed(started, 0.1)
    report(capsys, 4, ok and in_time,
           f"best {res.best_point} (need within 0.01 of (-2, -2)); {clock}")


def test_criterion_05_banana_valley(capsys):
    started = time.perf_counter()
    spec = registry_lookup("rosenbrock")
    res = run_slm(spec.evaluator, spec.domain,
                  SlmConfig(sense=spec.sense, tolerance=0.008))
    ok = within(res.best_point, (1.0, 1.0), 0.05)
    in_time, clock = timed(started, 0.5)
    report(capsys, 5, ok and in_time,
           f"best {res.best_point} (need within 0.05 of (1, 1)); {clock}")


def test_criterion_06_foxholes_deep_well(capsys):
    started = time.perf_counter()
    spec = registry_lookup("shekel")
    res = run_slm(spec.evaluator, spec.domain,
                  SlmConfig(sense=spec.sense, tolerance=0.5))
    ok_point = within(res.best_point, (-32.0, -32.0), 0.5)
    ok_value = abs(res.best_value - 0.998004) <= 0.05
    in_time, clock = timed(started, 1.0)
    report(capsys, 6, ok_point and ok_value and in_time,
           f"best {res.best_point} value {res.best_value:.6f} "
           f"(need within 0.5 of (-32, -32), value within 0.05 of 0.998004); {clock}")


# ---------------------------------------------------------------------------
# criterion 7: exhaustive enumeration of the periodic minima
# ---------------------------------------------------------------------------

def test_criterion_07_explore_all_candidates(capsys):
    started = time.perf_counter()
    spec = registry_lookup("trig")
    res = run_slm(spec.evaluator, spec.domain,
                  SlmConfig(sense=spec.sense, tolerance=14.0 / 2 ** 10,
                            explore_all=True, cell_budget=32))
    family = [(x1, x2) for x1 in (-6.0, -2.0, 2.0, 6.0) for x2 in (-3.0, 1.0, 5.0)]
    qualifying = {
        p for p, v in res.candidates
        if v <= -1.85 and any(within(p, m, 0.25) for m in family)
    }
    in_time, clock = timed(started, 1.0)
    report(capsys, 7, len(qualifying) >= 4 and in_time,
           f"{len(res.candidates)} candidates, {len(qualifying)} distinct within "
           f"0.25 of the interior minima family at value <= -1.85 (need >= 4); {clock}")


# ---------------------------------------------------------------------------
# criterion 8: generation count tracks log2(width / tolerance)
# ---------------------------------------------------------------------------

def test_criterion_08_generation_scaling(capsys):
    started = time.perf_counter()
    spec = registry_lookup("sphere_min")
    got = []
    for k in range(3, 13):
        res = run_slm(spec.evaluator, spec.domain,
                      SlmConfig(sense=spec.sense, tolerance=4.0 / 2 ** k))
        got.append(res.generations[-1].index)
    want = list(range(3, 13))
    in_time, clock = timed(started, 1.0)
    report(capsys, 8, got == want and in_time,
           f"generations {got} for k=3..12 (need {want}); {clock}")


# ---------------------------------------------------------------------------
# criterion 9: objective spot values
# ---------------------------------------------------------------------------

def test_criterion_09_objective_spot_values(capsys):
    started = time.perf_counter()
    v1 = eval_sphere_min((0.0, 0.4))
    v2 = eval_rosenbrock((1.0, 1.0))
    v3 = eval_shekel((-32.0, -32.0))
    v4 = eval_shekel((65.536, 65.536))
    ok = (v1 == 0.0 and v2 == 0.0
          and abs(v3 - 0.998004) <= 1e-4 and abs(v4 - 500.0) <= 1.0)
    in_time, clock = timed(started, 0.1)
    report(capsys, 9, ok and in_time,
           f"paraboloid optimum {v1}, banana optimum {v2}, deep well {v3:.6f} "
           f"(need 0.998004 +/- 1e-4), far field {v4:.3f} (need 500 +/- 1); {clock}")


# ---------------------------------------------------------------------------
# criterion 10: baseline quality over 100 seeds
# ---------------------------------------------------------------------------

def test_criterion_10_baseline_quality(capsys):
    started = time.perf_counter()
    spec = registry_lookup("sphere_min")
    rs_hits = rsw_hits = sa_hits = 0
    for seed in range(100):
        rs = random_search(spec, BaselineConfig(iterations=1000, seed=seed))
        if rs.best_value <= 0.05:
            rs_hits += 1
        rsw = random_search_walk(spec, BaselineConfig(iterations=500, seed=seed))
        if within(rsw.best_point, (0.0, 0.4), 0.1):
            rsw_hits += 1
        sa = simulated_annealing(spec, BaselineConfig(iterations=150, seed=seed))
        if within(sa.best_point, (0.0, 0.4), 0.1):
            sa_hits += 1
    in_time, clock = timed(started, 30.0)
    ok = rs_hits >= 90 and rsw_hits >= 90 and sa_hits >= 80
    report(capsys, 10, ok and in_time,
           f"hits over seeds 0..99: rs {rs_hits}/100 (need >= 90, f <= 0.05), "
           f"rsw {rsw_hits}/100 (need >= 90, within 0.1), "
           f"sa {sa_hits}/100 (need >= 80, within 0.1); {clock}")


# ---------------------------------------------------------------------------
# criterion 11: bench payload determinism
# ---------------------------------------------------------------------------

def mask_csv_wall_time(text):
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("wall_time_ms")
    for row in rows[1:]:
        row[col] = "x"
    return rows


def mask_json_wall_time(text):
    out = []
    for line in text.splitlines():
        record = json.loads(line)
        record.pop("wall_time_ms")
        out.append(record)
    return out


def test_criterion_11_bench_determinism(capsys):
    started = time.perf_counter()
    spec = BenchSpec(
        objectives=("sphere_min", "rosenbrock"),
        algorithms=(AlgorithmSpec("slm", tolerance=0.125),
                    AlgorithmSpec("rs", iterations=200),
                    AlgorithmSpec("sa", iterations=100)),
        repeats=2,
    )
    first, second = run_bench(spec), run_bench(spec)
    ok = (emit_markdown(first) == emit_markdown(second)
          and mask_csv_wall_time(emit_csv(first)) == mask_csv_wall_time(emit_csv(second))
          and mask_json_wall_time(emit_json_lines(first))
          == mask_json_wall_time(emit_json_lines(second)))
    in_time, clock = timed(started, 5.0)
    report(capsys, 11, ok and in_time,
           f"two runs, markdown byte-identical and csv/json-lines identical "
           f"with wall time masked over {len(first)} rows each; {clock}")


# ---------------------------------------------------------------------------
# criterion 12: structural invariants over randomized runs
# ---------------------------------------------------------------------------

def contains_loose(outer, inner):
    eps = 1e-9
    return all(a - eps * max(1.0, abs(a)) <= c and d <= b + eps * max(1.0, abs(b))
               for a, b, c, d in zip(outer.lo, outer.hi, inner.lo, inner.hi))


def synthetic_objective(rng, box):
    center = tuple(a + (b - a) * rng.random() for a, b in zip(box.lo, box.hi))
    scale = rng.uniform(0.5, 4.0)
    ripple = rng.uniform(0.0, 0.3)

    def f(p):
        quad = sum((x - c) ** 2 for x, c in zip(p, center))
        return scale * quad + ripple * math.sin(5.0 * sum(p))

    return f


def random_case(rng):
    builtins = ("sphere_min", "trig", "sphere_max", "rosenbrock", "shekel")
    n = rng.choice((1, 2, 2, 2, 2, 2, 2, 3))
    if n == 2 and rng.random() < 0.75:
        spec = registry_lookup(rng.choice(builtins))
        domain = spec.domain
        # random sub-box, kept wide enough to stay splittable
        lo = tuple(a + (b - a) * rng.uniform(0.0, 0.3)
                   for a, b in zip(domain.lo, domain.hi))
        hi = tuple(b - (b - a) * rng.uniform(0.0, 0.3)
                   for a, b in zip(domain.lo, domain.hi))
        return spec.evaluator, SearchBox(lo, hi), spec.sense
    lo = tuple(rng.uniform(-10.0, 5.0) for _ in range(n))
    hi = tuple(a + rng.uniform(1.0, 12.0) for a in lo)
    box = SearchBox(lo, hi)
    return synthetic_objective(rng, box), box, Sense.MINIMIZE


def test_criterion_12_invariant_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(20260817)
    bad = []
    for case in range(1000):
        f, box, sense = random_case(rng)
        n = box.dimension
        seen = []

        def counted(p, f=f, seen=seen):
            v = f(p)
            seen.append(v)
            return v

        explore = rng.random() < 0.15
        cfg = SlmConfig(sense=sense,
                        tolerance=max(box.widths()) / 2 ** rng.randint(2, 6),
                        explore_all=explore,
                        cell_budget=rng.randint(2, 8) if explore else 32)
        res = run_slm(counted, box, cfg)

        tag = f"case {case}"
        for rec in res.generations:
            if not all(0 <= v.label <= n for v in rec.vertices):
                bad.append(f"{tag}: label out of range")
            if len(rec.vertices) > 3 ** n:
                bad.append(f"{tag}: too many vertices in one generation")
            for v in rec.vertices:
                tv = f(v.probe_target)
                worse = tv > v.value if sense is Sense.MINIMIZE else tv < v.value
                if worse:
                    bad.append(f"{tag}: probe target worse than its vertex")
        extreme = min(seen) if sense is Sense.MINIMIZE else max(seen)
        if res.best_value != extreme or f(res.best_point) != res.best_value:
            bad.append(f"{tag}: best-so-far not the running extreme")
        if not explore:
            records = res.generations
            for prev, cur in zip(records, records[1:]):
                if not contains_loose(prev.box, cur.box):
                    bad.append(f"{tag}: boxes not nested")
                if not all(math.isclose(c, p / 2.0, rel_tol=1e-12)
                           for p, c in zip(prev.spacing, cur.spacing)):
                    bad.append(f"{tag}: spacing not halved")
        if res.evaluations > len(res.generations) * 3 ** (2 * n):
            bad.append(f"{tag}: per-generation evaluation budget exceeded")
        if bad:
            break
    in_time, clock = timed(started, 30.0)
    report(capsys, 12, not bad and in_time,
           f"1000 randomized runs, invariant violations: {bad or 'none'}; {clock}")
