"""Workload inputs, op runners and output checks for the slmopt benchmark.

An op is one unit of work: one ``run_slm`` solve or one in-process
``slmopt.cli.main`` invocation. The workload seed alone produces every
input (shifted-sphere centres, job order, baseline seeds); slmopt sees
only the generated inputs. A pass runs every job of a workload once, and
the benchmark always measures whole passes, so the job mix, the
objective-call count per op and the optima count per op are exact for a
given seed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence
from unittest import mock

import slmopt.bench
import slmopt.cli
from slmopt.engine import TOLERANCE_REACHED, SlmConfig, run_slm
from slmopt.geometry import Point, SearchBox
from slmopt.labeling import Sense
from slmopt.objectives import builtin_names, registry_lookup

# Value tolerance on best_value for the builtins. At the descent and explore
# tolerances the worst measured gap is sphere_min's 6.25e-4: the descent
# settles at (0, 0.375) because 0.4 is not a dyadic grid point.
BUILTIN_VALUE_TOL = 1e-3
# Shifted spheres at tolerance width/64 can end a few cells from the centre
# after fallback generations; the worst of 52 seeded centres was 0.057.
SPHERE_VALUE_TOL = 0.1
# Centres stay within SPHERE_SHIFT of the origin of [-2, 2]^n. Up to there
# every centre costs the same objective calls (3835 at n = 3, 32997 at
# n = 4), so evals_per_op does not depend on the seed; wider shifts let the
# chosen boxes reach the domain boundary, which drops probes.
SPHERE_WIDTH = 4.0
SPHERE_SHIFT = 0.5

# Files written by the trace ops at the seed commit: one SVG per generation
# record plus trace.txt. trig explore-all keeps 232 records; the sphere_min
# descent at the default tolerance keeps 11.
TRACE_FILES = {"trig-explore": 233, "sphere_min-descent": 12}
# Objective calls per baseline run at the CLI defaults: rs draws 1000 points,
# rsw adds its start point to 500 steps, sa adds 10 temperature samples too.
BASELINE_EVALUATIONS = {"rs": 1000, "rsw": 501, "sa": 161}
BENCH_REPEATS = 3
BENCH_METHODS = 4
FORMATS = ("markdown", "csv", "json-lines")


@dataclass(frozen=True)
class SlmJob:
    key: str
    evaluator: Callable[[Point], float]
    domain: SearchBox
    sense: Sense
    tolerance: float
    explore_all: bool
    optimum_value: float
    value_tol: float
    # registry known optima exactly as shipped; () for benchmark objectives
    optima: tuple[Point, ...]


@dataclass(frozen=True)
class CliJob:
    key: str
    argv: tuple[str, ...]
    kind: str  # bench, trace or optimize
    expect: int  # rows, files or evaluations
    out: str | None = None


Job = SlmJob | CliJob


@dataclass
class Outcome:
    elapsed_s: float
    calls: int
    problems: list[str]
    optima_found: int
    digest: str | None = None


def shifted_sphere(centre: Sequence[float]) -> Callable[[Point], float]:
    def f(p: Point) -> float:
        return sum((x - c) ** 2 for x, c in zip(p, centre))
    return f


def _builtin_job(name: str, tol_exp: int, explore_all: bool) -> SlmJob:
    spec = registry_lookup(name)
    mode = "explore" if explore_all else "descent"
    return SlmJob(
        key=f"{name}-{mode}-w/2^{tol_exp}",
        evaluator=spec.evaluator,
        domain=spec.domain,
        sense=spec.sense,
        tolerance=max(spec.domain.widths()) / 2**tol_exp,
        explore_all=explore_all,
        optimum_value=spec.known_optima[0][1],
        value_tol=BUILTIN_VALUE_TOL,
        optima=tuple(p for p, _ in spec.known_optima),
    )


def _sphere_job(n: int, rng: random.Random) -> SlmJob:
    half = SPHERE_WIDTH / 2.0
    centre = tuple(rng.uniform(-SPHERE_SHIFT, SPHERE_SHIFT) for _ in range(n))
    return SlmJob(
        key=f"sphere{n}d-descent-w/2^6",
        evaluator=shifted_sphere(centre),
        domain=SearchBox((-half,) * n, (half,) * n),
        sense=Sense.MINIMIZE,
        tolerance=SPHERE_WIDTH / 64,
        explore_all=False,
        optimum_value=0.0,
        value_tol=SPHERE_VALUE_TOL,
        optima=(),
    )


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """One pass of the workload's jobs, in the order the seed gives."""
    rng = random.Random(seed)
    jobs: list[Job]
    if workload == "descent":
        # Short single-descent solves (a few ms each) where per-vertex
        # labeling overhead dominates and most objectives are cheap, so a
        # per-vertex or per-call cost shows here first. The n = 3 and n = 4
        # spheres add the 9^n-per-generation growth; their centres move
        # with the seed.
        jobs = [_builtin_job(name, k, False) for name in builtin_names() for k in (8, 10, 14)]
        jobs += [_sphere_job(3, rng), _sphere_job(4, rng)]
    elif workload == "explore":
        # Explore-all solves: the most lattice sharing across a frontier of
        # up to 32 boxes, the expensive shekel objective and the most
        # retained records, so evaluation reuse and frontier or retention
        # changes show here.
        jobs = [_builtin_job(name, 10, True) for name in builtin_names()]
    elif workload == "report":
        # The CLI ops exercise cli, bench, baselines and trace, which the
        # other workloads barely touch, and read back every record that
        # explore only builds. 20 ops a pass put p90 inside the three bench
        # ops and p50 inside the cluster of 3-5 ms optimize ops.
        jobs = _report_jobs(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def _report_jobs(rng: random.Random, workdir: str) -> list[Job]:
    names = builtin_names()
    jobs: list[Job] = []
    for fmt in FORMATS:
        out = os.path.join(workdir, f"bench.{fmt}")
        jobs.append(CliJob(
            key=f"bench-{fmt}",
            argv=("bench", "--function", "all", "--repeats", str(BENCH_REPEATS),
                  "--format", fmt, "--out", out),
            kind="bench",
            expect=len(names) * BENCH_METHODS * BENCH_REPEATS,
            out=out,
        ))
    for key, extra in (("trig-explore", ("--function", "trig", "--explore-all")),
                       ("sphere_min-descent", ("--function", "sphere_min"))):
        out = os.path.join(workdir, f"trace-{key}")
        jobs.append(CliJob(key=f"trace-{key}", argv=("trace", *extra, "--out", out),
                           kind="trace", expect=TRACE_FILES[key], out=out))
    for method, evaluations in BASELINE_EVALUATIONS.items():
        for name in names:
            seed = rng.randrange(2**31)
            jobs.append(CliJob(
                key=f"optimize-{method}-{name}",
                argv=("optimize", "--function", name, "--method", method, "--seed", str(seed)),
                kind="optimize",
                expect=evaluations,
            ))
    return jobs


class Counting:
    """Untraced hooks: the benchmark's own objective-call counter, and the
    two calls it times. ``installed`` routes the CLI's registry lookups
    through the counter, so report ops are counted too."""

    def __init__(self) -> None:
        self.calls = 0

    def objective(self, f: Callable[[Point], float]) -> Callable[[Point], float]:
        def counted(p: Point) -> float:
            self.calls += 1
            return f(p)
        return counted

    def run_slm(self, f, domain, config):
        return run_slm(f, domain, config)

    def cli_main(self, argv: list[str]) -> int:
        return slmopt.cli.main(argv)

    def _counted_lookup(self, name: str):
        spec = registry_lookup(name)
        return dataclasses.replace(spec, evaluator=self.objective(spec.evaluator))

    def patches(self) -> list:
        return [mock.patch.object(mod, "registry_lookup", self._counted_lookup)
                for mod in (slmopt.bench, slmopt.cli)]

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for p in self.patches():
                stack.enter_context(p)
            yield self


def count_optima(points: Sequence[Point], optima: Sequence[Point], radius: float) -> int:
    """Distinct optima within radius (Euclidean) of at least one point."""
    return sum(1 for o in optima if any(math.dist(p, o) <= radius for p in points))


def check_slm(job: SlmJob, res, calls: int) -> list[str]:
    """Every problem with one solve's output; empty when it is correct."""
    problems = []
    if not abs(res.best_value - job.optimum_value) <= job.value_tol:
        problems.append(f"best_value {res.best_value!r} is more than {job.value_tol} "
                        f"from the optimum {job.optimum_value!r}")
    if res.termination != TOLERANCE_REACHED:
        problems.append(f"termination {res.termination!r}")
    if res.evaluations != calls:
        problems.append(f"evaluations {res.evaluations} != {calls} objective calls")
    values = [v for _, v in res.candidates]
    if any(job.sense.better(b, a) for a, b in zip(values, values[1:])):
        problems.append("candidates are not sorted best-first")
    return problems


def slm_digest(res) -> str:
    """Hash of the points, values, labels, chosen boxes and termination;
    evaluations and timings are left out."""
    h = hashlib.sha256()
    h.update(repr((res.best_point, res.best_value, res.termination, res.candidates)).encode())
    for g in res.generations:
        chosen = (g.chosen.box.lo, g.chosen.box.hi) if g.chosen is not None else None
        h.update(repr((
            g.index, g.box.lo, g.box.hi, g.spacing, chosen, g.fallback_used,
            [(v.point, v.value, v.probe_target, v.label) for v in g.vertices],
        )).encode())
    return h.hexdigest()


def run_slm_job(job: SlmJob, hooks: Counting, digest: bool = False) -> Outcome:
    cfg = SlmConfig(sense=job.sense, tolerance=job.tolerance, explore_all=job.explore_all)
    f = hooks.objective(job.evaluator)
    before = hooks.calls
    start = time.perf_counter()
    res = hooks.run_slm(f, job.domain, cfg)
    elapsed = time.perf_counter() - start
    calls = hooks.calls - before
    points = [p for p, _ in res.candidates] if job.explore_all else [res.best_point]
    return Outcome(
        elapsed_s=elapsed,
        calls=calls,
        problems=check_slm(job, res, calls),
        optima_found=count_optima(points, job.optima, 2 * job.tolerance),
        digest=slm_digest(res) if digest else None,
    )


def _parse_point(text: str) -> Point:
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ValueError(f"not a point: {text!r}")
    return tuple(float(part) for part in inner[1:-1].split(","))


def parse_bench(fmt: str, text: str) -> list[tuple[str, str, Point, tuple]]:
    """(objective, algorithm, found point, row fields without wall time)
    for every row of a bench payload; raises ValueError if it does not parse."""
    rows = []
    if fmt == "markdown":
        objective = None
        for line in text.splitlines():
            if line.startswith("## "):
                objective = line[3:].strip()
            elif line.startswith("| ") and not line.startswith(("| Algorithm", "| ---")):
                cells = [c.strip() for c in line.strip().strip("|").split("|")]
                if objective is None or len(cells) != 4:
                    raise ValueError(f"bad markdown row {line!r}")
                point = _parse_point(cells[2])
                rows.append((objective, cells[0], point, (objective, *cells)))
    elif fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        if tuple(next(reader)) != slmopt.bench.FIELD_NAMES:
            raise ValueError("bad csv header")
        for rec in reader:
            if len(rec) != 8:
                raise ValueError(f"bad csv row {rec!r}")
            point = tuple(float(v) for v in json.loads(rec[3]))
            rows.append((rec[1], rec[0], point, tuple(rec[:6]) + (rec[7],)))
    elif fmt == "json-lines":
        for line in text.splitlines():
            d = json.loads(line)
            d.pop("wall_time_ms")
            point = tuple(float(v) for v in d["found_point"])
            rows.append((d["objective"], d["algorithm"], point, tuple(sorted(d.items(), key=str))))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return rows


def _file_digest(paths: Sequence[str]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_cli(job: CliJob, code: int, stdout: str, calls: int,
              digest: bool = False) -> tuple[list[str], int, str | None]:
    """Problems, optima found and (on request) a result digest for one
    CLI op. Optima count for the subdivision search's rows only: a seeded
    baseline lands near an optimum by chance."""
    if code != 0:
        return [f"exit code {code}"], 0, None
    problems: list[str] = []
    found = 0
    text = None
    try:
        if job.kind == "bench":
            fmt = job.argv[job.argv.index("--format") + 1]
            with open(job.out, encoding="utf-8") as fh:
                rows = parse_bench(fmt, fh.read())
            if len(rows) != job.expect:
                problems.append(f"{len(rows)} bench rows, expected {job.expect}")
            by_objective: dict[str, list[Point]] = {}
            for objective, algorithm, point, _ in rows:
                if algorithm == "slm":
                    by_objective.setdefault(objective, []).append(point)
            for objective, points in by_objective.items():
                spec = registry_lookup(objective)
                found += count_optima(points, [p for p, _ in spec.known_optima],
                                      2 * slmopt.bench.default_tolerance(spec))
            text = repr([r[3] for r in rows])
        elif job.kind == "trace":
            written = stdout.splitlines()
            if len(written) != job.expect:
                problems.append(f"{len(written)} trace files, expected {job.expect}")
            svgs = [p for p in written if p.endswith(".svg")]
            with open(os.path.join(job.out, "trace.txt"), encoding="utf-8") as fh:
                blocks = sum(1 for line in fh if line.startswith("generation "))
            if blocks != len(svgs):
                problems.append(f"trace.txt has {blocks} generations for {len(svgs)} svg files")
            if not all(os.path.isfile(p) for p in written):
                problems.append("a listed trace file is missing")
            text = _file_digest(written) if digest else None
        else:
            fields = dict(line.split(": ", 1) for line in stdout.splitlines())
            _parse_point(fields["best point"])
            float(fields["best value"])
            evaluations = int(fields.pop("evaluations"))
            if evaluations != job.expect or evaluations != calls:
                problems.append(f"evaluations {evaluations}, expected {job.expect} "
                                f"and {calls} objective calls")
            text = repr(sorted(fields.items()))
    except (OSError, ValueError, KeyError) as e:
        problems.append(f"payload does not parse: {e!r}")
    if not digest or text is None:
        return problems, found, None
    return problems, found, hashlib.sha256(text.encode()).hexdigest()


def run_cli_job(job: CliJob, hooks: Counting, digest: bool = False) -> Outcome:
    out = io.StringIO()
    before = hooks.calls
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = hooks.cli_main(list(job.argv))
        elapsed = time.perf_counter() - start
    calls = hooks.calls - before
    problems, found, dig = check_cli(job, code, out.getvalue(), calls, digest)
    return Outcome(elapsed_s=elapsed, calls=calls, problems=problems,
                   optima_found=found, digest=dig)


def execute(job: Job, hooks: Counting, digest: bool = False) -> Outcome:
    if isinstance(job, SlmJob):
        return run_slm_job(job, hooks, digest)
    return run_cli_job(job, hooks, digest)
