"""slmopt benchmark: closed-loop workloads timed end to end, plus a traced
run that splits op time by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload descent|explore|report \
        --seed N --seconds S --trace 0|1

One process, one thread, one caller: each op starts when the previous one
has returned. The loop runs whole passes over the workload's jobs until
--seconds have elapsed, after one untimed warm-up pass that also computes
results_sha. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it runs every op untraced and then traced, and prints the
per-layer metrics and the tracing overhead. The last line of stdout is
one JSON object: correct, attempted, failed and metrics.

End-to-end times are scaled to a reference speed. On a shared host the
speed of one core changes by up to 2x in spells of 10-30 s, which moves
raw medians by 20-30% between runs. So a fixed pure-Python loop that does
not touch slmopt is timed between ops, and each op's wall time is
multiplied by REF_MS over the loop's local median time. The raw wall
figures are printed on the line before the JSON. Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 15
IMPORTTIME_REPEATS = 5
# Reference loop size, and its time on an uncontended core of the host the
# benchmark was tuned on (5th percentile over 150 s; 2.1 GHz x86-64 VM,
# Python 3.11). REF_MS only fixes the scale of the normalized times.
REF_POINTS = 900
REF_MS = 0.5
IMPORT_MODULES = ("geometry", "labeling", "objectives", "engine", "baselines", "bench", "trace")

# End-to-end metrics: name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("ops/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "evals_per_op": ("calls", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "optima_found": ("count", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop (floats, tuples, a list)
    that does not touch slmopt."""
    start = time.perf_counter()
    acc = 0.0
    for p in [(i * 0.5, i * 0.25) for i in range(REF_POINTS)]:
        q = tuple(x + 0.125 for x in p)
        acc += q[0] * q[0] + q[1] * q[1]
    return time.perf_counter() - start


def normalize(raw_s: list[float], refs: list[float]) -> list[float]:
    """Each raw time scaled to reference speed. refs[i] is the reference
    time taken just before op i and refs[i + 1] the one just after; the
    median of the six around op i sets its scale."""
    return [t * REF_MS / 1000.0 / statistics.median(refs[max(0, i - 2):i + 4])
            for i, t in enumerate(raw_s)]


def _import_cmd(*flags: str) -> tuple[list[str], dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return [sys.executable, *flags, "-c", "import slmopt"], env


def time_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter running ``import slmopt``:
    raw, and scaled by reference loops timed just before and after."""
    cmd, env = _import_cmd()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode once
    raw, refs = [], [reference_s() for _ in range(3)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - start)
        refs += [reference_s() for _ in range(3)]
    scaled = [t * REF_MS / 1000.0 / statistics.median(refs[3 * i:3 * i + 6])
              for i, t in enumerate(raw)]
    return statistics.median(raw), statistics.median(scaled)


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.<module>_ms self times, the package total and the stdlib
    modules it pulls in, from ``python -X importtime`` output."""
    selfs: dict[str, float] = {}
    total = 0.0
    for line in stderr.splitlines():
        head, _, rest = line.partition(":")
        parts = rest.split("|")
        if head != "import time" or len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        own, cumulative, name = int(parts[0]) / 1000.0, int(parts[1]) / 1000.0, parts[2].strip()
        if name == "slmopt":
            selfs["slmopt"], total = own, cumulative
        elif name.startswith("slmopt."):
            selfs[name[len("slmopt."):]] = own
    out = {f"import.{m}_ms": selfs.get(m, 0.0) for m in ("slmopt",) + IMPORT_MODULES}
    out["import.total_ms"] = total
    out["import.deps_ms"] = total - sum(selfs.values())
    return out


def import_split() -> dict[str, float]:
    cmd, env = _import_cmd("-X", "importtime")
    runs = [parse_importtime(subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                                            capture_output=True, text=True).stderr)
            for _ in range(IMPORTTIME_REPEATS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


class Tally:
    """Latencies, counts and check results of the ops of one run."""

    def __init__(self) -> None:
        self.raw_s: list[float] = []
        self.calls = 0
        self.optima = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, job, outcome, timed: bool = True) -> None:
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems.append(f"{job.key}: {'; '.join(outcome.problems)}")
        if timed:
            self.raw_s.append(outcome.elapsed_s)
            self.calls += outcome.calls
            self.optima += outcome.optima_found


def warm_up(jobs, hooks, tally: Tally) -> str:
    """One untimed pass; returns results_sha over every job's result
    digest, in job-key order so that it depends only on the inputs."""
    from workloads import execute

    digests = []
    with hooks.installed():
        for job in jobs:
            outcome = execute(job, hooks, digest=True)
            tally.add(job, outcome, timed=False)
            digests.append(f"{job.key} {outcome.digest}")
    return hashlib.sha256("\n".join(sorted(digests)).encode()).hexdigest()


def run_untraced(jobs, seconds: float) -> tuple[Tally, list[float], str]:
    """Timed passes with a reference loop before each op and after the
    last; returns the tally, the reference times and results_sha."""
    from workloads import Counting, execute

    hooks, tally = Counting(), Tally()
    sha = warm_up(jobs, hooks, tally)
    with hooks.installed():
        refs = [reference_s()]
        start = time.perf_counter()
        while True:
            for job in jobs:
                tally.add(job, execute(job, hooks))
                refs.append(reference_s())
            if time.perf_counter() - start >= seconds:
                break
    return tally, refs, sha


def run_traced(jobs, seconds: float) -> tuple[Tally, Tally, object, str]:
    """Every op runs untraced, then traced, so both latency samples see
    the same job mix."""
    from spans import Tracer
    from workloads import Counting, execute

    plain, tracer = Counting(), Tracer()
    plain_tally, traced_tally = Tally(), Tally()
    sha = warm_up(jobs, plain, plain_tally)
    start = time.perf_counter()
    while True:
        for job in jobs:
            with plain.installed():
                plain_tally.add(job, execute(job, plain))
            tracer.begin_op()
            with tracer.installed():
                traced_tally.add(job, execute(job, tracer))
            tracer.end_op()
        if time.perf_counter() - start >= seconds:
            break
    return plain_tally, traced_tally, tracer, sha


def latency_metrics(op_s: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(op_s) / sum(op_s),
        "op_ms_p50": 1000.0 * statistics.median(op_s),
        "op_ms_p90": 1000.0 * statistics.quantiles(op_s, n=10)[-1],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("descent", "explore", "report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slmopt" / "__init__.py").is_file():
        print(f"error: no slmopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import slmopt

    if Path(slmopt.__file__).resolve().parent != SRC / "slmopt":
        print(f"error: imported slmopt from {slmopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import make_jobs

    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = make_jobs(args.workload, args.seed, str(workdir))
        if args.trace:
            from spans import PER_LAYER

            imports = import_split()
            plain, traced, tracer, sha = run_traced(jobs, args.seconds)
            tracer.write(str(WORK / f"spans-{args.workload}.jsonl"))
            values = {**tracer.layer_metrics(), **imports}
            values["tracing.overhead_ms"] = 1000.0 * (statistics.median(traced.raw_s)
                                                      - statistics.median(plain.raw_s))
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            tallies = (plain, traced)
            raw_line = ""
        else:
            raw_setup_s, setup_s = time_setup()
            tally, refs, sha = run_untraced(jobs, args.seconds)
            ops = len(tally.raw_s)
            values = {
                **latency_metrics(normalize(tally.raw_s, refs)),
                "evals_per_op": tally.calls / ops,
                "ok_ratio": 1.0 - tally.failed / tally.attempted,
                "optima_found": tally.optima / ops,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
            tallies = (tally,)
            raw = latency_metrics(tally.raw_s)
            raw_line = (f"raw wall: {ops} ops, " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
                        + f", setup_s {raw_setup_s:.6g}, reference loop median "
                        f"{statistics.median(refs) * 1000.0:.6g} ms\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for problem in [p for t in tallies for p in t.problems][:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{raw_line}results_sha {args.workload} seed={args.seed} {sha}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
