"""Every pin on an slm result, and the helpers that compute them.

A pin is a value a run produced that later changes must leave bit for
bit. Each pin is written here and nowhere else; the tests that check
one import it and keep the run's inputs. A change that moves results on
purpose edits this file alone, copying the new values from the failing
cases' diffs, and names each moved field in CHANGES.md.
"""

import hashlib
import os
from typing import NamedTuple


class RunPin(NamedTuple):
    """One slm run: a summary, so that a failing comparison names the
    field that moved, then the digest of the whole run."""

    best_point: tuple[str, ...]  # float.hex of each coordinate
    best_value: str  # float.hex
    evaluations: int
    termination: str
    generations: int  # the last generation index + 1
    candidates: int
    digest: str  # run_digest


def run_digest(res):
    """sha256 of every float, label and box a run produced."""
    parts = [res.best_point, res.best_value, res.termination, res.candidates]
    for g in res.generations:
        parts.append((g.box, g.spacing, g.chosen and g.chosen.box,
                      [(v.point, v.value, v.probe_target, v.label) for v in g.vertices]))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def run_pin(res):
    """The RunPin of a run's RunResult."""
    return RunPin(tuple(map(float.hex, res.best_point)), res.best_value.hex(),
                  res.evaluations, res.termination, res.generations[-1].index + 1,
                  len(res.candidates), run_digest(res))


def manifest_digest(paths):
    """sha256 of the sha256sum lines ("<file sha256>  <name>\\n") of the
    files at paths, in their order."""
    lines = []
    for path in paths:
        with open(path, "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {os.path.basename(path)}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# Each builtin at its default tolerance (bench.default_tolerance), in
# descent and explore-all (cell budget 32). evaluations is the run's
# distinct points, which the store-free reference run must also make.
# trig explore-all (tolerance 14/2**10) is the run whose separated minima
# tests/test_engine.py checks. rosenbrock's and shekel's digests moved
# when probes came from the lattice table: probe targets are now the
# lattice floats, not x + h sums
RUN_PINS = {
    ("sphere_min", False): RunPin(
        ("0x0.0p+0", "0x1.8000000000000p-2"), "0x1.47ae147ae1485p-11",
        372, "tolerance_reached", 11, 0,
        "14bb25d20103ba5efaf458ec7522da15c1bc3bc4f0db9fb9ed07f1b825212b4b"),
    ("sphere_min", True): RunPin(
        ("0x0.0p+0", "0x1.8000000000000p-2"), "0x1.47ae147ae1485p-11",
        2626, "tolerance_reached", 11, 32,
        "aa0eb696e87ef0a9eebfc4216be6b1b85295d35fb2c6b22e0d31c2e507e5799f"),
    ("trig", False): RunPin(
        ("-0x1.8020000000000p+2", "-0x1.c000000000000p+2"), "-0x1.ffffb10b10e81p+0",
        304, "tolerance_reached", 11, 0,
        "81737effffad6d795f9f43a2b73e483aa2940bcacf383587ba5a4bec67b9295d"),
    ("trig", True): RunPin(
        ("-0x1.8020000000000p+2", "-0x1.c000000000000p+2"), "-0x1.ffffb10b10e81p+0",
        6994, "tolerance_reached", 11, 32,
        "7f705f342adcda2d91e881346a94375ce1300c21b8f9892b5916d6a79c01e5b4"),
    ("sphere_max", False): RunPin(
        ("-0x1.0000000000000p+1", "-0x1.0000000000000p+1"), "0x1.3851eb851eb85p+3",
        268, "tolerance_reached", 11, 0,
        "0616b7c1efc00878bd2aa7df119b2ee154b96ce468e16fa0badb5550038d5f27"),
    ("sphere_max", True): RunPin(
        ("-0x1.0000000000000p+1", "-0x1.0000000000000p+1"), "0x1.3851eb851eb85p+3",
        1145, "tolerance_reached", 11, 4,
        "be820cedb8c5a44dd682d6e183f647f3ca494d11d6e5e8c95b66c75ad5f3257d"),
    ("rosenbrock", False): RunPin(
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"), "0x0.0p+0",
        372, "tolerance_reached", 11, 0,
        "041fd5e8bdf0e2bec33e940e3646a9882f7edea3ca015f4b0f88dac544c72c79"),
    ("rosenbrock", True): RunPin(
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"), "0x0.0p+0",
        2612, "tolerance_reached", 11, 31,
        "b7b5088e18042b6477d5e22e0d4a00424e749bbc1acbf5e41b00ed331b194614"),
    ("shekel", False): RunPin(
        ("-0x1.0000000000000p+5", "-0x1.0000000000000p+5"), "0x1.fefa5bf204612p-1",
        372, "tolerance_reached", 11, 0,
        "55d5af45da0d3469952faf847cf20d5456b8b90b36db4be79eaf9064b01c808d"),
    ("shekel", True): RunPin(
        ("-0x1.0000000000000p+5", "-0x1.0000000000000p+5"), "0x1.fefa5bf204612p-1",
        4718, "tolerance_reached", 11, 32,
        "69b1ad433d8ba21ad2da4fe5964158e2d4856a99b888c5d5f13ead016dfad532"),
}


# Shifted-sphere descents at tolerance width/64 on [-2, 2]^n, n = 3 and
# 4, keyed by centre, where every generation after the first labels one
# box's 3**n grid. At each n one centre is inside; the other lies within
# a cell of two domain faces, so the last boxes are flush with them.
SPHERE_PINS = {
    (0.3, -0.7, 1.1): RunPin(
        ("0x1.4000000000000p-2", "-0x1.6000000000000p-1", "0x1.1800000000000p+0"),
        "0x1.70a3d70a3d710p-12", 1529, "tolerance_reached", 7, 0,
        "062a6a9b0026ed4fa3d54f93e449498ab83ddabdb9f9812c9e4a786a575ab5c1"),
    (1.97, -0.4, -1.99): RunPin(
        ("0x1.0000000000000p+1", "-0x1.8000000000000p-2", "-0x1.0000000000000p+1"),
        "0x1.a9fbe76c8b447p-10", 1214, "tolerance_reached", 7, 0,
        "7d806511d2a0d488b4fe3cf82cdfa29b1af5db2d5e437d4341aa00d37f9d3b20"),
    (0.3, -0.7, 1.1, -0.2): RunPin(
        ("0x1.0000000000000p-2", "-0x1.8000000000000p-1", "0x1.2000000000000p+0",
         "-0x1.0000000000000p-3"),
        "0x1.70a3d70a3d70ap-7", 10777, "tolerance_reached", 7, 0,
        "ffded090300e91e782be6494aa3fce86354942ba9f0ea1536a3bf7f114db99b7"),
    (1.97, -0.4, 0.6, -1.99): RunPin(
        ("0x1.0000000000000p+1", "-0x1.0000000000000p-1", "0x1.0000000000000p-1",
         "-0x1.0000000000000p+1"),
        "0x1.5810624dd2f18p-6", 8572, "tolerance_reached", 7, 0,
        "d8218acb973cb9c65d0d2f372fa0b339050f879eeb962b3224a81ccd6a7b4e7c"),
}


# n -> evaluations of a descent at tolerance width/64 on [-2, 2]^n
# centred at (0.1, 0.2, ...). The paper claims O(log_2^n) time: the
# generations grow as log2(width / tol), but the evaluations per
# generation grow about 7x per added dimension
DESCENT_COSTS = {1: 24, 2: 212, 3: 1578, 4: 11120}


# manifest_digest of every file a default-tolerance trace writes, in
# write order, taken before the renderers cached repeated pieces; checked
# in process and against `python -m slmopt.cli trace` run twice into one
# directory, so the second run rewrites every file in place
TRACE_DIGESTS = {
    ("trig", True): "0fb243f24b226e2d473a5ed0249995799cf3217040d0eebece0886820a30909c",
    ("sphere_min", False): "3f11d22312132baf4999e60b53a3d2f397a99c1fa851081d2217e0ddb1f463ac",
}


# sha256 of the stdout of `python -m slmopt.cli` with these arguments.
# shekel explore-all runs label_grid's per-vertex loop on generations of
# several boxes, and every call goes through the Shekel kernel, whose
# operation order the digest holds bit for bit on every interpreter. The
# bench markdown payload has no wall-time column; it was taken when bench
# still ran slm once per seed
STDOUT_DIGESTS = {
    ("optimize", "--function", "shekel", "--explore-all"):
        "6f2887a418e555491a07d6535de08f2bd0bef8490abf7e24dd4c391c3efe0d71",
    ("bench", "--function", "all", "--repeats", "3"):
        "2ee77d9228d5a891a9d543c6dc62c750afcae7defd161cd41dd15948db9b8c63",
}


# sha256 of each payload of `bench --function all --repeats 3`'s matrix,
# every builtin by every method at its defaults, with wall_time_ms zeroed,
# taken when the emitters read rows through dataclasses.asdict; checked in
# process and on the payloads of `python -m slmopt.cli bench`, parsed and
# re-emitted with wall_time_ms zeroed
PAYLOAD_DIGESTS = {
    "csv": "6972193b5a880bbe97822c16cd56b5d66031856e47f8ee4f83119a2e75472c7c",
    "json-lines": "105df2b354c2bd35df7f53d042632f1c61d3ea2f76b1ffd4b88bbda547b18c3a",
}


# (explore_all, n) -> how many of tests/test_reliability.py's seeded
# shifted spheres end more than two tolerances from their minimum: a
# measured fact of the current frontier policy, not a goal
MISSES = {
    (False, 1): 19,
    (False, 2): 40,
    (False, 3): 19,
    (True, 1): 19,
    (True, 2): 38,
    (True, 3): 16,
}
