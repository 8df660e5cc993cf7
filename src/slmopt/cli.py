"""Command-line front end.

Subcommands: optimize, bench, trace, list-functions. A flat key=value
config file (--config) can hold any long flag name without the leading
dashes; explicit flags always win. Diagnostics go to stderr, payload to
stdout or files, exit status is 0 on success and 2 on any error. Every
error, including any exception an objective raises, becomes one
`error: ...` line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .baselines import (
    BaselineConfig,
    random_search,
    random_search_walk,
    simulated_annealing,
)
from .bench import (
    FORMATS,
    AlgorithmSpec,
    BenchSpec,
    default_tolerance,
    emit_table,
    run_bench,
)
from .engine import SlmConfig, run_slm
from .objectives import UnknownObjectiveError, builtin_names, registry_lookup
from .trace import build_trace_document, write_trace

METHODS = ("slm", "rs", "rsw", "sa")
_BASELINES = {
    "rs": random_search,
    "rsw": random_search_walk,
    "sa": simulated_annealing,
}


class CliError(Exception):
    """User-facing error; its message becomes the one-line diagnostic."""


@dataclass(frozen=True)
class CliInvocation:
    subcommand: str
    flags: dict
    config_path: str | None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"not a boolean: {text!r}")


def _parse_point(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"not a comma-separated point: {text!r}") from None


def read_config(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise CliError(f"cannot read config {path}: {e.strerror or e}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"malformed config {path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slmopt",
        description="Derivative-free global optimization by subdividing labeled grids",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    opt = sub.add_parser("optimize", help="run one algorithm on one objective")
    opt.add_argument("--function")
    opt.add_argument("--method", choices=METHODS)
    opt.add_argument("--tol", type=float)
    opt.add_argument("--max-generations", type=int)
    opt.add_argument("--explore-all", action="store_const", const=True)
    opt.add_argument("--iterations", type=int)
    opt.add_argument("--seed", type=int)
    opt.add_argument("--initial")
    opt.add_argument("--config")

    ben = sub.add_parser("bench", help="run the algorithm x objective matrix")
    ben.add_argument("--function", help="comma-separated names, or 'all'")
    ben.add_argument("--method", help="comma-separated subset of slm,rs,rsw,sa")
    ben.add_argument("--repeats", type=int)
    ben.add_argument("--tol", type=float)
    ben.add_argument("--iterations", type=int)
    ben.add_argument("--explore-all", action="store_const", const=True)
    ben.add_argument("--format", choices=FORMATS)
    ben.add_argument("--out")
    ben.add_argument("--config")

    tra = sub.add_parser("trace", help="run the subdivision search with trace capture")
    tra.add_argument("--function")
    tra.add_argument("--tol", type=float)
    tra.add_argument("--max-generations", type=int)
    tra.add_argument("--explore-all", action="store_const", const=True)
    tra.add_argument("--out")
    tra.add_argument("--config")

    sub.add_parser("list-functions", help="print the objective registry")
    return parser


def parse_invocation(argv: Sequence[str]) -> CliInvocation:
    ns = build_parser().parse_args(argv)
    flags = vars(ns).copy()
    sub = flags.pop("subcommand")
    config_path = flags.pop("config", None)
    return CliInvocation(subcommand=sub, flags=flags, config_path=config_path)


class _Options:
    """Flag values backed by the config file where flags are unset."""

    def __init__(self, flags: dict, config: dict[str, str]):
        self.flags = flags
        self.config = config

    def get(self, key: str, cast: Callable | None = None, default=None):
        flag_val = self.flags.get(key.replace("-", "_"))
        if flag_val is not None:
            # argparse already typed numeric flags; strings still need
            # the same parse the config path gets
            if isinstance(flag_val, str) and cast is not None and cast is not str:
                return cast(flag_val)
            return flag_val
        if key in self.config:
            raw = self.config[key]
            try:
                return cast(raw) if cast is not None else raw
            except CliError:
                raise
            except (TypeError, ValueError) as e:
                raise CliError(f"bad config value for {key}: {raw!r} ({e})") from None
        return default


def _lookup(name: str):
    try:
        return registry_lookup(name)
    except UnknownObjectiveError as e:
        raise CliError(str(e.args[0])) from None


def _cmd_optimize(opts: _Options, stdout) -> int:
    function = opts.get("function")
    if function is None:
        raise CliError("optimize needs --function (or a config entry)")
    spec = _lookup(function)
    method = opts.get("method", str, "slm")
    if method not in METHODS:
        raise CliError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")

    lines = [f"objective: {spec.name}", f"method: {method}"]
    if method == "slm":
        cfg = SlmConfig(
            sense=spec.sense,
            tolerance=opts.get("tol", float, default_tolerance(spec)),
            max_generations=opts.get("max-generations", int, 60),
            explore_all=opts.get("explore-all", _parse_bool, False),
        )
        res = run_slm(spec.evaluator, spec.domain, cfg)
        lines += [
            f"best point: {_point_str(res.best_point)}",
            f"best value: {res.best_value!r}",
            f"iterations: {res.generations[-1].index}",
            f"evaluations: {res.evaluations}",
            f"termination: {res.termination}",
        ]
        if cfg.explore_all:
            lines.append("candidates:")
            lines += [
                f"  {_point_str(p)} value {v!r}" for p, v in res.candidates
            ]
    else:
        from .bench import DEFAULT_ITERATIONS

        cfg = BaselineConfig(
            iterations=opts.get("iterations", int, DEFAULT_ITERATIONS[method]),
            seed=opts.get("seed", int, 0),
            initial_point=opts.get("initial", _parse_point),
        )
        res = _BASELINES[method](spec, cfg)
        for note in res.notes:
            print(f"note: {note}", file=sys.stderr)
        lines += [
            f"best point: {_point_str(res.best_point)}",
            f"best value: {res.best_value!r}",
            f"iterations: {cfg.iterations}",
            f"evaluations: {res.evaluations}",
        ]
    print("\n".join(lines), file=stdout)
    return 0


def _point_str(p) -> str:
    parts = []
    for v in p:
        parts.append(str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v))
    return "(" + ", ".join(parts) + ")"


def _cmd_bench(opts: _Options, stdout) -> int:
    raw_fn = opts.get("function", str, "all")
    names = builtin_names() if raw_fn.strip() == "all" else tuple(
        part.strip() for part in raw_fn.split(",") if part.strip()
    )
    raw_methods = opts.get("method", str, ",".join(METHODS))
    methods = tuple(part.strip() for part in raw_methods.split(",") if part.strip())
    for m in methods:
        if m not in METHODS:
            raise CliError(f"unknown method {m!r}; expected a subset of {', '.join(METHODS)}")
    algorithms = tuple(
        AlgorithmSpec(
            kind=m,
            iterations=opts.get("iterations", int) if m != "slm" else None,
            tolerance=opts.get("tol", float) if m == "slm" else None,
            explore_all=opts.get("explore-all", _parse_bool, False) if m == "slm" else False,
        )
        for m in methods
    )
    spec = BenchSpec(
        objectives=names,
        algorithms=algorithms,
        repeats=opts.get("repeats", int, 1),
        output_format=opts.get("format", str, "markdown"),
    )
    try:
        rows = run_bench(spec)
    except UnknownObjectiveError as e:
        raise CliError(str(e.args[0])) from None
    text = emit_table(rows, spec.output_format)
    out_path = opts.get("out")
    if out_path is None:
        stdout.write(text)
        if text and not text.endswith("\n"):
            stdout.write("\n")
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(f"cannot write {out_path}: {e.strerror or e}") from None
    return 0


def _cmd_trace(opts: _Options, stdout) -> int:
    function = opts.get("function")
    if function is None:
        raise CliError("trace needs --function (or a config entry)")
    spec = _lookup(function)
    cfg = SlmConfig(
        sense=spec.sense,
        tolerance=opts.get("tol", float, default_tolerance(spec)),
        max_generations=opts.get("max-generations", int, 60),
        explore_all=opts.get("explore-all", _parse_bool, False),
    )
    res = run_slm(spec.evaluator, spec.domain, cfg)
    doc = build_trace_document(res, spec.name, cfg.tolerance, spec.sense.value)
    directory = opts.get("out", str, "slm-trace")
    try:
        written = write_trace(doc, directory)
    except OSError as e:
        raise CliError(f"cannot write trace to {directory}: {e.strerror or e}") from None
    for path in written:
        print(path, file=stdout)
    return 0


def _cmd_list_functions(stdout) -> int:
    for name in builtin_names():
        spec = registry_lookup(name)
        domain = " x ".join(
            f"[{_num(a)}, {_num(b)}]" for a, b in zip(spec.domain.lo, spec.domain.hi)
        )
        optima = spec.known_optima
        if len(optima) == 1:
            point, value = optima[0]
            summary = f"optimum {_point_str(point)} value {_num(value)}"
        else:
            point, value = optima[0]
            summary = f"{len(optima)} optima incl {_point_str(point)} value {_num(value)}"
        print(f"{spec.name}: {spec.sense.value} on {domain}; {summary}", file=stdout)
    return 0


def _num(v: float) -> str:
    return str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)


def dispatch(invocation: CliInvocation, stdout=None) -> int:
    stdout = stdout or sys.stdout
    try:
        config = read_config(invocation.config_path) if invocation.config_path else {}
        opts = _Options(invocation.flags, config)
        if invocation.subcommand == "optimize":
            return _cmd_optimize(opts, stdout)
        if invocation.subcommand == "bench":
            return _cmd_bench(opts, stdout)
        if invocation.subcommand == "trace":
            return _cmd_trace(opts, stdout)
        if invocation.subcommand == "list-functions":
            return _cmd_list_functions(stdout)
        raise CliError(f"unknown subcommand {invocation.subcommand!r}")
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # an objective may raise anything
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    try:
        invocation = parse_invocation(list(argv) if argv is not None else sys.argv[1:])
    except SystemExit as e:
        return int(e.code or 0)
    return dispatch(invocation)


if __name__ == "__main__":
    sys.exit(main())
