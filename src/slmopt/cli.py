"""Command-line front end.

Subcommands: optimize, bench, trace, list-functions. A flat key=value
config file (--config) can hold any long flag name without the leading
dashes; explicit flags always win. Diagnostics go to stderr, payload to
stdout or files, exit status is 0 on success and 2 on any error. Every
error, including any exception an objective raises, becomes one
`error: ...` line on stderr, never a traceback.

optimize and bench run every method through bench.run_method; trace
takes its SlmConfig from bench.slm_config and calls run_slm itself,
because it draws the full per-generation record.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

# cli._BASELINES is the same dict as bench._BASELINE_FNS: nothing here
# calls it, but perfbench's traced runs patch both names.
from .bench import _BASELINE_FNS as _BASELINES  # noqa: F401
from .bench import (
    FORMATS,
    METHODS,
    AlgorithmSpec,
    BenchSpec,
    emit_table,
    run_bench,
    run_method,
    slm_config,
)
from .engine import run_slm
from .geometry import format_box, format_number, format_point
from .objectives import ObjectiveSpec, UnknownObjectiveError, builtin_names, registry_lookup
from .trace import build_trace_document, write_trace


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
    """Flag values backed by the config file where flags are unset. A key
    the subcommand has no flag for reads as unset, config entry or not."""

    def __init__(self, flags: dict, config: dict[str, str]):
        self.flags = flags
        self.config = config

    def get(self, key: str, cast: Callable | None = None, default=None):
        name = key.replace("-", "_")
        if name not in self.flags:
            return default
        flag_val = self.flags[name]
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
            except (TypeError, ValueError) as e:
                raise CliError(f"bad config value for {key}: {raw!r} ({e})") from None
        return default


def _algorithm(opts: _Options, kind: str) -> AlgorithmSpec:
    """The AlgorithmSpec for one method, from that method's flags only."""
    if kind == "slm":
        return AlgorithmSpec(
            kind,
            tolerance=opts.get("tol", float),
            max_generations=opts.get("max-generations", int, AlgorithmSpec.max_generations),
            explore_all=opts.get("explore-all", _parse_bool, False),
        )
    return AlgorithmSpec(
        kind,
        iterations=opts.get("iterations", int),
        initial_point=opts.get("initial", _parse_point),
    )


def _objective(opts: _Options, command: str) -> ObjectiveSpec:
    function = opts.get("function")
    if function is None:
        raise CliError(f"{command} needs --function (or a config entry)")
    return registry_lookup(function)


def _cmd_optimize(opts: _Options, stdout) -> int:
    spec = _objective(opts, "optimize")
    algo = _algorithm(opts, opts.get("method", str, "slm"))
    seed = 0 if algo.kind == "slm" else opts.get("seed", int, 0)
    res, iterations = run_method(spec, algo, seed)
    lines = [
        f"objective: {spec.name}",
        f"method: {algo.kind}",
        f"best point: {format_point(res.best_point)}",
        f"best value: {res.best_value!r}",
        f"iterations: {iterations}",
        f"evaluations: {res.evaluations}",
    ]
    if algo.kind == "slm":
        lines.append(f"termination: {res.termination}")
        if algo.explore_all:
            lines.append("candidates:")
            lines += [f"  {format_point(p)} value {v!r}" for p, v in res.candidates]
    else:
        for note in res.notes:
            print(f"note: {note}", file=sys.stderr)
    print("\n".join(lines), file=stdout)
    return 0


def _cmd_bench(opts: _Options, stdout) -> int:
    raw_fn = opts.get("function", str, "all")
    names = builtin_names() if raw_fn.strip() == "all" else tuple(
        part.strip() for part in raw_fn.split(",") if part.strip()
    )
    raw_methods = opts.get("method", str, ",".join(METHODS))
    spec = BenchSpec(
        objectives=names,
        algorithms=tuple(_algorithm(opts, part.strip())
                         for part in raw_methods.split(",") if part.strip()),
        repeats=opts.get("repeats", int, 1),
        output_format=opts.get("format", str, "markdown"),
    )
    text = emit_table(run_bench(spec), spec.output_format)
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
    spec = _objective(opts, "trace")
    cfg = slm_config(spec, _algorithm(opts, "slm"))
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
        point, value = spec.known_optima[0]
        count = len(spec.known_optima)
        which = "optimum" if count == 1 else f"{count} optima incl"
        print(f"{spec.name}: {spec.sense.value} on {format_box(spec.domain)}; "
              f"{which} {format_point(point)} value {format_number(value)}", file=stdout)
    return 0


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
    except UnknownObjectiveError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
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
