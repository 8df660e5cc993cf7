"""Command-line front end.

Subcommands: optimize, bench, trace, list-functions. build_parser is the
one place that states each flag's type and default; it is built once per
process and never changed. Each flag two subcommands share is declared
once, on an add_help=False parent parser: `shared` (--tol, --explore-all,
--config) for optimize, bench and trace, `one_run` (--function,
--max-generations) for optimize and trace, `baseline` (--iterations) for
optimize and bench. A flat key=value config file (--config) can
hold any long flag name without the leading dashes; each entry acts as a
--key=value flag placed before the command line's flags, so it goes
through the flag's type and choices, and explicit flags always win. A
key that only other subcommands take is ignored, so one file can serve
several subcommands; a key no subcommand takes is an error.
Diagnostics go to stderr, payload to stdout or files, exit status is 0
on success and 2 on any error. Every error, whether a usage error, a bad
config value (named with its file, even if a flag overrides it) or any
exception an objective raises, becomes one `error: ...` line on stderr,
never a usage block or a traceback. --help prints usage to stdout and
exits 0.

optimize and bench run every method through bench.run_method; trace
takes its SlmConfig from bench.slm_config and calls run_slm with it,
because trace.txt's header prints the resolved tolerance.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import Sequence

# cli._BASELINES is the same dict as bench._BASELINE_FNS: nothing here
# calls it, but perfbench's traced runs patch both names.
from .bench import _BASELINE_FNS as _BASELINES  # noqa: F401
from .bench import (
    FORMATS,
    METHODS,
    AlgorithmSpec,
    emit_table,
    run_bench,
    run_method,
    slm_config,
)
from .engine import run_slm
from .geometry import format_box, format_number, format_point
from .objectives import ObjectiveSpec, builtin_names, registry_lookup
from .trace import build_trace_document, write_file, write_trace


class _Parser(argparse.ArgumentParser):
    """Turns every usage error into a ValueError, so it prints as one line.
    add_subparsers builds the subcommand parsers with this class too.

    A value that starts with "-" and a digit, or "-." and a digit, is a
    value, not a flag: argparse's own pattern takes "-1" and "-.5" but
    not the point "-1,2"."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):
        raise ValueError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_point(text: str) -> tuple[float, ...]:
    # argparse keeps an ArgumentTypeError's message and names the flag;
    # a ValueError's message it replaces with "invalid _parse_point value"
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated point: {text!r}") from None


def read_config(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments ignored. A
    leading UTF-8 byte order mark is not part of the first key."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ValueError(f"cannot read config {path}: {e.strerror or e}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config {path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; one object per process, never mutated."""
    parser = _Parser(
        prog="slmopt",
        description="Derivative-free global optimization by subdividing labeled grids",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # optimize, bench, trace
    shared.add_argument("--tol", type=float)
    shared.add_argument("--explore-all", action="store_const", const=True, default=False)
    shared.add_argument("--config")
    one_run = argparse.ArgumentParser(add_help=False)  # optimize, trace
    one_run.add_argument("--function")
    one_run.add_argument("--max-generations", type=int, default=AlgorithmSpec.max_generations)
    baseline = argparse.ArgumentParser(add_help=False)  # optimize, bench
    baseline.add_argument("--iterations", type=int)

    opt = sub.add_parser("optimize", parents=[shared, one_run, baseline],
                         help="run one algorithm on one objective")
    opt.add_argument("--method", choices=METHODS, default="slm")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--initial", type=_parse_point)

    ben = sub.add_parser("bench", parents=[shared, baseline],
                         help="run the algorithm x objective matrix")
    ben.add_argument("--function", default="all",
                     help="comma-separated names; 'all' adds the builtins")
    ben.add_argument("--method", default=",".join(METHODS),
                     help="comma-separated subset of slm,rs,rsw,sa")
    ben.add_argument("--repeats", type=int, default=1)
    ben.add_argument("--format", choices=FORMATS, default="markdown")
    ben.add_argument("--out")

    tra = sub.add_parser("trace", parents=[shared, one_run],
                         help="run the subdivision search with trace capture")
    tra.add_argument("--out", default="slm-trace")

    sub.add_parser("list-functions", help="print the objective registry")
    return parser


def _config_keys(ns: argparse.Namespace) -> set[str]:
    """The config keys a parsed subcommand has flags for; --config and
    --help are never read from a file."""
    return {dest.replace("_", "-") for dest in vars(ns)} - {"subcommand", "config"}


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv; with --config, parse again with the file's entries as
    --key=value flags between the subcommand and the command line's
    flags. Argparse keeps a flag's last value, so flags win, and every
    entry goes through its flag's type and choices even when a flag
    overrides it. Keys only other subcommands have flags for are
    ignored; a key no subcommand has a flag for is an error."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    path = getattr(ns, "config", None)
    if path is None:
        return ns
    config = read_config(path)
    known = set().union(*(_config_keys(parser.parse_args([name])) for name in _COMMANDS))
    for key in config:
        if key not in known:
            raise ValueError(f"unknown config key {key!r} in {path}")
    flags = _config_keys(ns)
    entries = {key: value for key, value in config.items() if key in flags}
    try:
        tokens = [f"--{key}={value}" for key, value in entries.items() if key != "explore-all"]
        if "explore-all" in entries and _parse_bool(entries["explore-all"]):
            tokens.append("--explore-all")  # a store_const flag takes no value
        # argv[0] is the subcommand; the flags parsed once already, so
        # any error here is the file's
        return parser.parse_args([argv[0], *tokens, *argv[1:]])
    except ValueError as e:
        raise ValueError(f"bad config value in {path}: {e}") from None


def _algorithm(ns: argparse.Namespace, kind: str) -> AlgorithmSpec:
    """The AlgorithmSpec for one method, from that method's flags only;
    AlgorithmSpec rejects --initial for a method that does not read it.
    bench has no --max-generations or --initial flag."""
    initial = getattr(ns, "initial", None)
    if kind == "slm":
        return AlgorithmSpec(kind, tolerance=ns.tol, explore_all=ns.explore_all,
                             max_generations=getattr(ns, "max_generations",
                                                     AlgorithmSpec.max_generations),
                             initial_point=initial)
    return AlgorithmSpec(kind, iterations=ns.iterations, initial_point=initial)


def _objective(ns: argparse.Namespace) -> ObjectiveSpec:
    if ns.function is None:
        raise ValueError(f"{ns.subcommand} needs --function (or a config entry)")
    return registry_lookup(ns.function)


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _cmd_optimize(ns: argparse.Namespace) -> int:
    spec = _objective(ns)
    algo = _algorithm(ns, ns.method)
    res, iterations = run_method(spec, algo, ns.seed)
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
    print("\n".join(lines))
    return 0


def _cmd_bench(ns: argparse.Namespace) -> int:
    # 'all' stands for the builtins where it appears; a name or method
    # given twice runs once, at its first position
    names = (name for part in _names(ns.function)
             for name in (builtin_names() if part == "all" else (part,)))
    algorithms = [_algorithm(ns, kind) for kind in dict.fromkeys(_names(ns.method))]
    rows = run_bench(list(dict.fromkeys(names)), algorithms, ns.repeats)
    text = emit_table(rows, ns.format)
    if ns.out is None:
        sys.stdout.write(text)
    else:
        try:
            write_file(ns.out, text)
        except OSError as e:
            raise ValueError(f"cannot write {ns.out}: {e.strerror or e}") from None
    return 0


def _cmd_trace(ns: argparse.Namespace) -> int:
    spec = _objective(ns)
    cfg = slm_config(spec, _algorithm(ns, "slm"))
    res = run_slm(spec.evaluator, spec.domain, cfg)
    files = build_trace_document(res, spec.name, cfg.tolerance, spec.sense.value)
    try:
        written = write_trace(files, ns.out)
    except OSError as e:
        raise ValueError(f"cannot write trace to {ns.out}: {e.strerror or e}") from None
    for path in written:
        print(path)
    return 0


def _cmd_list_functions(ns: argparse.Namespace) -> int:
    for name in builtin_names():
        spec = registry_lookup(name)
        point, value = spec.known_optima[0]
        count = len(spec.known_optima)
        which = "optimum" if count == 1 else f"{count} optima incl"
        print(f"{spec.name}: {spec.sense.value} on {format_box(spec.domain)}; "
              f"{which} {format_point(point)} value {format_number(value)}")
    return 0


_COMMANDS = {
    "optimize": _cmd_optimize,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "list-functions": _cmd_list_functions,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[ns.subcommand](ns)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # any other failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
