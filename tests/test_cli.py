"""Command-line front end: flags, config files, payload/diagnostic split."""

import argparse
import hashlib
import math
import os
import re
import subprocess
import sys

import pytest

import slmopt
from slmopt.cli import _parse_point, build_parser, main, read_config
from slmopt.geometry import SearchBox, format_point
from slmopt.labeling import Sense
from slmopt.objectives import (
    ObjectiveSpec,
    builtin_names,
    register_objective,
)

from bench_reference import mask_wall_time, parse_csv, parse_json_lines
from pins import STDOUT_DIGESTS, TRACE_DIGESTS, manifest_digest

# child interpreters import the same slmopt as this one, installed or not
SRC_DIR = os.path.dirname(os.path.dirname(slmopt.__file__))
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC_DIR, os.environ.get("PYTHONPATH"))))}

SPHERE_LINE = "sphere_min: minimize on [-2, 2] x [-2, 2]; optimum (0, 0.4) value 0"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

def test_read_config_parses_flat_keys(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment\n"
        "\n"
        "function = sphere_min\n"
        "tol=0.25\n"
        "explore-all = true\n"
    )
    assert read_config(str(path)) == {
        "function": "sphere_min", "tol": "0.25", "explore-all": "true",
    }


def test_read_config_missing_file_names_the_path():
    with pytest.raises(ValueError) as err:
        read_config("/definitely/missing.conf")
    assert "/definitely/missing.conf" in str(err.value)


def test_read_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("function sphere_min\n")
    with pytest.raises(ValueError) as err:
        read_config(str(path))
    assert "line 1" in str(err.value)


def test_config_with_a_byte_order_mark_keeps_its_first_entry(tmp_path, capsys):
    # editors such as Notepad start a UTF-8 file with a BOM; it is not part
    # of the first key, so tol = 0.5 still applies
    text = "tol = 0.5\nfunction = sphere_min\n"
    plain, marked = tmp_path / "plain.conf", tmp_path / "marked.conf"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    ran = [run_cli(capsys, "optimize", "--config", str(path)) for path in (plain, marked)]
    assert ran[0][0] == 0 and ran[0][1] == ran[1][1]


# ---------------------------------------------------------------------------
# list-functions
# ---------------------------------------------------------------------------

def test_list_functions(capsys):
    rc, out, err = run_cli(capsys, "list-functions")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == SPHERE_LINE
    assert [ln.split(":")[0] for ln in lines] == [
        "sphere_min", "trig", "sphere_max", "rosenbrock", "shekel",
    ]


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_slm_default(capsys):
    rc, out, err = run_cli(capsys, "optimize", "--function", "sphere_min",
                           "--tol", "0.0625")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "objective: sphere_min"
    assert lines[1] == "method: slm"
    assert lines[2] == "best point: (0, 0.375)"
    assert "iterations: 6" in lines
    assert "termination: tolerance_reached" in lines


def test_optimize_explore_all_lists_candidates(capsys):
    rc, out, _ = run_cli(capsys, "optimize", "--function", "trig",
                         "--tol", "0.875", "--explore-all")
    assert rc == 0
    assert "candidates:" in out
    assert out.count("value") >= 2


def test_optimize_baseline_is_seed_deterministic(capsys):
    args = ("optimize", "--function", "sphere_min", "--method", "rs",
            "--iterations", "200", "--seed", "9")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "evaluations: 200" in out1


def test_optimize_clamp_note_goes_to_stderr(capsys):
    rc, out, err = run_cli(capsys, "optimize", "--function", "sphere_min",
                           "--method", "rsw", "--iterations", "10",
                           "--seed", "0", "--initial", "14.0356,14.0356")
    assert rc == 0
    assert "clamped" in err
    assert "clamped" not in out


def test_optimize_bad_initial_flag(capsys):
    rc, out, err = run_cli(capsys, "optimize", "--function", "sphere_min",
                           "--method", "rs", "--iterations", "5",
                           "--initial", "1.0;2.0")
    assert rc == 2 and out == ""
    assert err == "error: argument --initial: not a comma-separated point: '1.0;2.0'\n"


@pytest.mark.parametrize("point", ("-1,2", "-.5,-7", "-0,3"))
def test_optimize_initial_may_start_with_a_minus(point, capsys):
    # a separate argument that starts with "-" and a digit is the flag's value
    args = ("optimize", "--function", "trig", "--method", "rsw", "--iterations", "20")
    rc, out, err = run_cli(capsys, *args, "--initial", point)
    assert (rc, err) == (0, "")
    assert (rc, out, err) == run_cli(capsys, *args, f"--initial={point}")


def test_optimize_requires_function(capsys):
    rc, out, err = run_cli(capsys, "optimize")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--function" in err


def test_optimize_unknown_function(capsys):
    rc, out, err = run_cli(capsys, "optimize", "--function", "nope")
    assert (rc, out) == (2, "")
    assert err == ("error: unknown objective 'nope'; available: sphere_min, trig, "
                   "sphere_max, rosenbrock, shekel\n")


def _raising_objective():
    name = "test_raising_xyzzy"
    register_objective(ObjectiveSpec(
        name=name,
        domain=SearchBox((0.0,), (1.0,)),
        sense=Sense.MINIMIZE,
        known_optima=(((0.5,), 0.0),),
        evaluator=lambda p: 1.0 / 0.0,
    ))
    return name


@pytest.mark.usefixtures("scratch_registry")
@pytest.mark.parametrize("argv", (
    ("optimize",),
    ("optimize", "--method", "sa"),
    ("bench", "--method", "slm,rs"),
    ("trace", "--out", "{tmp}"),
))
def test_raising_objective_is_one_line_error(argv, tmp_path, capsys):
    # slm's first call is the corner (0,), sa's the first seeded draw
    rc, out, err = run_cli(capsys, argv[0], "--function", _raising_objective(),
                           *(a.format(tmp=tmp_path) for a in argv[1:]))
    point = "(0.8444218515250481,)" if "sa" in argv else "(0.0,)"
    assert rc == 2 and out == ""
    assert err == ("error: objective raised ZeroDivisionError: float division by zero "
                   f"at {point} at evaluation 1\n")


def _non_finite_objective(bad):
    """Register a 1-D objective that returns bad on its first call
    (nan) or on every call (inf); returns its name."""
    calls = []

    def f(p):
        calls.append(p)
        return bad if math.isinf(bad) or len(calls) == 1 else p[0]

    name = "test_non_finite"
    register_objective(ObjectiveSpec(
        name=name,
        domain=SearchBox((0.0,), (1.0,)),
        sense=Sense.MINIMIZE,
        known_optima=(((0.0,), 0.0),),
        evaluator=f,
    ))
    return name


@pytest.mark.usefixtures("scratch_registry")
@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("method", ("slm", "rs", "rsw", "sa"))
def test_non_finite_value_is_one_line_error(method, bad, capsys):
    rc, out, err = run_cli(capsys, "optimize", "--function", _non_finite_objective(bad),
                           "--method", method)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: objective returned {bad!r} at (") and err.count("\n") == 1
    assert err.endswith(") at evaluation 1\n")


@pytest.mark.parametrize("argv", (("optimize",), ("trace", "--out", "{tmp}")))
def test_infinite_tolerance_is_one_line_error(argv, tmp_path, capsys):
    rc, out, err = run_cli(capsys, argv[0], "--function", "trig", "--tol", "inf",
                           *(a.format(tmp=tmp_path) for a in argv[1:]))
    assert rc == 2 and out == ""
    assert err == "error: tolerance must be positive and finite\n"


@pytest.mark.parametrize("method", ("rsw", "sa"))
def test_nan_initial_point_is_one_line_error(method, capsys):
    rc, out, err = run_cli(capsys, "optimize", "--function", "trig",
                           "--method", method, "--initial", "nan,nan")
    assert rc == 2 and out == ""
    assert err == "error: initial point (nan, nan) has a NaN coordinate\n"


@pytest.mark.parametrize("method", ("rsw", "sa"))
def test_wrong_dimension_initial_point_is_one_line_error(method, capsys):
    rc, out, err = run_cli(capsys, "optimize", "--function", "sphere_min",
                           "--method", method, "--initial", "1")
    assert rc == 2 and out == ""
    assert err == "error: initial point (1.0,) is 1-D; sphere_min is 2-D\n"


@pytest.mark.parametrize("method, initial", (("slm", "1,2,3"), ("rs", "1"), ("rs", "nan,nan")))
def test_initial_is_an_error_for_methods_that_ignore_it(method, initial, capsys):
    rc, out, err = run_cli(capsys, "optimize", "--function", "sphere_min", "--tol", "0.5",
                           "--method", method, "--initial", initial)
    assert rc == 2 and out == ""
    assert err == f"error: {method} takes no initial point; only rsw and sa start from one\n"


def test_flags_override_config(tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text("function = trig\nmethod = rs\niterations = 30\nseed = 4\n")
    rc, out, _ = run_cli(capsys, "optimize", "--config", str(path),
                         "--function", "sphere_min")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "objective: sphere_min"  # flag beat the config
    assert lines[1] == "method: rs"             # config filled the gap
    assert "iterations: 30" in lines


@pytest.mark.parametrize("argv", (
    ("optimize", "--tol", "abc"),
    ("bench", "--format", "yaml"),
    ("optimize", "--bogus", "1"),
    (),
))
def test_usage_error_is_one_line(argv, capsys):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("subcommand, entry, message", (
    ("optimize", "iterations = soon", "argument --iterations: invalid int value: 'soon'"),
    ("optimize", "tol = abc", "argument --tol: invalid float value: 'abc'"),
    ("optimize", "initial = 1;2", "argument --initial: not a comma-separated point: '1;2'"),
    ("trace", "explore-all = maybe", "not a boolean: 'maybe'"),
    ("bench", "repeats = two", "argument --repeats: invalid int value: 'two'"),
    ("optimize", "method = newton",
     "argument --method: invalid choice: 'newton' (choose from 'slm', 'rs', 'rsw', 'sa')"),
    ("bench", "format = yaml",
     "argument --format: invalid choice: 'yaml' (choose from 'markdown', 'csv', 'json-lines')"),
))
def test_bad_config_value_is_one_line_naming_the_file(subcommand, entry, message,
                                                      tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text(f"function = sphere_min\n{entry}\n")
    rc, out, err = run_cli(capsys, subcommand, "--config", str(path))
    assert rc == 2 and out == ""
    assert err == f"error: bad config value in {path}: {message}\n"


@pytest.mark.parametrize("subcommand, entry, flag", (
    ("optimize", "iterations = soon", ("--iterations", "30")),
    ("optimize", "method = newton", ("--method", "rs")),
    ("bench", "format = yaml", ("--format", "csv")),
    ("trace", "explore-all = maybe", ("--explore-all",)),
))
def test_bad_config_value_is_an_error_even_when_a_flag_overrides_it(subcommand, entry, flag,
                                                                    tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text(f"function = sphere_min\n{entry}\n")
    rc, out, err = run_cli(capsys, subcommand, "--config", str(path), *flag)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: bad config value in {path}: ") and err.count("\n") == 1


def test_config_does_not_leak_into_a_later_run(tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text("method = rs\niterations = 30\nseed = 4\ntol = 0.5\n")
    argv = ("optimize", "--function", "sphere_min")
    plain = run_cli(capsys, *argv)
    configured = run_cli(capsys, *argv, "--config", str(path))
    assert configured[0] == 0 and configured != plain
    assert run_cli(capsys, *argv) == plain


def test_parser_is_built_once_and_not_at_import():
    assert build_parser() is build_parser()
    proc = subprocess.run(
        [sys.executable, "-c",
         "from slmopt.cli import build_parser; print(build_parser.cache_info().currsize)"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0 and proc.stdout == "0\n"


# Each subcommand's flags as the parser stated them when every subcommand
# declared its own: option string -> (dest, type, default, choices, const).
_HELP = ("help", None, argparse.SUPPRESS, None, None)
_METHODS = ("slm", "rs", "rsw", "sa")
FLAG_TABLE = {
    "optimize": [
        ("-h", _HELP), ("--help", _HELP),
        ("--function", ("function", None, None, None, None)),
        ("--method", ("method", None, "slm", _METHODS, None)),
        ("--tol", ("tol", float, None, None, None)),
        ("--max-generations", ("max_generations", int, 60, None, None)),
        ("--explore-all", ("explore_all", None, False, None, True)),
        ("--iterations", ("iterations", int, None, None, None)),
        ("--seed", ("seed", int, 0, None, None)),
        ("--initial", ("initial", _parse_point, None, None, None)),
        ("--config", ("config", None, None, None, None)),
    ],
    "bench": [
        ("-h", _HELP), ("--help", _HELP),
        ("--function", ("function", None, "all", None, None)),
        ("--method", ("method", None, "slm,rs,rsw,sa", None, None)),
        ("--repeats", ("repeats", int, 1, None, None)),
        ("--tol", ("tol", float, None, None, None)),
        ("--iterations", ("iterations", int, None, None, None)),
        ("--explore-all", ("explore_all", None, False, None, True)),
        ("--format", ("format", None, "markdown", ("markdown", "csv", "json-lines"), None)),
        ("--out", ("out", None, None, None, None)),
        ("--config", ("config", None, None, None, None)),
    ],
    "trace": [
        ("-h", _HELP), ("--help", _HELP),
        ("--function", ("function", None, None, None, None)),
        ("--tol", ("tol", float, None, None, None)),
        ("--max-generations", ("max_generations", int, 60, None, None)),
        ("--explore-all", ("explore_all", None, False, None, True)),
        ("--out", ("out", None, "slm-trace", None, None)),
        ("--config", ("config", None, None, None, None)),
    ],
}


def test_every_subcommand_keeps_its_flag_table():
    """Parent parsers share flags among subcommands; each subcommand must
    still see every flag once, with its type, default, choices and const,
    and bench must not gain --max-generations or --initial."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, expected in FLAG_TABLE.items():
        table = [(s, (a.dest, a.type, a.default, a.choices, a.const))
                 for a in sub.choices[name]._actions for s in a.option_strings]
        assert sorted(table, key=lambda entry: entry[0]) == \
            sorted(expected, key=lambda entry: entry[0]), name
    assert set(sub.choices) == {"optimize", "bench", "trace", "list-functions"}


def test_bad_config_value_reports_key(tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text("function = sphere_min\nmethod = rs\niterations = soon\n")
    rc, _, err = run_cli(capsys, "optimize", "--config", str(path))
    assert rc == 2
    assert "iterations" in err


@pytest.mark.parametrize("function", ("sphere_min", "trig"))
@pytest.mark.parametrize("method", ("slm", "rs", "rsw", "sa"))
def test_optimize_matches_the_bench_row(method, function, capsys):
    rc, out, _ = run_cli(capsys, "optimize", "--function", function,
                         "--method", method, "--seed", "0")
    assert rc == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    rc, text, _ = run_cli(capsys, "bench", "--function", function,
                          "--method", method, "--format", "csv")
    assert rc == 0
    [row] = parse_csv(text)
    assert row.seed == 0
    assert fields["best point"] == format_point(row.found_point)
    assert fields["best value"] == repr(row.found_value)
    assert fields["iterations"] == str(row.iterations)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_csv_payload_parses(capsys):
    rc, out, err = run_cli(capsys, "bench", "--function", "sphere_min",
                           "--method", "rs", "--iterations", "40",
                           "--repeats", "2", "--format", "csv")
    assert rc == 0 and err == ""
    rows = parse_csv(out)
    assert [(r.algorithm, r.seed) for r in rows] == [("rs", 0), ("rs", 1)]


def test_bench_markdown_default(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--function", "sphere_min",
                         "--method", "slm", "--tol", "0.25")
    assert rc == 0
    assert out.splitlines()[0] == "## sphere_min"
    assert "| Algorithm | Iterations | Optimal point | Deviation |" in out


def test_bench_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.md"
    rc, out, _ = run_cli(capsys, "bench", "--function", "rosenbrock",
                         "--method", "slm", "--tol", "0.5",
                         "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().startswith("## rosenbrock")


def test_bench_out_replaces_a_longer_file(tmp_path, capsys):
    argv = ("bench", "--function", "sphere_min", "--method", "slm", "--tol", "0.5")
    rc, payload, _ = run_cli(capsys, *argv)
    assert rc == 0
    target = tmp_path / "table.md"
    target.write_bytes(b"an older, longer table\n" * 200)
    rc, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (rc, out, err) == (0, "", "")
    assert target.read_bytes() == payload.encode("utf-8")


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_bench_out_to_dev_null(capsys):
    # /dev/null cannot be truncated; the writer leaves it as it is
    rc, out, err = run_cli(capsys, "bench", "--function", "sphere_min",
                           "--method", "slm", "--tol", "0.5", "--out", "/dev/null")
    assert (rc, out, err) == (0, "", "")


def test_bench_out_to_missing_directory_is_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.md"
    rc, out, err = run_cli(capsys, "bench", "--function", "sphere_min",
                           "--method", "slm", "--tol", "0.5", "--out", str(target))
    assert rc == 2 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("flag", ("--method", "--function"))
def test_bench_empty_matrix_is_one_line_error(flag, capsys):
    rc, out, err = run_cli(capsys, "bench", flag, ",")
    assert rc == 2 and out == ""
    assert err.startswith("error: bench needs at least one ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, message", (
    ("--function=", "bench needs at least one objective"),
    ("--method=", "bench needs at least one method"),
    ("--repeats=0", "repeats must be at least 1"),
    ("--iterations=0", "iterations must be at least 1"),
    ("--tol=-1", "tolerance must be positive and finite"),
))
def test_bench_input_error_stops_before_any_run(flag, message, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("a method ran")

    monkeypatch.setattr(slmopt.bench, "run_method", no_run)
    rc, out, err = run_cli(capsys, "bench", flag)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_other_exception_is_one_line_naming_its_type(capsys, monkeypatch):
    # main's last-resort branch: a failure that is not a ValueError
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(slmopt.cli, "run_bench", boom)
    rc, out, err = run_cli(capsys, "bench", "--function", "sphere_min")
    assert (rc, out, err) == (2, "", "error: RuntimeError: boom\n")


@pytest.mark.usefixtures("scratch_registry")
def test_bench_objective_without_optimum_is_one_line_error(capsys, monkeypatch):
    # checked with the names, before any method runs on any objective
    calls = []
    name = "test_no_optimum_cli_xyzzy"
    register_objective(ObjectiveSpec(
        name=name,
        domain=SearchBox((0.0,), (1.0,)),
        sense=Sense.MINIMIZE,
        known_optima=(),
        evaluator=lambda p: calls.append(p) or p[0],
    ))

    def no_run(*args):
        raise AssertionError("a method ran")

    monkeypatch.setattr(slmopt.bench, "run_method", no_run)
    rc, out, err = run_cli(capsys, "bench", "--function", f"all,{name}")
    assert (rc, out, calls) == (2, "", [])
    assert err == f"error: objective '{name}' has no known optimum to measure deviation from\n"


def _far_objective():
    """A 1-D objective on [-1e200, 1e200]; found points lie farther than
    1.3e154 from its optimum, where (a - b) ** 2 overflows."""
    name = "test_far_optimum_xyzzy"
    register_objective(ObjectiveSpec(
        name=name,
        domain=SearchBox((-1e200,), (1e200,)),
        sense=Sense.MINIMIZE,
        known_optima=(((1e199,), 0.0),),
        evaluator=lambda p: abs(p[0] - 1e199),
    ))
    return name


@pytest.mark.usefixtures("scratch_registry")
def test_bench_deviation_on_the_widest_scale(capsys):
    rc, out, err = run_cli(capsys, "bench", "--function", _far_objective(),
                           "--method", "slm,rs", "--format", "json-lines")
    assert rc == 0 and err == ""
    rows = parse_json_lines(out)
    assert [r.algorithm for r in rows] == ["slm", "rs"]
    for r in rows:
        assert r.deviation == (abs(r.found_point[0] - 1e199),)


@pytest.mark.usefixtures("scratch_registry")
@pytest.mark.parametrize("functions, expected", (
    ("all,{far}", builtin_names() + ("{far}",)),
    ("shekel,all", ("shekel", "sphere_min", "trig", "sphere_max", "rosenbrock")),
    ("trig,sphere_min,trig", ("trig", "sphere_min")),
))
def test_bench_function_list_expands_all_and_runs_each_name_once(functions, expected, capsys):
    far = _far_objective()
    rc, out, err = run_cli(capsys, "bench", "--function", functions.format(far=far),
                           "--method", "rs", "--iterations", "3", "--format", "json-lines")
    assert rc == 0 and err == ""
    assert [r.objective for r in parse_json_lines(out)] == [
        name.format(far=far) for name in expected]


@pytest.mark.parametrize("methods, expected", (
    ("slm,slm,rs", ("slm", "rs")),
    ("rs,slm,rs,sa,slm", ("rs", "slm", "sa")),
))
def test_bench_method_list_runs_each_method_once(methods, expected, capsys):
    rc, out, err = run_cli(capsys, "bench", "--function", "sphere_min", "--method", methods,
                           "--iterations", "3", "--tol", "0.5", "--format", "json-lines")
    assert rc == 0 and err == ""
    assert [r.algorithm for r in parse_json_lines(out)] == list(expected)


def test_bench_unknown_method(capsys):
    rc, _, err = run_cli(capsys, "bench", "--method", "slm,magic")
    assert rc == 2
    assert "unknown method 'magic'" in err


def test_bench_missing_config_file(capsys):
    rc, out, err = run_cli(capsys, "bench", "--config", "missing.conf")
    assert rc == 2 and out == ""
    assert "missing.conf" in err


def test_bench_ignores_config_keys_it_has_no_flag_for(tmp_path, capsys):
    # optimize and trace take these; a shared config must not change bench
    path = tmp_path / "run.conf"
    path.write_text("max-generations = 1\ninitial = 1,1\nseed = 5\n")
    argv = ("bench", "--function", "sphere_min", "--method", "slm,rsw",
            "--iterations", "30", "--format", "json-lines")
    _, plain, _ = run_cli(capsys, *argv)
    rc, configured, _ = run_cli(capsys, *argv, "--config", str(path))
    assert rc == 0
    assert mask_wall_time(parse_json_lines(configured)) == mask_wall_time(parse_json_lines(plain))


def test_a_config_shared_between_subcommands_runs_each(tmp_path, capsys):
    # format is bench's flag only, and optimize ignores it
    path = tmp_path / "run.conf"
    path.write_text("format = csv\ntol = 0.5\n")
    optimize = ("optimize", "--function", "sphere_min")
    assert run_cli(capsys, *optimize, "--config", str(path)) == \
        run_cli(capsys, *optimize, "--tol", "0.5")
    bench = ("bench", "--function", "sphere_min", "--method", "slm,rs", "--iterations", "30")
    rc, configured, err = run_cli(capsys, *bench, "--config", str(path))
    _, flagged, _ = run_cli(capsys, *bench, "--format", "csv", "--tol", "0.5")
    assert (rc, err) == (0, "")
    assert mask_wall_time(parse_csv(configured)) == mask_wall_time(parse_csv(flagged))


@pytest.mark.parametrize("key", ("tols", "config", "help"))
def test_a_config_key_no_subcommand_takes_is_an_error(key, tmp_path, capsys):
    # a typo is not ignored; a file's --config or --help is never applied
    path = tmp_path / "run.conf"
    path.write_text(f"{key} = 0.5\nfunction = sphere_min\n")
    assert run_cli(capsys, "optimize", "--config", str(path)) == \
        (2, "", f"error: unknown config key {key!r} in {path}\n")


def test_bench_payload_is_byte_deterministic(capsys):
    args = ("bench", "--function", "sphere_min,rosenbrock",
            "--method", "slm,rs,sa", "--iterations", "60",
            "--tol", "0.125", "--repeats", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "t"
    rc, out, err = run_cli(capsys, "trace", "--function", "sphere_min",
                           "--tol", "0.5", "--out", str(out_dir))
    assert rc == 0 and err == ""
    paths = out.splitlines()
    assert paths[0].endswith("trace.txt")
    assert all((out_dir / p.split("/")[-1]).exists() for p in paths)
    assert (out_dir / "gen-0.svg").exists()


def test_trace_out_onto_a_file_is_one_line_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    rc, out, err = run_cli(capsys, "trace", "--function", "sphere_min",
                           "--tol", "0.5", "--out", str(taken))
    assert rc == 2 and out == ""
    assert err == f"error: cannot write trace to {taken}: File exists\n"


def test_trace_explore_all_via_config(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    out_dir = tmp_path / "t"
    conf.write_text("function = trig\ntol = 1.75\nexplore-all = yes\nout = %s\n"
                    % out_dir)
    rc, out, _ = run_cli(capsys, "trace", "--config", str(conf))
    assert rc == 0
    names = [p.split("/")[-1] for p in out.splitlines()]
    assert any("-1.svg" in n for n in names)  # duplicate generation index


# ---------------------------------------------------------------------------
# Config entries act like flags
# ---------------------------------------------------------------------------

_WALL_TIME = re.compile(r'"wall_time_ms": [^,}]+')

# (subcommand, base argv, key, value); a value of None is the bare flag
# --key against the config entry key = true
CONFIG_CASES = (
    ("optimize", ("--function", "trig"), "tol", "0.5"),
    ("optimize", ("--function", "trig"), "max-generations", "2"),
    ("optimize", ("--function", "trig", "--tol", "0.875"), "explore-all", None),
    ("optimize", ("--function", "trig", "--method", "rs"), "iterations", "30"),
    ("optimize", ("--function", "trig", "--method", "rs", "--iterations", "30"), "seed", "5"),
    ("optimize", ("--function", "trig", "--method", "rsw", "--iterations", "30"),
     "initial", "1,-1"),
    ("optimize", ("--function", "trig"), "method", "sa"),
    ("optimize", (), "function", "sphere_min"),
    ("bench", ("--function", "sphere_min", "--method", "slm,rs", "--iterations", "40"),
     "repeats", "2"),
    ("bench", ("--function", "sphere_min", "--method", "rs", "--iterations", "40"),
     "format", "json-lines"),
    ("bench", ("--method", "rs", "--iterations", "40"), "function", "trig,shekel"),
    ("bench", ("--function", "sphere_min", "--iterations", "40"), "method", "rsw,slm"),
    ("bench", ("--function", "trig", "--method", "slm"), "tol", "0.5"),
    ("bench", ("--function", "sphere_min", "--method", "rs"), "iterations", "20"),
    ("bench", ("--function", "trig", "--method", "slm", "--tol", "0.5"), "explore-all", None),
    ("bench", ("--function", "sphere_min", "--method", "slm"), "out", "table.md"),
    ("trace", ("--function", "sphere_min", "--tol", "0.5"), "out", "t"),
    ("trace", ("--function", "sphere_min"), "tol", "0.25"),
    ("trace", ("--function", "sphere_min", "--tol", "0.25"), "max-generations", "2"),
    ("trace", ("--function", "trig", "--tol", "1.75"), "explore-all", None),
    ("trace", ("--tol", "0.5"), "function", "trig"),
)


def _run_in(directory, capsys, monkeypatch, argv):
    """rc, stdout and stderr of one run in an empty cwd, and every file it
    wrote there; json-lines wall times masked."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    rc, out, err = run_cli(capsys, *argv)
    files = {str(p.relative_to(directory)): _WALL_TIME.sub("", p.read_text())
             for p in sorted(directory.rglob("*")) if p.is_file()}
    return rc, _WALL_TIME.sub("", out), err, files


@pytest.mark.parametrize("subcommand, base, key, value", CONFIG_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in CONFIG_CASES])
def test_config_entry_matches_flag(subcommand, base, key, value,
                                   tmp_path, capsys, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {'true' if value is None else value}\n")
    flag = (f"--{key}",) if value is None else (f"--{key}", value)
    runs = {name: _run_in(tmp_path / name, capsys, monkeypatch, (subcommand,) + base + extra)
            for name, extra in (("plain", ()), ("flag", flag), ("config", ("--config", str(conf))))}
    assert runs["config"] == runs["flag"]
    assert runs["flag"] != runs["plain"]  # the value took effect


@pytest.mark.parametrize("value", ("off", "false", "no", "0"))
def test_config_explore_all_false_is_no_entry(value, tmp_path, capsys, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text(f"explore-all = {value}\n")
    argv = ("optimize", "--function", "trig", "--tol", "0.875")
    plain = _run_in(tmp_path / "plain", capsys, monkeypatch, argv)
    configured = _run_in(tmp_path / "config", capsys, monkeypatch, argv + ("--config", str(conf)))
    assert configured == plain


# ---------------------------------------------------------------------------
# argparse passthrough and console script
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", ((), ("optimize",)))
def test_help_prints_usage_to_stdout(argv, capsys):
    rc, out, err = run_cli(capsys, *argv, "--help")
    assert rc == 0 and err == ""
    assert out.startswith(" ".join(("usage: slmopt",) + argv))


def test_bad_choice_exits_two(capsys):
    assert main(["bench", "--format", "yaml"]) == 2
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "slmopt.cli", "list-functions"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == SPHERE_LINE


@pytest.mark.parametrize("name, explore_all", TRACE_DIGESTS)
def test_trace_process_writes_the_pinned_bytes(name, explore_all, tmp_path):
    # the second run into the same --out rewrites every file in place,
    # over the bytes the first one left
    argv = [sys.executable, "-m", "slmopt.cli", "trace", "--function", name,
            "--out", str(tmp_path / "trace"), *(("--explore-all",) if explore_all else ())]
    for run in (1, 2):
        proc = subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert manifest_digest(proc.stdout.splitlines()) == TRACE_DIGESTS[name, explore_all], run


@pytest.mark.parametrize("argv", STDOUT_DIGESTS, ids=" ".join)
def test_process_stdout_is_pinned(argv):
    proc = subprocess.run([sys.executable, "-m", "slmopt.cli", *argv],
                          capture_output=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_DIGESTS[argv]
