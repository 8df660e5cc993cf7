"""Every `$ slmopt ...` example in README.md prints what the README shows,
every `python` block runs, every `slmopt.<module>.<name>` its prose
names exists, the evaluation counts it cites are the pinned ones, the
library imports nothing beyond the standard library ("Runtime
dependencies: none", pyproject's `dependencies = []`) and parses at
pyproject's `requires-python` floor, and each digest pin is written in
one file only."""

import ast
import collections
import importlib
import re
import shlex
import sys
from pathlib import Path

import pytest

import slmopt
from slmopt.cli import main
from slmopt.objectives import builtin_names

from pins import RUN_PINS

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.with_name("pyproject.toml")
TIER1 = README.with_name(".github") / "workflows" / "tier1.yml"
LIBRARY = sorted(Path(slmopt.__file__).parent.glob("*.py"))
FENCED = re.compile(r"^```([^\n]*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def blocks():
    return FENCED.findall(README.read_text(encoding="utf-8"))


def examples():
    out = []
    for _, block in blocks():
        command, _, expected = block.partition("\n")
        if command.startswith("$ slmopt "):
            out.append(pytest.param(command[2:], expected, id=command.split()[2]))
    return out


def test_readme_has_examples():
    assert len(examples()) >= 4


@pytest.mark.parametrize("command, expected", examples())
def test_readme_example_output(command, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out == expected


PYTHON_BLOCKS = [block for info, block in blocks() if info == "python"]


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=lambda s: s.split()[1])
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") == 1


def prose_names():
    prose = FENCED.sub("", README.read_text(encoding="utf-8"))
    names = sorted(set(re.findall(r"\bslmopt\.(\w+)\.(\w+)", prose)))
    return [pytest.param(module, name, id=f"{module}.{name}") for module, name in names]


def test_readme_prose_has_names():
    assert len(prose_names()) >= 4


@pytest.mark.parametrize("module, name", prose_names())
def test_readme_prose_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"slmopt.{module}"), name)


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_library_imports_only_the_standard_library(path):
    """Every import is __future__, package-relative, or of a module whose
    top-level name is in sys.stdlib_module_names."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            assert top == "__future__" or top in sys.stdlib_module_names, \
                f"{path.name}:{node.lineno} imports {name}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_library_parses_at_the_oldest_supported_python(path):
    """Every module parses with the grammar of pyproject's requires-python
    floor, which a newer interpreter running the suite would not check."""
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.MULTILINE)
    ast.parse(path.read_text(encoding="utf-8"), feature_version=tuple(map(int, floor.groups())))


def test_readme_cites_the_pinned_evaluation_counts():
    prose = " ".join(FENCED.sub("", README.read_text(encoding="utf-8")).split())
    cited = re.search(r"explore-all makes (.*?); descent makes (.*?) in the same order\.", prose)
    explore = {name: int(count)
               for count, name in re.findall(r"(\d+)(?: evaluations)? on (\w+)", cited[1])}
    assert explore == {name: RUN_PINS[name, True].evaluations for name in builtin_names()}
    assert [int(count) for count in re.findall(r"\d+", cited[2])] == \
        [RUN_PINS[name, False].evaluations for name in builtin_names()]


def test_each_digest_pin_is_written_in_one_file():
    """A 64-hex-digit literal (a sha256 pin) in tests/ or the tier-1
    workflow appears in one file only: tests/pins.py holds every slm
    result pin, so a copy in a test or a CI step fails here. A table may
    repeat a digest."""
    files = collections.defaultdict(set)
    for path in [*README.with_name("tests").glob("*.py"), TIER1]:
        for digest in re.findall(r"\b[0-9a-f]{64}\b", path.read_text(encoding="utf-8")):
            files[digest].add(path.name)
    assert files
    assert {digest: sorted(names) for digest, names in files.items() if len(names) > 1} == {}
