"""Every `$ slmopt ...` example in README.md prints what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from slmopt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def examples():
    out = []
    for block in FENCED.findall(README.read_text(encoding="utf-8")):
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
