"""The README's examples run as written."""

import pathlib
import re
import shlex

import pytest

from resposet.cli import run
from resposet.structfile import load, parse

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
COMMANDS = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("resposet ")]


def test_struct_example_is_chain3():
    (text,) = [body for lang, body in BLOCKS if lang == ""]
    assert parse(text).structure == load("chain3").structure


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_is_accepted(line, capsys):
    try:
        code = run(shlex.split(line, comments=True)[1:])
    except SystemExit as e:        # argparse rejects unknown flags
        code = e.code
    assert code != 2, capsys.readouterr().err


def test_library_example_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(code, {})
    assert capsys.readouterr().out == "bounded commutative residuated monoid\n"
