"""Byte-for-byte pins of CLI output and of the condition scan order.

Each file in tests/golden/ holds one command: its first line is
"exit <code>", the rest is exactly what the command printed to stdout.
The condition digest covers the first witness of conditions (1)-(10) on
every enumerated residuated pair with at most three elements, so any
change to a scan's loop order shows up here.
"""

import contextlib
import hashlib
import io
import pathlib

import pytest

from resposet.cli import run
from resposet.residuation import condition_holds
from resposet.search import enumerate_structures
from resposet.structfile import load

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _commands():
    cmds = []
    for fixture in ("example1", "chain3"):
        cmds += [
            ["check", fixture],
            ["twist", fixture, "--tables"],
            ["twist", fixture, "--f", "proj2", "--g", "proj1", "--tables"],
            ["optwist", fixture, "--tables"],
            ["optwist", fixture, "--tables", "--style", "long"],
        ]
        for name in load(fixture).structure.poset.names:
            cmds.append(["pa", fixture, "--a", name])
    cmds.append(["pa", "chain3", "--a", "a", "--style", "long"])
    for suite in ("lemmas", "theorems"):
        cmds.append(["verify", "--suite", suite, "--max-size", "2"])
    return cmds


COMMANDS = _commands()


def golden_name(argv):
    return "_".join(a.lstrip("-") for a in argv) + ".txt"


def captured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return "exit %d\n%s" % (code, out.getvalue())


def condition_digest():
    h = hashlib.sha256()
    for n in (1, 2, 3):
        for s in enumerate_structures(n, "residuated-pair"):
            for k in range(1, 11):
                h.update(repr(condition_holds(s, k)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=golden_name)
def test_cli_output_is_pinned(argv):
    want = (GOLDEN / golden_name(argv)).read_text(encoding="utf-8")
    assert captured(argv) == want


def test_condition_witnesses_are_pinned():
    want = (GOLDEN / "conditions.sha256").read_text(encoding="utf-8").strip()
    assert condition_digest() == want
