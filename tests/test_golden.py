"""Byte-for-byte pins of CLI output and of the condition scan order.

Each file in tests/golden/ holds one command: its first line is
"exit <code>", the rest is exactly what the command printed to stdout.
The failing-audit case runs optwist on an optable file whose audit fails
associativity and adjunction, pinning those witnesses' text.
The condition digest covers the first witness of conditions (1)-(10) on
every enumerated residuated pair with at most three elements, so any
change to a scan's loop order shows up here.  The twist digest covers the
exit code and stdout of `pa --tables` at every element, `optwist --tables`
and `twist --tables` in both projection orders on every bounded
commutative residuated monoid with at most three elements.  The pa digest
covers the exit code and stdout of `pa` at every element of Goedel 8,
Goedel 10, Lukasiewicz 10, example1 and a copy of Goedel 10 with its index
order shuffled: the carriers whose order tests decide the larger reports.
"""

import contextlib
import hashlib
import io
import pathlib
import random
import subprocess
import sys

import pytest

import resposet
from resposet.cli import run
from resposet.residuation import condition_holds
from resposet.search import (STRUCTURE_KINDS, describe_structure,
                             enumerate_posets, enumerate_structures)
from resposet.structfile import emit_structure, load
from test_kernels import _base, _relabel

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


AUDIT_FAILS = ["optwist", str(GOLDEN / "optable_audit_fails.struct"),
               "--tables"]


def condition_digest():
    h = hashlib.sha256()
    for n in (1, 2, 3):
        for s in enumerate_structures(n, "residuated-pair"):
            for k in range(1, 11):
                h.update(repr(condition_holds(s, k)).encode())
    return h.hexdigest()


def enumeration_digest():
    h = hashlib.sha256()
    for kind in STRUCTURE_KINDS:
        for n in (1, 2, 3):
            for s in enumerate_structures(n, kind):
                h.update(describe_structure(s).encode() + b"\n")
    for n in (1, 2, 3, 4, 5):
        for p in enumerate_posets(n):
            h.update(repr((p.names, p.up, p.down)).encode() + b"\n")
    return h.hexdigest()


def twist_digest(directory):
    h = hashlib.sha256()
    for n in (1, 2, 3):
        for k, s in enumerate(enumerate_structures(
                n, "bounded-commutative-residuated-monoid")):
            path = directory / ("bcrm%d_%d.struct" % (n, k))
            path.write_text(emit_structure(s), encoding="utf-8")
            cmds = [["optwist", str(path), "--tables"],
                    ["twist", str(path), "--tables"],
                    ["twist", str(path), "--f", "proj2", "--g", "proj1",
                     "--tables"]]
            cmds += [["pa", str(path), "--a", name, "--tables"]
                     for name in s.poset.names]
            for argv in cmds:
                h.update(captured(argv).encode())
    return h.hexdigest()


def pa_digest(directory):
    h = hashlib.sha256()
    bases = [_base(name) for name in
             ("godel8", "godel10", "lukasiewicz10", "example1")]
    bases.append(_relabel(bases[1], random.Random(21)))
    for k, s in enumerate(bases):
        path = directory / ("base%d.struct" % k)
        path.write_text(emit_structure(s), encoding="utf-8")
        for name in s.poset.names:
            h.update(captured(["pa", str(path), "--a", name]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=golden_name)
def test_cli_output_is_pinned(argv):
    want = (GOLDEN / golden_name(argv)).read_text(encoding="utf-8")
    assert captured(argv) == want


@pytest.mark.parametrize("suite", ["lemmas", "theorems"])
def test_piped_verify_prints_each_line_once(suite):
    # piped stdout is block-buffered, so the CHECK lines printed before a
    # sweep forks its workers are still in the buffer they inherit; a
    # worker that flushed it would print them twice.  Three shares make
    # the sweeps fork on any machine.
    argv = ["verify", "--suite", suite, "--max-size", "2"]
    code = ("import sys; sys.path.insert(0, %r); import resposet.cli; "
            "resposet.search._cpus = lambda: 3; resposet.cli.main()"
            % str(pathlib.Path(resposet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-I", "-c", code, *argv],
                          stdout=subprocess.PIPE, text=True)
    want = (GOLDEN / golden_name(argv)).read_text(encoding="utf-8")
    assert "exit %d\n%s" % (proc.returncode, proc.stdout) == want


@pytest.mark.parametrize("extra, options, pinned", [
    ("designated = a\n", [], ["pa", "chain3", "--a", "a"]),
    ("pairmap f\nproj2\npairmap g\nproj1\n", ["--tables"],
     ["twist", "chain3", "--f", "proj2", "--g", "proj1", "--tables"]),
])
def test_file_declarations_stand_for_the_options(tmp_path, extra, options,
                                                 pinned):
    # without --a, pa reads the designated element from the file, and
    # without --f and --g, twist reads the pair maps the file declares
    path = tmp_path / "chain3.struct"
    path.write_text(emit_structure(load("chain3").structure) + extra,
                    encoding="utf-8")
    want = (GOLDEN / golden_name(pinned)).read_text(encoding="utf-8")
    assert captured([pinned[0], str(path), *options]) == want


def test_failing_audit_witnesses_are_pinned():
    want = (GOLDEN / "optwist_optable_audit_fails.txt").read_text(
        encoding="utf-8")
    assert captured(AUDIT_FAILS) == want


def test_condition_witnesses_are_pinned():
    want = (GOLDEN / "conditions.sha256").read_text(encoding="utf-8").strip()
    assert condition_digest() == want


def test_twist_outputs_are_pinned(tmp_path):
    want = (GOLDEN / "twist_outputs.sha256").read_text(encoding="utf-8").strip()
    assert twist_digest(tmp_path) == want


def test_pa_outputs_are_pinned(tmp_path):
    want = (GOLDEN / "pa_outputs.sha256").read_text(encoding="utf-8").strip()
    assert pa_digest(tmp_path) == want


def test_enumeration_order_is_pinned():
    want = (GOLDEN / "enumeration.sha256").read_text(encoding="utf-8").strip()
    assert enumeration_digest() == want
