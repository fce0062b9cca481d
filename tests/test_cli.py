import collections
import os
import pathlib
import subprocess
import sys

import pytest

from resposet import cli, kleene_twist, residuation, search, twist
from resposet.cli import run
from resposet.structfile import emit_structure


def test_check_example1(capsys):
    assert run(["check", "example1"]) == 0
    out = capsys.readouterr().out
    assert "classification: bounded commutative residuated monoid" in out
    assert "CHECK (1) PASS" in out
    assert "CHECK (10) PASS" in out
    assert "CHECK (lattice) FAIL witness kind=join x=b y=c mub={e,f}" in out
    assert "CHECK (distributive) FAIL" in out
    assert "laws: 7 confirmed, 0 vacuous, 0 refuted" in out


def test_check_evaluates_each_condition_once(monkeypatch, capsys):
    # the listing, the classification and the law premises read one
    # verdict table per command
    counts = collections.Counter()
    real = residuation.condition_holds
    monkeypatch.setattr(residuation, "condition_holds",
                        lambda s, k: counts.update([k]) or real(s, k))
    for fixture in ("example1", "chain3"):
        counts.clear()
        assert run(["check", fixture]) == 0
        assert len(counts) == 13 and set(counts.values()) == {1}, counts
    capsys.readouterr()


def test_check_names_a_refuted_derived_law(monkeypatch, capsys):
    # (3) and (6) hold on example1, so a failing (9) refutes 9-from-3-6
    real = residuation.condition_holds
    monkeypatch.setattr(residuation, "condition_holds", lambda s, k: (
        (False, (0,)) if k == 9 else real(s, k)))
    assert run(["check", "example1"]) == 1
    out = capsys.readouterr().out
    assert "CHECK (law-9-from-3-6) FAIL witness x=0\n" in out
    assert out.endswith("laws: 5 confirmed, 1 vacuous, 1 refuted\n"
                        "DERIVED LAW REFUTED: 9-from-3-6\n")


def test_check_gates_on_groupoid_failure(tmp_path, capsys):
    # break the unit law: classification drops, exit goes nonzero
    bad = tmp_path / "bad.struct"
    bad.write_text("elements 0 1\ncovers\n0 < 1\n"
                   "table mul\n0 0\n0 0\ntable imp\n1 1\n0 1\n"
                   "const one = 1\n")
    assert run(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "CHECK (6) FAIL witness x=1" in out
    assert "CHECK (left-residuated-groupoid) FAIL" in out


def test_check_needs_both_tables(tmp_path, capsys):
    f = tmp_path / "mulonly.struct"
    f.write_text("elements 0 1\ncovers\n0 < 1\n"
                 "table mul\n0 0\n0 1\nconst one = 1\n")
    assert run(["check", str(f)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "twist", "optwist"])
def test_element_name_with_comma_is_rejected(tmp_path, capsys, command):
    # such a name used to load, but could not be written back in an
    # optable cell, a pairmap pair or twist --const
    f = tmp_path / "comma.struct"
    f.write_text("elements x,y z\ncovers\nx,y < z\n"
                 "table mul\nx,y x,y\nx,y z\ntable imp\nz z\nx,y z\n"
                 "const one = z\nconst zero = x,y\n")
    assert run([command, str(f)]) == 2
    assert "element name 'x,y'" in capsys.readouterr().err


def test_twist_example1(capsys):
    assert run(["twist", "example1"]) == 0
    out = capsys.readouterr().out
    assert "twist carrier: 100 pairs" in out
    assert "CHECK (adjunction-transfer) PASS" in out
    assert "CHECK (unit-transfer) PASS" in out
    assert "CHECK (lifting-biconditional) PASS" in out


def test_twist_explicit_maps(capsys):
    assert run(["twist", "chain3", "--f", "proj2", "--g", "proj1",
                "--const", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "CHECK (lifting-biconditional) PASS" in out


def test_twist_rejects_unknown_map(capsys):
    assert run(["twist", "chain3", "--f", "nonsense"]) == 2
    assert "proj1 or proj2" in capsys.readouterr().err


def test_twist_const_needs_two_names(capsys):
    assert run(["twist", "chain3", "--const", "a"]) == 2
    assert capsys.readouterr().err == \
        "error: --const wants two comma-separated names\n"


def test_optwist_structure(capsys):
    assert run(["optwist", "chain3", "--tables"]) == 0
    out = capsys.readouterr().out
    for check_id in ("op-bounded", "op-wellformed", "op-commutative",
                     "op-associative", "op-adjunction", "embedding"):
        assert "CHECK (%s) PASS" % check_id in out
    assert "odot | " in out
    assert "oimp | " in out


def test_optwist_rejects_non_bcrm(tmp_path, capsys):
    f = tmp_path / "nb.struct"
    f.write_text("elements 0 1\ncovers\n0 < 1\n"
                 "table mul\n0 1\n1 1\ntable imp\n1 1\n0 1\n"
                 "const one = 1\nconst zero = 0\n")
    assert run(["optwist", str(f)]) == 2


def test_optwist_needs_tables_or_optables(tmp_path, capsys):
    f = tmp_path / "order.struct"
    f.write_text("elements 0 1\ncovers\n0 < 1\nconst one = 1\n")
    assert run(["optwist", str(f)]) == 2
    assert capsys.readouterr().err == \
        "error: %s does not define both a mul and an imp table\n" % f


ORDER = "elements 0 1\ncovers\n0 < 1\nconst one = 1\nconst zero = 0\n"
PARTIAL_TABLES = {
    "none": "",
    "mul": "table mul\n0 0\n0 1\n",
    "imp": "table imp\n1 1\n0 1\n",
    "optables": "optable odot\n0 0\n0 1\noptable oimp\n1 1\n0 1\n",
}


@pytest.mark.parametrize("command,tables", [
    (command, tables) for command in ("check", "twist", "optwist", "pa")
    for tables in PARTIAL_TABLES
    if (command, tables) != ("optwist", "optables")])
def test_structure_commands_need_both_tables(tmp_path, capsys, command,
                                             tables):
    # optwist audits a file of optables; the others need mul and imp
    f = tmp_path / "partial.struct"
    f.write_text(ORDER + PARTIAL_TABLES[tables])
    assert run([command, str(f)]) == 2
    assert capsys.readouterr() == (
        "", "error: %s does not define both a mul and an imp table\n" % f)


def test_pa_chain3(capsys):
    assert run(["pa", "chain3", "--a", "a"]) == 0
    out = capsys.readouterr().out
    assert "carrier: 0a 01 a0 aa a1 10 1a" in out
    assert "cover 01 < 0a" in out
    for check_id in ("11", "12", "closure", "operator-residuated",
                     "biconditional", "pseudo-kleene", "kleene",
                     "embedding", "involution-membership"):
        assert "CHECK (%s) PASS" % check_id in out
    assert "odot | " in out


def test_pa_witnesses_use_the_full_twist_pair_names(tmp_path, capsys):
    # chain3 renamed b < aa < a: concatenation names both (aa,a) and
    # (a,aa) "aaa", so every pair name is long, in witnesses too
    f = tmp_path / "renamed.struct"
    f.write_text("elements b aa a\ncovers\nb < aa\naa < a\n"
                 "table mul\nb b b\nb aa aa\nb aa a\n"
                 "table imp\na a a\nb a a\nb aa a\n"
                 "const one = a\nconst zero = b\n")
    assert run(["pa", str(f), "--a", "a"]) == 1
    out = capsys.readouterr().out
    assert "carrier: (b,a) (aa,a) (a,b) (a,aa) (a,a)\n" in out
    assert "CHECK (closure) FAIL witness op=oimp p=(aa,a) q=(b,a)" \
        " member=(b,aa) pattern=low-low" in out


def test_pa_never_builds_the_full_twist(monkeypatch, tmp_path, diamond,
                                       capsys):
    # the restricted twist reads the pair names and the base cones, so pa
    # never builds the n^2-pair twist order; counted in every resposet
    # namespace that binds full_twist, on carriers that pass, escape
    # (example1 at 0, the renamed chain3) or fail an assumption (diamond)
    real, calls = twist.full_twist, []

    def spy(base):
        calls.append(base)
        return real(base)

    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "resposet" and \
                getattr(module, "full_twist", None) is real:
            monkeypatch.setattr(module, "full_twist", spy)
    renamed = tmp_path / "renamed.struct"
    renamed.write_text("elements b aa a\ncovers\nb < aa\naa < a\n"
                       "table mul\nb b b\nb aa aa\nb aa a\n"
                       "table imp\na a a\nb a a\nb aa a\n"
                       "const one = a\nconst zero = b\n")
    square = tmp_path / "diamond.struct"
    square.write_text(emit_structure(diamond))
    runs = [["pa", "chain3", "--a", a] for a in ("0", "a", "1")]
    runs += [["pa", "example1", "--a", a] for a in "0abcdefgh1"]
    runs += [["pa", str(renamed), "--a", "a"], ["pa", str(square), "--a", "x"]]
    for argv in runs:
        assert run(argv) in (0, 1)
    capsys.readouterr()
    assert calls == []
    run(["optwist", "chain3"])
    assert calls


def test_pa_example1_failures(capsys):
    assert run(["pa", "example1", "--a", "0"]) == 1
    out = capsys.readouterr().out
    assert "CHECK (11) PASS" in out
    assert "CHECK (12) FAIL witness x=a" in out
    assert "breaks=12" in out
    assert "CHECK (kleene) FAIL" in out

    assert run(["pa", "example1", "--a", "1"]) == 1
    out = capsys.readouterr().out
    assert "CHECK (11) FAIL witness x=a" in out
    assert "CHECK (12) PASS" in out
    assert "breaks=11" in out


def test_pa_unclassified_escape_exits_3(monkeypatch, capsys):
    # with an empty case table the first escape of example1 around 0
    # matches no row
    monkeypatch.setattr(kleene_twist, "_escape_cases", lambda *args: ())
    assert run(["pa", "example1", "--a", "0"]) == 3
    out = capsys.readouterr().out
    assert out.endswith("operator escape matches no closure case:"
                        " op=oimp p=a0 q=01 member=ha\n")


def test_pa_assumption_failure(tmp_path, diamond, capsys):
    f = tmp_path / "diamond.struct"
    f.write_text(emit_structure(diamond))
    assert run(["pa", str(f), "--a", "x"]) == 1
    out = capsys.readouterr().out
    assert "CHECK (assumption-comparability) FAIL witness p=xy" in out
    assert "ASSUMPTION-FAIL" in out


def test_pa_needs_designated_or_flag(capsys):
    assert run(["pa", "example1"]) == 2
    assert "designated" in capsys.readouterr().err


def test_pa_unknown_element(capsys):
    assert run(["pa", "chain3", "--a", "zz"]) == 2


def test_enumerate(capsys):
    assert run(["enumerate", "--size", "3", "--filter", "poset"]) == 0
    assert capsys.readouterr().out == "count = 19\n"
    assert run(["enumerate", "--size", "2",
                "--filter", "bounded-commutative-residuated-monoid"]) == 0
    assert capsys.readouterr().out == "count = 2\n"


def test_enumerate_over_cap(capsys):
    assert run(["enumerate", "--size", "9", "--filter", "poset"]) == 2


def test_verify_small(capsys):
    assert run(["verify", "--suite", "lemmas", "--max-size", "2"]) == 0
    out = capsys.readouterr().out
    assert "CHECK (law-5-from-1-3) PASS" in out
    assert "all passed" in out


def test_verify_stops_at_the_first_refuted_property(monkeypatch, capsys):
    # the cone product law forced to fail on the chain 0 < 1
    real = search.cone_product_failure
    monkeypatch.setattr(search, "cone_product_failure", lambda p: (
        (0, 1) if search.describe_poset(p) == "elements=01;covers=0<1"
        else real(p)))
    assert run(["verify", "--suite", "theorems", "--max-size", "2"]) == 1
    assert capsys.readouterr().out == (
        "CHECK (twist-lifting-first-projections) PASS\n"
        "CHECK (twist-lifting-second-projections) PASS\n"
        "CHECK (operator-twist-audit) PASS\n"
        "CHECK (restricted-twist-biconditional) PASS\n"
        "CHECK (cone-product-law) FAIL\n"
        "UNIVERSAL PROPERTY REFUTED: cone-product-law\n"
        "  elements=01;covers=0<1 :: cone product law broken at 00, 01\n")


@pytest.mark.parametrize("size", ["0", "-1"])
def test_verify_rejects_empty_size_range(capsys, size):
    # a sweep over no sizes would pass vacuously
    assert run(["verify", "--suite", "theorems", "--max-size", size]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-size must be positive\n"


def test_missing_file(capsys):
    assert run(["check", "no-such-file"]) == 2
    assert "no such structure file" in capsys.readouterr().err


def test_tables_out_file(tmp_path, capsys):
    out_path = tmp_path / "tables.txt"
    assert run(["pa", "chain3", "--a", "a", "--out", str(out_path)]) == 0
    capsys.readouterr()
    text = out_path.read_text()
    assert text.startswith("odot | ")
    assert "oimp | " in text


def test_pa_long_style(capsys):
    assert run(["pa", "chain3", "--a", "a", "--style", "long"]) == 0
    out = capsys.readouterr().out
    assert "{(0,1)}" in out


# --- command-line parsing ----------------------------------------------

TABLE_DEFAULTS = {"style": "compressed", "tables": False, "out": None}

ACCEPTED = [
    (["check", "x.struct"], {"file": "x.struct"}),
    (["check", "-1"], {"file": "-1"}),
    (["check", "--", "-x"], {"file": "-x"}),
    (["twist", "x"], dict(TABLE_DEFAULTS, file="x", f=None, g=None,
                          const=None)),
    (["twist", "--f", "proj2", "--g=proj1", "--const", "1,1", "x"],
     dict(TABLE_DEFAULTS, file="x", f="proj2", g="proj1", const="1,1")),
    (["twist", "x", "--tab", "--sty=long", "--o", "t.txt", "--f", "a",
      "--f", "b"],
     dict(file="x", f="b", g=None, const=None, style="long", tables=True,
          out="t.txt")),
    (["optwist", "--tables", "x", "--tables", "--out="],
     dict(TABLE_DEFAULTS, file="x", tables=True, out="")),
    (["pa", "x"], dict(TABLE_DEFAULTS, file="x", a=None)),
    (["pa", "--a", "-1", "x", "--style", "long"],
     dict(TABLE_DEFAULTS, file="x", a="-1", style="long")),
    (["pa", "--a", "-x y", "x", "--ou=o=p"],
     dict(TABLE_DEFAULTS, file="x", a="-x y", out="o=p")),
    (["enumerate", "--size", "3"], {"size": 3, "filter": "poset"}),
    (["enumerate", "--fil", "unital-groupoid", "--si=-3"],
     {"size": -3, "filter": "unital-groupoid"}),
    (["verify", "--suite", "lemmas"], {"suite": "lemmas", "max_size": None}),
    (["verify", "--max-size", "-1", "--suite=theorems"],
     {"suite": "theorems", "max_size": -1}),
    (["verify", "--su", "lemmas", "--max=2"],
     {"suite": "lemmas", "max_size": 2}),
]

REJECTED = [
    [], ["frobnicate"], ["--bogus", "check", "x"],
    ["check"], ["pa", "--a", "a"], ["verify"], ["verify", "--max-size", "2"],
    ["enumerate"], ["enumerate", "--filter", "poset"],
    ["enumerate", "--size", "3", "--filter", "lattice"],
    ["twist", "x", "--style", "wide"], ["verify", "--suite", "axioms"],
    ["enumerate", "--size", "three"], ["enumerate", "--size", "2.5"],
    ["verify", "--suite", "lemmas", "--max-size", "x"],
    ["check", "x", "y"], ["enumerate", "--size", "3", "extra"],
    ["check", "x", "--tables"], ["twist", "x", "--bogus"],
    ["pa", "x", "-z"], ["verify", "--=lemmas"],
    ["pa", "x", "--a"], ["pa", "x", "--a", "-z"], ["verify", "--suite"],
    ["twist", "x", "--out", "--tables"], ["twist", "x", "--tables=yes"],
]

OPTIONS = {
    "check": ["file"],
    "twist": ["file", "--f", "--g", "--const", "--style", "--tables",
              "--out"],
    "optwist": ["file", "--style", "--tables", "--out"],
    "pa": ["file", "--a", "--style", "--tables", "--out"],
    "enumerate": ["--size", "--filter"],
    "verify": ["--suite", "--max-size"],
}


def _parsed(monkeypatch, argv):
    # each command runs the module's _cmd_<command>; the spy records the
    # parsed fields instead of running the check
    seen = {}

    def spy(args):
        seen.update(vars(args))
        return 0
    for command in OPTIONS:
        monkeypatch.setattr(cli, "_cmd_" + command, spy)
    assert cli.run(argv) == 0
    seen.pop("func", None)
    seen.pop("command", None)
    return seen


@pytest.mark.parametrize("argv, fields", ACCEPTED,
                         ids=[" ".join(a) for a, _ in ACCEPTED])
def test_argv_parses_to_fields(monkeypatch, argv, fields):
    assert _parsed(monkeypatch, argv) == fields


@pytest.mark.parametrize("argv", REJECTED,
                         ids=[" ".join(a) or "<empty>" for a in REJECTED])
def test_bad_argv_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: resposet")
    assert "error: " in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]])
def test_help_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: resposet")
    for command in OPTIONS:
        assert command in out


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_command_help_lists_every_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.run([command, "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: resposet " + command)
    for option in OPTIONS[command]:
        assert option in captured.out


def test_command_does_not_import_argparse():
    # argparse's first message lookup imports gettext and locale, and
    # dataclasses imports inspect; a cold command paid more for these
    # than for checking a small structure
    code = ("import sys; sys.path.insert(0, %r); import resposet.cli; "
            "resposet.cli.run(['check', 'chain3']); "
            "print(sorted({'argparse', 'gettext', 'locale', 'dataclasses',"
            " 'inspect'} & set(sys.modules)))"
            % str(pathlib.Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_closed_stdout_is_not_an_input_error():
    # the tables run past the pipe's buffer, so the command is still
    # writing when its reader stops after one line
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "resposet.cli", "optwist", "example1",
         "--tables"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    try:
        assert proc.stdout.readline() == b"CHECK (op-bounded) PASS\n"
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1].decode()
    finally:
        proc.kill()
    assert proc.returncode != 2
    assert "error:" not in err
