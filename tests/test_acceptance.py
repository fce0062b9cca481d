"""End-to-end acceptance checks; every comparison is exact and each
criterion reports a single PASS/FAIL line."""

import time

from resposet.cli import run
from resposet.order import bits
from resposet.search import enumerate_posets, enumerate_structures
from resposet.structfile import emit_structure, load, parse
from resposet.residuation import synthesize_residuum
from resposet.twist import build_operator_twist, check_operator_residuated

from test_kleene_twist import CHAIN3_CARRIER, CHAIN3_COVERS, CHAIN3_TABLES


def _report(k, ok):
    print("ACCEPTANCE CRITERION %d: %s" % (k, "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_1_classification_and_lattice_witness(capsys):
    start = time.perf_counter()
    code = run(["check", "example1.struct"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        _report(1, code == 0
                and "classification: bounded commutative residuated monoid"
                in out
                and "CHECK (lattice) FAIL witness kind=join x=b y=c mub={e,f}"
                in out
                and elapsed < 1.0)


def test_criterion_2_residuum_synthesis(example1, capsys):
    start = time.perf_counter()
    syn = synthesize_residuum(example1.poset, example1.mul)
    elapsed = time.perf_counter() - start
    matches = sum(1 for x in range(10) for y in range(10)
                  if syn.ok and syn.imp[x][y] == example1.imp[x][y])
    with capsys.disabled():
        _report(2, matches == 100 and elapsed < 1.0)


def test_criterion_3_operator_tables(bool2, capsys):
    start = time.perf_counter()
    ops = build_operator_twist(bool2)
    audit = check_operator_residuated(ops)
    elapsed = time.perf_counter() - start

    def norm(table):
        return [[frozenset(divmod(m, 2) for m in bits(cell))
                 for cell in row] for row in table]

    printed_odot = [
        [{(0, 1)}, {(0, 1)}, {(0, 0), (0, 1)}, {(0, 0), (0, 1)}],
        [{(0, 1)}, {(0, 1)}, {(0, 1)}, {(0, 1)}],
        [{(0, 0), (0, 1)}, {(0, 1)}, {(1, 0)}, {(1, 0), (1, 1)}],
        [{(0, 0), (0, 1)}, {(0, 1)}, {(1, 0), (1, 1)}, {(1, 1)}],
    ]
    printed_oimp = [
        [{(1, 0)}, {(0, 0), (1, 0)}, {(1, 0)}, {(0, 0), (1, 0)}],
        [{(1, 0)}, {(1, 0)}, {(1, 0)}, {(1, 0)}],
        [{(0, 0), (1, 0)}, {(0, 1)}, {(1, 0)}, {(0, 1), (1, 1)}],
        [{(0, 0), (1, 0)}, {(0, 1), (1, 1)}, {(1, 0)}, {(1, 1)}],
    ]
    ok = (norm(ops.odot) == [[frozenset(c) for c in row]
                             for row in printed_odot]
          and norm(ops.oimp) == [[frozenset(c) for c in row]
                                 for row in printed_oimp]
          and all(item.passed for item in audit)
          and len(audit) == 5
          and elapsed < 1.0)
    with capsys.disabled():
        _report(3, ok)


def test_criterion_4_restricted_twist_tables(capsys):
    start = time.perf_counter()
    code = run(["pa", "chain3.struct", "--a", "a"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    covers = {tuple(line.split()[1::2])
              for line in out.splitlines() if line.startswith("cover ")}
    report_ok = all("CHECK (%s) PASS" % cid in out for cid in (
        "11", "12", "operator-residuated", "pseudo-kleene", "kleene",
        "embedding", "involution-membership"))
    with capsys.disabled():
        _report(4, code == 0
                and "carrier: %s" % " ".join(CHAIN3_CARRIER) in out
                and covers == CHAIN3_COVERS
                and CHAIN3_TABLES in out
                and report_ok
                and elapsed < 1.0)


def test_criterion_5_counterexamples(example1, capsys):
    p = example1.poset
    start = time.perf_counter()
    code0 = run(["pa", "example1.struct", "--a", "0"])
    out0 = capsys.readouterr().out
    code1 = run(["pa", "example1.struct", "--a", "1"])
    out1 = capsys.readouterr().out
    elapsed = time.perf_counter() - start

    a = p.index("a")
    # witness x=a really contradicts (12): 0 < a yet a->0 != 0
    w12 = example1.imp[a][p.index("0")] != p.index("0")
    # witness x=a really contradicts (11): 0 < 1*a < 1
    prod = example1.mul[p.index("1")][a]
    w11 = p.lt(p.index("0"), prod) and p.lt(prod, p.index("1"))
    with capsys.disabled():
        _report(5, code0 == 1 and code1 == 1
                and "CHECK (12) FAIL witness x=a" in out0 and w12
                and "CHECK (closure) FAIL" in out0 and "breaks=12" in out0
                and "CHECK (11) FAIL witness x=a" in out1 and w11
                and "CHECK (closure) FAIL" in out1 and "breaks=11" in out1
                and elapsed < 1.0)


def test_criterion_6_universal_suites(capsys):
    start = time.perf_counter()
    code_lemmas = run(["verify", "--suite", "lemmas"])
    out_lemmas = capsys.readouterr().out
    code_theorems = run(["verify", "--suite", "theorems"])
    out_theorems = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(6, code_lemmas == 0 and code_theorems == 0
                and "all passed" in out_lemmas
                and "all passed" in out_theorems
                and "FAIL" not in out_lemmas
                and "FAIL" not in out_theorems
                and elapsed < 60.0)


def test_criterion_7_round_trip_and_determinism(capsys):
    ok = True
    for name in ("example1", "chain3"):
        sf = load(name)
        ok = ok and parse(emit_structure(sf.structure)).structure == sf.structure
    enumerate_posets.cache_clear()
    first = [len(enumerate_posets(2)), len(enumerate_posets(3))]
    structs = enumerate_structures(2)
    enumerate_posets.cache_clear()
    second = [len(enumerate_posets(2)), len(enumerate_posets(3))]
    with capsys.disabled():
        _report(7, ok and first == second == [3, 19]
                and enumerate_structures(2) == structs)
