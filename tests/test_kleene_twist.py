import pytest

from resposet.kleene_twist import (AssumptionError, build_restricted_operators,
                                   build_restricted_twist, check_condition_11,
                                   check_condition_12, check_kleene_twist,
                                   check_restricted_closure,
                                   check_restriction_assumptions,
                                   pair_in_carrier)
from resposet.residuation import StructureError
from resposet.structfile import emit_tables

CHAIN3_CARRIER = ("0a", "01", "a0", "aa", "a1", "10", "1a")

CHAIN3_COVERS = {("01", "0a"), ("01", "a1"), ("0a", "aa"), ("a1", "aa"),
                 ("aa", "a0"), ("aa", "1a"), ("a0", "10"), ("1a", "10")}

CHAIN3_TABLES = """\
odot | 0a    01 a0    aa    a1    10    1a
0a   | 01    01 01    01    01    0a,01 0a,01
01   | 01    01 01    01    01    01    01
a0   | 01    01 a0    a0,a1 a0,a1 a0    a0,a1
aa   | 01    01 a0,a1 a1    a1    a0,aa aa,a1
a1   | 01    01 a0,a1 a1    a1    a0,a1 a1
10   | 0a,01 01 a0    a0,aa a0,a1 10    10,1a
1a   | 0a,01 01 a0,a1 aa,a1 a1    10,1a 1a

oimp | 0a    01    a0    aa    a1    10 1a
0a   | 10    a0,10 10    10    a0,10 10 10
01   | 10    10    10    10    10    10 10
a0   | 0a    0a    10    0a,1a 0a,1a 10 0a,1a
aa   | 0a,1a 0a,aa 10    1a    aa,1a 10 1a
a1   | 0a,1a 0a,1a 10    1a    1a    10 1a
10   | 0a    01    a0,10 0a,aa 01,a1 10 0a,1a
1a   | 0a,1a 01,a1 a0,10 aa,1a a1    10 1a
"""


def test_chain3_carrier(chain3):
    rt = build_restricted_twist(chain3.poset, 1)
    assert rt.poset.names == CHAIN3_CARRIER
    covers = {(rt.poset.names[x], rt.poset.names[y])
              for x, y in rt.poset.cover_pairs()}
    assert covers == CHAIN3_COVERS


def test_pair_in_carrier(chain3):
    p = chain3.poset
    assert pair_in_carrier(p, 1, 0, 1)
    assert pair_in_carrier(p, 1, 1, 1)
    assert not pair_in_carrier(p, 1, 0, 0)
    assert not pair_in_carrier(p, 1, 2, 2)


def test_chain3_swap_involution(chain3):
    rt = build_restricted_twist(chain3.poset, 1)
    idx = {name: i for i, name in enumerate(rt.poset.names)}
    assert rt.swap[idx["0a"]] == idx["a0"]
    assert rt.swap[idx["10"]] == idx["01"]
    assert rt.swap[idx["aa"]] == idx["aa"]


def test_chain3_full_report(chain3):
    report = check_kleene_twist(chain3, 1)
    items, audit = report.items, report.audit
    assert [it.check_id for it in items] == [
        "11", "12", "closure", "operator-residuated", "biconditional",
        "pseudo-kleene", "kleene", "embedding", "involution-membership"]
    assert all(it.passed for it in items), [it.line() for it in items]
    assert len(audit) == 5
    assert all(it.passed for it in audit)
    assert emit_tables(report.operators) == CHAIN3_TABLES


def test_chain3_golden_tables(chain3):
    rt = build_restricted_twist(chain3.poset, 1)
    ops = build_restricted_operators(chain3, rt)
    assert emit_tables(ops) == CHAIN3_TABLES


def test_example1_a0_diagnostics(example1):
    p = example1.poset
    assert check_condition_11(example1, 0).passed
    item12 = check_condition_12(example1, 0)
    assert not item12.passed
    assert item12.witness == (("x", "a"),)
    rt = build_restricted_twist(p, 0)
    assert rt.poset.n == 19
    closure, diag = check_restricted_closure(example1, rt)
    assert not closure.passed
    assert diag.op == "oimp"
    assert (p.names[diag.p[0]], p.names[diag.p[1]]) == ("a", "0")
    assert (p.names[diag.q[0]], p.names[diag.q[1]]) == ("0", "1")
    assert (p.names[diag.member[0]], p.names[diag.member[1]]) == ("h", "a")
    assert diag.pattern == "high-low"
    assert diag.compare == "a<b*e"
    assert diag.needs == "b->d<=a"
    assert diag.breaks == 12


def test_example1_a1_diagnostics(example1):
    p = example1.poset
    item11 = check_condition_11(example1, p.index("1"))
    assert not item11.passed
    assert item11.witness == (("x", "a"),)
    assert check_condition_12(example1, p.index("1")).passed
    rt = build_restricted_twist(p, p.index("1"))
    assert rt.poset.n == 19
    closure, diag = check_restricted_closure(example1, rt)
    assert not closure.passed
    assert diag.pattern == "low-low"
    assert diag.breaks == 11
    assert diag.compare == "b*e<a"
    assert diag.needs == "a<=b->d"


def test_example1_report_shape(example1):
    for a in (0, example1.poset.index("1")):
        report = check_kleene_twist(example1, a)
        items, audit = report.items, report.audit
        by_id = {it.check_id: it for it in items}
        assert not by_id["closure"].passed
        assert not by_id["operator-residuated"].passed
        assert by_id["biconditional"].passed
        assert by_id["pseudo-kleene"].passed
        assert not by_id["kleene"].passed
        assert not by_id["kleene"].gating
        assert by_id["embedding"].passed
        assert by_id["involution-membership"].passed
        assert audit == []
        assert report.operators is None


def test_assumption_failure_on_diamond(diamond):
    rt = build_restricted_twist(diamond.poset, 1)
    items = check_restriction_assumptions(diamond, rt)
    by_id = {it.check_id: it for it in items}
    assert by_id["assumption-idempotence"].passed
    comp = by_id["assumption-comparability"]
    assert not comp.passed
    assert comp.witness == (("p", "xy"),)
    with pytest.raises(AssumptionError):
        check_restricted_closure(diamond, rt)
    with pytest.raises(AssumptionError):
        check_kleene_twist(diamond, 1)


def test_idempotence_assumption(example1):
    # a * a = 0 for a strictly between the bounds in example1
    a = example1.poset.index("a")
    rt = build_restricted_twist(example1.poset, a)
    items = check_restriction_assumptions(example1, rt)
    by_id = {it.check_id: it for it in items}
    assert not by_id["assumption-idempotence"].passed
    assert by_id["assumption-idempotence"].witness == (
        ("a", "a"), ("a*a", "0"))


def test_kleene_twist_requires_bcrm(diamond):
    import dataclasses
    s = dataclasses.replace(diamond, zero=None)
    with pytest.raises(StructureError):
        check_kleene_twist(s, 1)
