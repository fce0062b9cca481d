import itertools

import pytest

from resposet import kleene_twist
from resposet.kleene_twist import (build_restricted_operators,
                                   build_restricted_twist, check_kleene_twist,
                                   check_involution_membership,
                                   check_restricted_closure,
                                   check_restriction_assumptions,
                                   pair_in_carrier)
from resposet.order import InvolutionVerdict, chain
from resposet.report import CheckItem, all_pass
from resposet.residuation import StructureError, check_condition, \
    condition_holds, structure
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


def test_a_failing_audit_item_fails_the_biconditional(monkeypatch, chain3):
    # closure holds on chain3 at a, so the operator-residuated line takes
    # the first failing audit item: its axiom, then its own witness
    real = kleene_twist.check_operator_residuated

    def one_fails(ops):
        audit = real(ops)
        audit[1] = audit[1]._replace(passed=False, witness=(("x", "aa"),))
        return audit

    monkeypatch.setattr(kleene_twist, "check_operator_residuated", one_fails)
    report = check_kleene_twist(chain3, 1)
    by_id = {it.check_id: it for it in report.items}
    assert by_id["closure"].passed and by_id["11"].passed
    assert by_id["operator-residuated"].line() == \
        "CHECK (operator-residuated) FAIL witness axiom=%s x=aa" \
        % report.audit[1].check_id
    assert by_id["biconditional"].line() == \
        "CHECK (biconditional) FAIL witness conditions-11-12=PASS " \
        "operator-residuated=FAIL"


def test_chain3_golden_tables(chain3):
    rt = build_restricted_twist(chain3.poset, 1)
    closure, ops = build_restricted_operators(chain3, rt)
    assert closure == CheckItem("closure", True)
    assert emit_tables(ops) == CHAIN3_TABLES


def _designated(s, a):
    return s._replace(designated=a)


def test_example1_a0_diagnostics(example1):
    p = example1.poset
    assert check_condition(_designated(example1, 0), 11).passed
    item12 = check_condition(_designated(example1, 0), 12)
    assert not item12.passed
    assert item12.witness == (("x", "a"),)
    rt = build_restricted_twist(p, 0)
    assert rt.poset.n == 19
    _, closure, ops = check_restricted_closure(example1, rt)
    assert not closure.passed
    assert ops is None
    diag = dict(closure.witness)
    assert diag["op"] == "oimp"
    assert diag["p"] == "a0"
    assert diag["q"] == "01"
    assert diag["member"] == "ha"
    assert diag["pattern"] == "high-low"
    assert diag["compare"] == "a<b*e"
    assert diag["needs"] == "b->d<=a"
    assert diag["breaks"] == "12"


def test_example1_a1_diagnostics(example1):
    p = example1.poset
    item11 = check_condition(_designated(example1, p.index("1")), 11)
    assert not item11.passed
    assert item11.witness == (("x", "a"),)
    assert check_condition(_designated(example1, p.index("1")), 12).passed
    rt = build_restricted_twist(p, p.index("1"))
    assert rt.poset.n == 19
    _, closure, ops = check_restricted_closure(example1, rt)
    assert not closure.passed
    assert ops is None
    diag = dict(closure.witness)
    assert diag["pattern"] == "low-low"
    assert diag["breaks"] == "11"
    assert diag["compare"] == "b*e<a"
    assert diag["needs"] == "a<=b->d"


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
    assert check_restricted_closure(diamond, rt) == (items, None, None)
    report = check_kleene_twist(diamond, 1)
    assert report.assumptions == items
    assert not all_pass(report.assumptions)
    assert report.items == []
    assert report.audit == []
    assert report.operators is None


@pytest.mark.parametrize("verdict, line", [
    (InvolutionVerdict(False, "not an involution", (2,)),
     "CHECK (pseudo-kleene) FAIL witness reason=not an involution w0=a0"),
    (InvolutionVerdict(False, "normality fails", (3, 6)),
     "CHECK (pseudo-kleene) FAIL witness reason=normality fails w0=aa w1=1a"),
])
def test_a_failing_pseudo_kleene_verdict_names_its_witness(
        monkeypatch, chain3, verdict, line):
    # swap is pseudo-Kleene on every restricted twist, so only a forced
    # verdict reaches this line: its reason, then each witness element
    # named in the restricted carrier
    monkeypatch.setattr(kleene_twist, "is_pseudo_kleene",
                        lambda p, mapping: verdict)
    report = check_kleene_twist(chain3, 1)
    assert report.rt.poset.names == CHAIN3_CARRIER
    by_id = {it.check_id: it for it in report.items}
    assert by_id["pseudo-kleene"].line() == line


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
    s = diamond._replace(zero=None)
    with pytest.raises(StructureError):
        check_kleene_twist(s, 1)


@pytest.mark.parametrize("a", [3, -1])
def test_designated_element_must_be_an_element(chain3, a):
    # 3 lies past the carrier, and -1 would build the carrier around
    # element 2 while recording a = -1
    message = "^designated element out of range$"
    with pytest.raises(StructureError, match=message):
        check_kleene_twist(chain3, a)
    with pytest.raises(StructureError, match=message):
        build_restricted_twist(chain3.poset, a)


def test_involution_membership_fails_without_unit_law(chain3):
    # 1->a = 1 breaks (9), and (y,x) leaves the image of
    # (x,y) => (0,1) = {(x->0, x), (1->y, x)} at every carrier pair (x,a)
    # with x->0 != a; the first carrier pair, 0a, is one
    imp = [list(row) for row in chain3.imp]
    imp[2][1] = 2
    s = chain3._replace(imp=tuple(map(tuple, imp)))
    assert not condition_holds(s, 9)[0]
    rt = build_restricted_twist(s.poset, 1)
    assert rt.poset.names[0] == "0a"
    assert check_involution_membership(s, rt) == CheckItem(
        "involution-membership", False, (("p", "0a"),))
    assert check_involution_membership(chain3, rt).passed


@pytest.mark.parametrize("mul, imp, escape", [
    # the first escaping cell, p = q = 02, has odot {00} and oimp {00,10}:
    # both images escape, and odot is read first
    (((0, 2, 0), (1, 0, 1), (1, 1, 2)), ((1, 0, 0), (1, 0, 1), (1, 2, 0)),
     ("odot", (0, 2), (0, 2), (0, 0))),
    # its odot {22} stays; its oimp {01,11} has two members outside the
    # carrier, and the lowest is reported
    (((2, 1, 1), (2, 0, 2), (0, 1, 0)), ((0, 0, 2), (2, 0, 1), (2, 0, 1)),
     ("oimp", (0, 2), (0, 2), (0, 1))),
], ids=["odot-first", "lowest-member"])
def test_escape_scan_order(monkeypatch, mul, imp, escape):
    # build_restricted_operators checks no premise, so these tables need
    # not be residuated; the stand-in for classify_escape returns what it
    # was given
    monkeypatch.setattr(kleene_twist, "classify_escape",
                        lambda s, a, *found: (a, *found))
    s = structure(chain(3), mul, imp, one=2, zero=0)
    rt = build_restricted_twist(s.poset, 2)
    assert rt.members == ((0, 2), (1, 2), (2, 0), (2, 1), (2, 2))
    assert build_restricted_operators(s, rt) == ((2, *escape), None)


def _restricted_reference(p, a):
    """The carrier, order masks and swap of the restricted twist, from the
    definitions: (x,y) is kept when every common lower bound of x, y is
    below a and a is below every common upper bound, and
    (x,y) <= (z,v) iff x <= z and v <= y."""
    n = p.n
    members = [(x, y) for x in range(n) for y in range(n)
               if all(p.leq(w, a) for w in range(n)
                      if p.leq(w, x) and p.leq(w, y))
               and all(p.leq(a, w) for w in range(n)
                       if p.leq(x, w) and p.leq(y, w))]
    up = tuple(sum(1 << j for j, (z, v) in enumerate(members)
                   if p.leq(x, z) and p.leq(v, y))
               for x, y in members)
    down = tuple(sum(1 << i for i, (x, y) in enumerate(members)
                     if p.leq(x, z) and p.leq(v, y))
                 for z, v in members)
    swap = tuple(members.index((y, x)) for x, y in members)
    return tuple(members), up, down, swap


def test_restricted_order_matches_definition():
    from resposet.search import enumerate_posets
    checked = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for a in range(n):
                rt = build_restricted_twist(p, a)
                members, up, down, swap = _restricted_reference(p, a)
                assert rt.members == members
                assert (a, a) in rt.members
                assert (rt.poset.up, rt.poset.down) == (up, down)
                assert rt.swap == swap
                checked += 1
    assert checked == 1 + 2 * 3 + 3 * 19 + 4 * 219


def test_pair_pattern_is_the_full_twist_order():
    # the escape pattern compares a pair with (a,a) on base cones; it must
    # be the full twist's order: (x,y) <= (z,v) when x <= z and v <= y
    from resposet.search import enumerate_posets
    from resposet.twist import full_twist
    checked = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            twist = full_twist(p)
            for a, x, y in itertools.product(range(n), repeat=3):
                pair, center = x * n + y, a * n + a
                assert kleene_twist._pair_pattern(p, a, (x, y)) == {
                    "low": twist.leq(pair, center),
                    "high": twist.leq(center, pair)}, (p.up, a, x, y)
                checked += 1
    assert checked == 1 + 3 * 8 + 19 * 27 + 219 * 64
