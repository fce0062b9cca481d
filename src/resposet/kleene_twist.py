"""The restricted twist: pairs whose cones straddle a designated element.

For a designated element a, the carrier keeps the pairs (x, y) with
L(x,y) <= a <= U(x,y) under the twist order, together with the swap
involution (x,y) |-> (y,x).  Under the assumptions that a is idempotent
and every carrier pair is comparable with (a,a), the set-valued operator
pair restricts to this carrier exactly when conditions (11) and (12)
hold; the checks here verify that equivalence and the accompanying
claims (pseudo-Kleene involution, embedding, involution membership).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .order import Poset, is_kleene, is_pseudo_kleene, set_leq
from .report import CheckItem, all_pass
from .residuation import StructureError, check_condition, classify
from .twist import OperatorStructure, check_operator_residuated, \
    operator_implication, operator_product, pair_name, pair_names


class AssumptionError(Exception):
    """The restricted twist's standing assumptions fail; carries the
    restricted twist and the assumption check items so callers can render
    them."""

    def __init__(self, rt, items):
        super().__init__("restricted twist assumptions fail")
        self.rt = rt
        self.items = items


@dataclass(frozen=True)
class RestrictedTwist:
    base: Poset
    a: int
    members: tuple[tuple[int, int], ...]
    poset: Poset
    swap: tuple[int, ...]

    def try_member(self, pair):
        try:
            return self.members.index(pair)
        except ValueError:
            return None


def pair_in_carrier(base, a, x, y):
    lo = base.down[x] & base.down[y]
    hi = base.up[x] & base.up[y]
    return set_leq(base, lo, 1 << a) and set_leq(base, 1 << a, hi)


def build_restricted_twist(base, a):
    """Collect the carrier in row-major pair order and restrict the twist
    order and swap involution to it."""
    members = tuple((x, y)
                    for x in range(base.n) for y in range(base.n)
                    if pair_in_carrier(base, a, x, y))
    index = {pair: i for i, pair in enumerate(members)}
    m = len(members)
    up = [0] * m
    down = [0] * m
    for i, (x, y) in enumerate(members):
        for j, (z, v) in enumerate(members):
            if base.leq(x, z) and base.leq(v, y):
                up[i] |= 1 << j
                down[j] |= 1 << i
    swap = tuple(index[(y, x)] for x, y in members)
    return RestrictedTwist(base, a, members,
                           Poset(pair_names(base, members), tuple(up),
                                 tuple(down)),
                           swap)


def check_restriction_assumptions(s, rt):
    """The designated element must be idempotent and every carrier pair
    comparable with (a, a)."""
    a = rt.a
    items = []
    aa = s.mul[a][a]
    items.append(CheckItem(
        "assumption-idempotence", aa == a,
        () if aa == a else
        (("a", s.names[a]), ("a*a", s.names[aa]))))
    center = rt.try_member((a, a))
    bad = None
    if center is None:
        bad = ("carrier", "(%s,%s) missing" % (s.names[a], s.names[a]))
    else:
        p = rt.poset
        for i in range(p.n):
            if not (p.leq(i, center) or p.leq(center, i)):
                bad = ("p", p.names[i])
                break
    items.append(CheckItem("assumption-comparability", bad is None,
                           () if bad is None else (bad,)))
    return items


def _with_designated(s, a):
    return dataclasses.replace(s, designated=a)


def check_condition_11(s, a):
    return check_condition(_with_designated(s, a), 11)


def check_condition_12(s, a):
    return check_condition(_with_designated(s, a), 12)


@dataclass(frozen=True)
class ClosureDiagnostic:
    """First operator image member that leaves the carrier.

    The case fields describe the escape in terms of the operand pairs
    p = (b,c) and q = (d,e): how p and q sit against (a,a), which strict
    product comparison drives the escape, and which comparability
    inequality fails, implying which of conditions (11)/(12) is broken.
    """
    op: str                    # "odot" or "oimp"
    p: tuple[int, int]
    q: tuple[int, int]
    member: tuple[int, int]
    pattern: str               # e.g. "low-high" for p <= (a,a) <= q
    compare: str
    needs: str
    breaks: int                # 11 or 12


# Escape case table.  Operands p=(b,c), q=(d,e); "low" means the pair is
# below (a,a) in the twist order, "high" above.  Each row: operator,
# member formula, p/q patterns, strict product comparison, comparability
# requirement whose failure expels the member, implied condition.

def _escape_cases(s, a, b, c, d, e):
    m, i = s.mul, s.imp
    p = s.poset
    bd, be = m[b][d], m[b][e]
    return (
        ("oimp", (i[b][d], be), "low", "low",
         ("b*e<a", p.lt(be, a)), ("a<=b->d", p.leq(a, i[b][d])), 11),
        ("odot", (bd, i[b][e]), "low", "high",
         ("b*d<a", p.lt(bd, a)), ("a<=b->e", p.leq(a, i[b][e])), 11),
        ("odot", (bd, i[d][c]), "high", "low",
         ("b*d<a", p.lt(bd, a)), ("a<=d->c", p.leq(a, i[d][c])), 11),
        ("oimp", (i[b][d], be), "high", "low",
         ("a<b*e", p.lt(a, be)), ("b->d<=a", p.leq(i[b][d], a)), 12),
        ("oimp", (i[e][c], be), "high", "low",
         ("a<b*e", p.lt(a, be)), ("e->c<=a", p.leq(i[e][c], a)), 12),
        ("odot", (bd, i[b][e]), "high", "high",
         ("a<b*d", p.lt(a, bd)), ("b->e<=a", p.leq(i[b][e], a)), 12),
        ("odot", (bd, i[d][c]), "high", "high",
         ("a<b*d", p.lt(a, bd)), ("d->c<=a", p.leq(i[d][c], a)), 12),
        ("oimp", (i[e][c], be), "high", "high",
         ("b*e<a", p.lt(be, a)), ("a<=e->c", p.leq(a, i[e][c])), 11),
    )


def _pair_pattern(base, a, pair):
    x, y = pair
    low = base.leq(x, a) and base.leq(a, y)
    high = base.leq(a, x) and base.leq(y, a)
    return low, high


def classify_escape(s, a, op, ppair, qpair, member):
    """Match the escaping member against the case table; exactly one row
    should fire when the standing assumptions hold."""
    b, c = ppair
    d, e = qpair
    p_low, p_high = _pair_pattern(s.poset, a, ppair)
    q_low, q_high = _pair_pattern(s.poset, a, qpair)
    for case_op, case_member, pp, qp, cmp_, needs, breaks in \
            _escape_cases(s, a, b, c, d, e):
        if case_op != op or case_member != member:
            continue
        if pp == "low" and not p_low:
            continue
        if pp == "high" and not p_high:
            continue
        if qp == "low" and not q_low:
            continue
        if qp == "high" and not q_high:
            continue
        cmp_label, cmp_holds = cmp_
        needs_label, needs_holds = needs
        if cmp_holds and not needs_holds:
            pattern = "%s-%s" % (pp, qp)
            return ClosureDiagnostic(op, ppair, qpair, member, pattern,
                                     cmp_label, needs_label, breaks)
    raise AssertionError("operator escape matches no closure case")


def _assumed(s, rt):
    """The assumption items, raising AssumptionError if one fails."""
    items = check_restriction_assumptions(s, rt)
    if not all_pass(items):
        raise AssumptionError(rt, items)
    return items


def check_restricted_closure(s, rt):
    """Check the standing assumptions (AssumptionError when they fail),
    then scan for the first image member outside the carrier."""
    _assumed(s, rt)
    return _first_escape(s, rt)


def _first_escape(s, rt):
    """Scan all operand pairs (row-major, product before implication) for
    the first image member outside the carrier; assumes the standing
    assumptions hold."""
    base = rt.base
    for ppair in rt.members:
        for qpair in rt.members:
            x, y = ppair
            z, v = qpair
            for op, image in (
                    ("odot", operator_product(s, x, y, z, v)),
                    ("oimp", operator_implication(s, x, y, z, v))):
                for idx in image:
                    member = divmod(idx, base.n)
                    if rt.try_member(member) is None:
                        diag = classify_escape(s, rt.a, op, ppair, qpair,
                                               member)
                        witness = (
                            ("op", op),
                            ("p", pair_name(base, ppair)),
                            ("q", pair_name(base, qpair)),
                            ("member", pair_name(base, member)),
                            ("pattern", diag.pattern),
                            ("compare", diag.compare),
                            ("needs", diag.needs),
                            ("breaks", str(diag.breaks)),
                        )
                        return CheckItem("closure", False, witness), diag
    return CheckItem("closure", True), None


def build_restricted_operators(s, rt):
    """Operator tables over the carrier, in carrier indices.  Only valid
    once closure has been established."""
    base = rt.base
    index = {pair: i for i, pair in enumerate(rt.members)}
    odot = []
    oimp = []
    for (x, y) in rt.members:
        drow = []
        irow = []
        for (z, v) in rt.members:
            drow.append(tuple(sorted(
                index[divmod(u, base.n)]
                for u in operator_product(s, x, y, z, v))))
            irow.append(tuple(sorted(
                index[divmod(u, base.n)]
                for u in operator_implication(s, x, y, z, v))))
        odot.append(tuple(drow))
        oimp.append(tuple(irow))
    zero = index[(s.zero, s.one)]
    one = index[(s.one, s.zero)]
    return OperatorStructure(rt.poset, tuple(odot), tuple(oimp), zero, one)


def check_restricted_embedding(s, rt):
    """x maps to (x, a): every image pair must be in the carrier and the
    map must preserve and reflect order."""
    base = rt.base
    a = rt.a
    image = []
    for x in range(base.n):
        i = rt.try_member((x, a))
        if i is None:
            return CheckItem("embedding", False,
                             (("x", base.names[x]),
                              ("image", pair_name(base, (x, a))),
                              ("missing", "true")))
        image.append(i)
    for x in range(base.n):
        for y in range(base.n):
            if base.leq(x, y) != rt.poset.leq(image[x], image[y]):
                return CheckItem(
                    "embedding", False,
                    (("x", base.names[x]), ("y", base.names[y])))
    return CheckItem("embedding", True)


def check_involution_membership(s, rt):
    """(y,x) must be one of the image members of (x,y) => (0,1)."""
    for (x, y) in rt.members:
        image = operator_implication(s, x, y, s.zero, s.one)
        target = y * s.poset.n + x
        if target not in image:
            return CheckItem("involution-membership", False,
                             (("p", pair_name(s.poset, (x, y))),))
    return CheckItem("involution-membership", True)


@dataclass(frozen=True)
class KleeneTwistReport:
    """What check_kleene_twist established: the restricted twist, the
    (passing) assumption items, the report items, the operator audit and
    the restricted operator tables (the last two only when closure
    holds: an empty audit and None otherwise)."""
    rt: RestrictedTwist
    assumptions: list
    items: list
    audit: list
    operators: OperatorStructure | None


def check_kleene_twist(s, a):
    """Full restricted-twist report for a bounded commutative residuated
    monoid and a designated element; AssumptionError when the standing
    assumptions fail.

    Items, in order: conditions (11) and (12); closure of the operator
    images; the five-point operator-residuation audit on the restricted
    structure (closure and audit verified independently; the combined
    verdict is the operator-residuated line); the biconditional
    [(11) and (12)] iff [closed and audited]; the pseudo-Kleene and
    Kleene involution checks; the embedding; and involution membership.
    The Kleene line is informational (not claimed by the equivalence).
    The biconditional is checked over every small monoid by the
    restricted-twist-biconditional sweep.
    """
    flags = classify(s)
    if not flags.bcrm:
        raise StructureError(
            "restricted twist needs a bounded commutative residuated monoid"
            " (structure is %s)" % flags.summary())
    rt = build_restricted_twist(s.poset, a)
    assumptions = _assumed(s, rt)
    closure_item, diag = _first_escape(s, rt)

    items = [check_condition_11(s, a), check_condition_12(s, a), closure_item]
    conds_hold = items[0].passed and items[1].passed

    ops = None
    audit = []
    if closure_item.passed:
        ops = build_restricted_operators(s, rt)
        audit = check_operator_residuated(ops)
        audit_ok = all_pass(audit)
        witness = ()
        if not audit_ok:
            first = next(it for it in audit if not it.passed)
            witness = (("axiom", first.check_id),) + first.witness
        items.append(CheckItem("operator-residuated", audit_ok, witness))
    else:
        items.append(CheckItem(
            "operator-residuated", False,
            (("axiom", "closure"), ("breaks", str(diag.breaks)))))

    residuated = items[-1].passed
    items.append(CheckItem(
        "biconditional", conds_hold == residuated,
        () if conds_hold == residuated else
        (("conditions-11-12", "PASS" if conds_hold else "FAIL"),
         ("operator-residuated", "PASS" if residuated else "FAIL"))))

    pk = is_pseudo_kleene(rt.poset, rt.swap)
    items.append(CheckItem(
        "pseudo-kleene", pk.ok,
        () if pk.ok else ((("reason", pk.reason),) + tuple(
            ("w%d" % k, rt.poset.names[i])
            for k, i in enumerate(pk.witness)))))
    kl = is_kleene(rt.poset, rt.swap, pk)
    items.append(CheckItem("kleene", kl.ok, gating=False))
    items.append(check_restricted_embedding(s, rt))
    items.append(check_involution_membership(s, rt))
    return KleeneTwistReport(rt, assumptions, items, audit, ops)
