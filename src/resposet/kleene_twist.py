"""The restricted twist: pairs whose cones straddle a designated element.

For a designated element a, the carrier keeps the pairs (x, y) with
L(x,y) <= a <= U(x,y), and the restricted twist is the full twist
(twist.full_twist) restricted to that carrier, together with the swap
involution (x,y) |-> (y,x).  Under the assumptions that a is idempotent
and every carrier pair is comparable with (a,a), the set-valued operator
pair restricts to this carrier exactly when conditions (11) and (12)
hold; the checks here verify that equivalence and the accompanying
claims (pseudo-Kleene involution, embedding, involution membership).
The restricted operators are twist.operator_rows on the carrier only,
scanned up to the first image member that leaves the carrier; that escape
becomes the failing closure item, with its case analysis as witness.
Every outcome is part of the report: when an assumption fails, the
report holds the assumption items and nothing else.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .order import Poset, bits, is_kleene, is_pseudo_kleene, lowest, mask_of
from .report import CheckItem, agreement, all_pass
from .residuation import StructureError, check_condition, is_index, \
    named_witness, require_bcrm
from .twist import OperatorStructure, check_embedding, \
    check_operator_residuated, operator_rows, pair_names


class RestrictedTwist(NamedTuple):
    """The carrier pairs in row-major order, the restricted order and swap
    on them, and index: the carrier index of each member's pair index
    x*n + y."""
    base: Poset
    a: int
    members: tuple[tuple[int, int], ...]
    poset: Poset
    swap: tuple[int, ...]
    index: dict


def pair_in_carrier(base, a, x, y):
    """L(x,y) <= a <= U(x,y): L(x,y) inside down[a] and U(x,y) inside
    up[a]."""
    return not (base.down[x] & base.down[y] & ~base.down[a]
                or base.up[x] & base.up[y] & ~base.up[a])


def build_restricted_twist(base, a):
    """Collect the carrier in row-major pair order and restrict the full
    twist's names, cones and the swap involution to it.

    The full twist's cones are products of base cones, up[x] x down[y] for
    (x, y), and so are their restrictions: with F[u] (S[u]) the mask of
    the carrier indices whose pair has first (second) coordinate u, the
    restricted up-cone of (x, y) is the OR of F over up[x] ANDed with the
    OR of S over down[y], and the down-cone is dual.  The names are the
    full twist's (twist.pair_names), read without building its order.
    StructureError unless a is an element of base."""
    n = base.n
    if not is_index(a, n):
        raise StructureError("designated element out of range")
    members = tuple((x, y) for x in range(n) for y in range(n)
                    if pair_in_carrier(base, a, x, y))
    index = {x * n + y: i for i, (x, y) in enumerate(members)}
    first, second = [0] * n, [0] * n
    for i, (x, y) in enumerate(members):
        first[x] |= 1 << i
        second[y] |= 1 << i
    # the OR of first (second) over each base up-cone, then down-cone
    fu, fd, su, sd = ([reduce(or_, map(by.__getitem__, bits(c)), 0)
                       for c in cones]
                      for by in (first, second)
                      for cones in (base.up, base.down))
    names = pair_names(base)
    poset = Poset(tuple(map(names.__getitem__, index)),
                  tuple(fu[x] & sd[y] for x, y in members),
                  tuple(fd[x] & su[y] for x, y in members))
    swap = tuple(index[y * n + x] for x, y in members)
    return RestrictedTwist(base, a, members, poset, swap, index)


def check_restriction_assumptions(s, rt):
    """The designated element must be idempotent and every carrier pair
    comparable with (a, a)."""
    a = rt.a
    items = []
    aa = s.mul[a][a]
    items.append(CheckItem(
        "assumption-idempotence", aa == a,
        named_witness(s.names, ("a", "a*a"), None if aa == a else (a, aa))))
    # (a, a) is always in the carrier: L(a,a) = down(a) lies below a and
    # U(a,a) = up(a) above it
    center = rt.index[a * rt.base.n + a]
    p = rt.poset
    bad = p.full & ~(p.up[center] | p.down[center])
    items.append(CheckItem("assumption-comparability", not bad,
                           (("p", p.names[lowest(bad)]),) if bad else ()))
    return items


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
    # whether the pair (x, y) is below (a,a), and above it, in the twist
    # order: (x, y) <= (a, a) when x <= a and a <= y
    x, y = pair
    return {"low": base.leq(x, a) and base.leq(a, y),
            "high": base.leq(a, x) and base.leq(y, a)}


class EscapeCaseError(Exception):
    """An escape that matches no row of the escape case table."""


def classify_escape(s, a, op, ppair, qpair, member):
    """The failing closure item for the first image member that leaves the
    carrier.  Its witness names the operator, the operand pairs p = (b,c)
    and q = (d,e) and the member; how p and q sit against (a,a) (pattern,
    e.g. "low-high" for p <= (a,a) <= q); which strict product comparison
    drives the escape; and which comparability inequality fails, implying
    which of conditions (11)/(12) it breaks.  Exactly one row of the case
    table fires under the standing assumptions (else EscapeCaseError)."""
    base = s.poset
    names, n = pair_names(base), base.n
    witness = (("op", op), ("p", names[ppair[0] * n + ppair[1]]),
               ("q", names[qpair[0] * n + qpair[1]]),
               ("member", names[member[0] * n + member[1]]))
    p_pattern = _pair_pattern(base, a, ppair)
    q_pattern = _pair_pattern(base, a, qpair)
    for case in _escape_cases(s, a, *ppair, *qpair):
        case_op, case_member, pp, qp, cmp_, needs, breaks = case
        if (case_op == op and case_member == member and p_pattern[pp]
                and q_pattern[qp] and cmp_[1] and not needs[1]):
            return CheckItem("closure", False, witness + (
                ("pattern", "%s-%s" % (pp, qp)), ("compare", cmp_[0]),
                ("needs", needs[0]), ("breaks", str(breaks))))
    raise EscapeCaseError("operator escape matches no closure case: "
                          + " ".join("%s=%s" % kv for kv in witness))


def build_restricted_operators(s, rt):
    """The closure item and the operator tables (operator_rows) over the
    carrier, each image the mask of its members' carrier indices.  The rows
    come one carrier pair at a time, row-major, scanned odot before oimp,
    image members ascending: the first member outside the carrier stops
    the scan, which returns that escape's failing closure item and None."""
    n = rt.base.n
    index = rt.index
    outside = ~mask_of(index)
    odot, oimp = [], []
    carrier_mask = {}   # the carrier-index mask of each image scanned
    for (x, y), rows in zip(rt.members, operator_rows(s, index, index)):
        for (z, v), *images in zip(rt.members, *rows):
            for op, image in zip(("odot", "oimp"), images):
                if image & outside:
                    return classify_escape(s, rt.a, op, (x, y), (z, v), divmod(
                        lowest(image & outside), n)), None
                if image not in carrier_mask:
                    carrier_mask[image] = mask_of(map(index.__getitem__,
                                                      bits(image)))
        for row, table in zip(rows, (odot, oimp)):
            table.append(tuple(map(carrier_mask.__getitem__, row)))
    return CheckItem("closure", True), OperatorStructure(
        rt.poset, tuple(odot), tuple(oimp), index[s.zero * n + s.one],
        index[s.one * n + s.zero])


def check_restricted_closure(s, rt):
    """Check the standing assumptions, then build the restricted operators:
    the assumption items, then build_restricted_operators' pair (closure
    item, operators), or (None, None) when an assumption fails."""
    assumptions = check_restriction_assumptions(s, rt)
    if not all_pass(assumptions):
        return assumptions, None, None
    return (assumptions, *build_restricted_operators(s, rt))


def check_involution_membership(s, rt):
    """(y,x) must be one of the image members of (x,y) => (0,1)."""
    n = s.poset.n
    rows = operator_rows(s, rt.index, [s.zero * n + s.one])
    for (x, y), p, (_, (image,)) in zip(rt.members, rt.poset.names, rows):
        if not image >> (y * n + x) & 1:
            return CheckItem("involution-membership", False, (("p", p),))
    return CheckItem("involution-membership", True)


class KleeneTwistReport(NamedTuple):
    """What check_kleene_twist established: the restricted twist, the
    assumption items, the report items, the operator audit and the
    restricted operator tables.  When an assumption fails there are no
    items; the audit and operators exist only when closure holds (an
    empty audit and None otherwise)."""
    rt: RestrictedTwist
    assumptions: list
    items: list
    audit: list
    operators: OperatorStructure | None


def check_kleene_twist(s, a):
    """Full restricted-twist report for a bounded commutative residuated
    monoid and a designated element.  When a standing assumption fails
    the report holds only the assumption items.

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
    require_bcrm(s, "restricted twist")
    rt = build_restricted_twist(s.poset, a)
    assumptions, closure_item, ops = check_restricted_closure(s, rt)
    if closure_item is None:
        return KleeneTwistReport(rt, assumptions, [], [], None)
    designated = s._replace(designated=a)
    items = [check_condition(designated, 11),
             check_condition(designated, 12), closure_item]
    conds_hold = items[0].passed and items[1].passed

    audit = []
    if closure_item.passed:
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
            (("axiom", "closure"),
             ("breaks", dict(closure_item.witness)["breaks"]))))

    residuated = items[-1].passed
    items.append(agreement("biconditional", conds_hold == residuated,
                           (("conditions-11-12", conds_hold),
                            ("operator-residuated", residuated))))

    pk = is_pseudo_kleene(rt.poset, rt.swap)
    items.append(CheckItem(
        "pseudo-kleene", pk.ok,
        () if pk.ok else (("reason", pk.reason),)
        + named_witness(rt.poset.names, ("w0", "w1"), pk.witness)))
    kl = is_kleene(rt.poset, rt.swap, pk)
    items.append(CheckItem("kleene", kl.ok, gating=False))
    n = s.poset.n
    items.append(check_embedding(s.poset, rt.poset, a,
                                 [rt.index[x * n + a] for x in range(n)]))
    items.append(check_involution_membership(s, rt))
    return KleeneTwistReport(rt, assumptions, items, audit, ops)
