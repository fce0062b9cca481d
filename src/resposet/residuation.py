"""Binary-operation structures on finite posets and the numbered
residuation conditions (1) through (13).

A structure couples a poset with a product table (mul), an implication
table (imp), a unit, and optionally a zero and a designated element.
Tables are row-major tuples of element indices: mul[x][y] is x*y and
imp[y][z] is y->z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .order import bits, bounds, mask_of, maximal_elements, popcount
from .report import CheckItem


class StructureError(ValueError):
    """The structure's ingredients are missing or inconsistent."""


def _as_table(rows, n):
    table = tuple(tuple(r) for r in rows)
    if len(table) != n or any(len(r) != n for r in table):
        raise StructureError("table is not %d x %d" % (n, n))
    for r in table:
        for v in r:
            if not 0 <= v < n:
                raise StructureError("table entry %r out of range" % (v,))
    return table


@dataclass(frozen=True)
class ResStructure:
    poset: Poset
    mul: tuple[tuple[int, ...], ...] | None
    imp: tuple[tuple[int, ...], ...] | None
    one: int
    zero: int | None = None
    designated: int | None = None

    @property
    def names(self):
        return self.poset.names


def structure(poset, mul=None, imp=None, one=None, zero=None, designated=None):
    """Validating constructor.  A declared zero must be the least element
    and then the unit must be the greatest (bounded means bounded by the
    two constants, not merely that bounds happen to exist)."""
    n = poset.n
    if one is None or not 0 <= one < n:
        raise StructureError("unit element required")
    mul = None if mul is None else _as_table(mul, n)
    imp = None if imp is None else _as_table(imp, n)
    if zero is not None:
        bot, top = bounds(poset)
        if bot != zero:
            raise StructureError(
                "zero %s is not the least element" % poset.names[zero])
        if top != one:
            raise StructureError(
                "unit %s is not the greatest element" % poset.names[one])
    if designated is not None and not 0 <= designated < n:
        raise StructureError("designated element out of range")
    return ResStructure(poset, mul, imp, one, zero, designated)


def _need(s, mul=False, imp=False, zero=False, designated=False):
    if mul and s.mul is None:
        raise StructureError("condition needs a product table")
    if imp and s.imp is None:
        raise StructureError("condition needs an implication table")
    if zero and s.zero is None:
        raise StructureError("condition needs a zero")
    if designated and s.designated is None:
        raise StructureError("condition needs a designated element")


# Each condition function returns None on success or the witness tuple of
# element indices, scanned in lexicographic order with loop variables in
# the order they appear in the condition.

def _monotone_failure(p, t, antitone=False):
    """Conditions (1), (2), (4) and (5): x <= y must give t[z][x] <= t[z][y]
    for every z (t[z][y] <= t[z][x] when antitone), where t is an operation
    table or its transpose.  The witness is (x, y, z)."""
    up = p.up
    cone = p.down if antitone else up
    for x in range(p.n):
        for y in bits(up[x]):
            for z in range(p.n):
                if not cone[t[z][x]] >> t[z][y] & 1:
                    return (x, y, z)
    return None


def _transpose(t):
    return tuple(zip(*t))


def _cond3(s):
    p, m, i = s.poset, s.mul, s.imp
    up, n = p.up, p.n
    for x in range(n):
        upx = up[x]
        for y in range(n):
            mxy_up = up[m[x][y]]
            iy = i[y]
            for z in range(n):
                if (mxy_up >> z ^ upx >> iy[z]) & 1:
                    return (x, y, z)
    return None


def _cond6(s):
    for x in range(s.poset.n):
        if s.mul[x][s.one] != x:
            return (x,)
    return None


def _cond7(s):
    p, m = s.poset, s.mul
    for x in range(p.n):
        for y in range(p.n):
            if not (p.leq(m[x][y], x) and p.leq(m[x][y], y)):
                return (x, y)
    return None


def _cond8(s):
    m, i = s.mul, s.imp
    for x in range(s.poset.n):
        for y in range(s.poset.n):
            for z in range(s.poset.n):
                if i[m[x][y]][z] != i[x][i[y][z]]:
                    return (x, y, z)
    return None


def _cond9(s):
    for x in range(s.poset.n):
        if s.imp[s.one][x] != x:
            return (x,)
    return None


def _cond10(s):
    p, i = s.poset, s.imp
    for x in range(p.n):
        for y in range(p.n):
            if not p.leq(x, i[y][x]):
                return (x, y)
    return None


def _cond11(s):
    p, m, a = s.poset, s.mul, s.designated
    for x in range(p.n):
        ax = m[a][x]
        if p.lt(ax, a) and ax != s.zero:
            return (x,)
    return None


def _cond12(s):
    p, i, a = s.poset, s.imp, s.designated
    for x in range(p.n):
        if p.lt(a, x) and i[x][a] != a:
            return (x,)
    return None


def _cond13(s):
    p, m, a = s.poset, s.mul, s.designated
    for x in bits(p.up[a]):
        for y in bits(p.up[a]):
            if not p.leq(a, m[x][y]):
                return (x, y)
    return None


_CONDITIONS = {
    1: (lambda s: _monotone_failure(s.poset, s.mul),
        ("x", "y", "z"), dict(mul=True)),
    2: (lambda s: _monotone_failure(s.poset, _transpose(s.mul)),
        ("x", "y", "z"), dict(mul=True)),
    3: (_cond3, ("x", "y", "z"), dict(mul=True, imp=True)),
    4: (lambda s: _monotone_failure(s.poset, s.imp),
        ("x", "y", "z"), dict(imp=True)),
    5: (lambda s: _monotone_failure(s.poset, _transpose(s.imp), True),
        ("x", "y", "z"), dict(imp=True)),
    6: (_cond6, ("x",), dict(mul=True)),
    7: (_cond7, ("x", "y"), dict(mul=True)),
    8: (_cond8, ("x", "y", "z"), dict(mul=True, imp=True)),
    9: (_cond9, ("x",), dict(imp=True)),
    10: (_cond10, ("x", "y"), dict(imp=True)),
    11: (_cond11, ("x",), dict(mul=True, zero=True, designated=True)),
    12: (_cond12, ("x",), dict(imp=True, designated=True)),
    13: (_cond13, ("x", "y"), dict(mul=True, designated=True)),
}

CONDITION_IDS = tuple(sorted(_CONDITIONS))


def condition_holds(s, k):
    """Truth of condition k with its first counterexample, as (ok, witness)."""
    fn, _, needs = _CONDITIONS[k]
    _need(s, **needs)
    w = fn(s)
    return w is None, w


def _named(s, k, w):
    """Witness indices of condition k as (variable, element name) pairs."""
    if w is None:
        return ()
    return tuple((v, s.poset.names[i]) for v, i in zip(_CONDITIONS[k][1], w))


def check_condition(s, k):
    ok, w = condition_holds(s, k)
    return CheckItem(str(k), ok, _named(s, k, w))


def _has(s, needs):
    try:
        _need(s, **needs)
    except StructureError:
        return False
    return True


def condition_applicable(s, k):
    return _has(s, _CONDITIONS[k][2])


def is_commutative(s):
    _need(s, mul=True)
    m = s.mul
    for x in range(s.poset.n):
        for y in range(x + 1, s.poset.n):
            if m[x][y] != m[y][x]:
                return False, (x, y)
    return True, None


def is_associative(s):
    _need(s, mul=True)
    m = s.mul
    for x in range(s.poset.n):
        for y in range(s.poset.n):
            for z in range(s.poset.n):
                if m[m[x][y]][z] != m[x][m[y][z]]:
                    return False, (x, y, z)
    return True, None


@dataclass(frozen=True)
class Classification:
    left_residuated: bool
    bounded: bool
    commutative: bool
    associative: bool

    @property
    def crm(self):
        return self.left_residuated and self.commutative and self.associative

    @property
    def bcrm(self):
        return self.crm and self.bounded

    def summary(self):
        if self.bcrm:
            return "bounded commutative residuated monoid"
        if self.crm:
            return "commutative residuated monoid"
        if self.left_residuated:
            return "left-residuated groupoid"
        return "not a left-residuated groupoid"


@functools.lru_cache(maxsize=None)
def classify(s):
    """Structure flags; left-residuated means (3) and (6) both hold."""
    _need(s, mul=True, imp=True)
    lrg = _cond3(s) is None and _cond6(s) is None
    return Classification(
        left_residuated=lrg,
        bounded=s.zero is not None,
        commutative=is_commutative(s)[0],
        associative=is_associative(s)[0],
    )


@dataclass(frozen=True)
class SynthesisResult:
    ok: bool
    imp: tuple[tuple[int, ...], ...] | None = None
    kind: str = ""          # "empty", "no-maximum" or "not-principal"
    at: tuple[int, int] | None = None
    candidates: int = 0     # bitmask: the solution set at the failure point


def residuum_row(p, col):
    """Recover y->z for one product column col[x] = x*y: row[z] is the
    greatest x with col[x] <= z.

    The recovery is legitimate only when the solution set is the full
    principal down-set of that greatest element; a unique maximal element
    alone is not enough for the adjunction to hold, so that case is its
    own failure kind.  Returns (row, None), or (None, (kind, z,
    candidates)) at the first z that fails.
    """
    row = []
    for z in range(p.n):
        below = p.down[z]
        sol = mask_of(x for x in range(p.n) if below >> col[x] & 1)
        if not sol:
            return None, ("empty", z, 0)
        tops = maximal_elements(p, sol)
        if popcount(tops) != 1:
            return None, ("no-maximum", z, tops)
        top = next(bits(tops))
        if sol != p.down[top]:
            return None, ("not-principal", z, sol)
        row.append(top)
    return tuple(row), None


def synthesize_residuum(poset, mul):
    """Recover the implication table from the product, column by column
    (see residuum_row)."""
    mul = _as_table(mul, poset.n)
    imp = []
    for y in range(poset.n):
        row, failure = residuum_row(poset, tuple(r[y] for r in mul))
        if failure is not None:
            kind, z, candidates = failure
            return SynthesisResult(False, kind=kind, at=(y, z),
                                   candidates=candidates)
        imp.append(row)
    return SynthesisResult(True, imp=tuple(imp))


@dataclass(frozen=True)
class LawVerdict:
    law_id: str
    status: str        # "CONFIRMED", "VACUOUS" or "REFUTED"
    witness: tuple[tuple[str, str], ...] = ()


def _flag_comm(s):
    return is_commutative(s)[0]


def _flag_assoc(s):
    return is_associative(s)[0]


def _flag_idempotent_designated(s):
    return s.mul[s.designated][s.designated] == s.designated


def _flag_unit_top(s):
    # the unit must be the greatest element: the derivation of (7) rests
    # on y <= 1 for every y, not just on the unit law itself
    return s.poset.down[s.one] == s.poset.full


# The derived laws (Lemma-style implications between the conditions):
# law id, premise tests, conclusion condition, ingredients.  A premise is a
# condition number or a structure flag.  Laws needing a designated element
# are evaluated with each element designated in turn by the sweeps.
LAWS = (
    ("5-from-1-3", (1, 3), 5, dict(mul=True, imp=True)),
    ("7-from-comm-1-6-top", (_flag_unit_top, _flag_comm, 1, 6), 7,
     dict(mul=True)),
    ("8-from-assoc-2-3", (_flag_assoc, 2, 3), 8, dict(mul=True, imp=True)),
    ("2-from-3-6", (3, 6), 2, dict(mul=True, imp=True)),
    ("4-from-3-6", (3, 6), 4, dict(mul=True, imp=True)),
    ("9-from-3-6", (3, 6), 9, dict(mul=True, imp=True)),
    ("10-from-5-9-top", (_flag_unit_top, 5, 9), 10, dict(imp=True)),
    ("13-from-idempotent", (_flag_idempotent_designated, 1, 2), 13,
     dict(mul=True, designated=True)),
)


def evaluate_law(s, law):
    """One entry of LAWS on one structure that has its ingredients:
    ("VACUOUS", None) when a premise fails, else ("CONFIRMED", None) or
    ("REFUTED", first witness of the conclusion)."""
    _, premises, conclusion, _ = law
    for prem in premises:
        if not (prem(s) if callable(prem) else condition_holds(s, prem)[0]):
            return "VACUOUS", None
    ok, w = condition_holds(s, conclusion)
    return ("CONFIRMED", None) if ok else ("REFUTED", w)


def check_derived_laws(s):
    """Evaluate every applicable implication law on this one structure.

    A law whose premises fail here is VACUOUS; with premises satisfied the
    conclusion must hold (CONFIRMED) or the law is REFUTED with the
    conclusion's witness.  REFUTED should never happen; callers treat it
    as an alarm, not a routine failure.
    """
    out = []
    for law in LAWS:
        law_id, _, conclusion, needs = law
        if _has(s, needs):
            status, w = evaluate_law(s, law)
            out.append(LawVerdict(law_id, status, _named(s, conclusion, w)))
    return out
