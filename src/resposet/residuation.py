"""Binary-operation structures on finite posets and the table of
single-structure conditions.

A structure couples a poset with a product table (mul), an implication
table (imp), a unit, and optionally a zero and a designated element.
Tables are row-major tuples of element indices: mul[x][y] is x*y and
imp[y][z] is y->z.

Every single-structure verdict is a row of one table: the numbered
residuation conditions (1) through (13), and the named rows
"commutative", "associative", "unit-top" (the unit is the greatest
element) and "idempotent" (the designated a has a*a = a) that the
derived laws take as premises.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .order import (Poset, _monotone_failure, adjunction_failure, bits,
                    bounds, check_names, is_index, lowest, mask_of,
                    maximal_elements)
from .report import CheckItem


class StructureError(ValueError):
    """The structure's ingredients are missing or inconsistent."""


def as_rows(table):
    """table as a tuple of row tuples, or () if it or a row is no sequence."""
    try:
        return tuple(map(tuple, table))
    except TypeError:
        return ()


def require_square(table, n, label):
    """The rows table (as_rows); StructureError unless it is n x n."""
    if len(table) != n or any(len(row) != n for row in table):
        raise StructureError("%s is not %d x %d" % (label, n, n))
    return table


def _as_table(rows, n):
    table = require_square(as_rows(rows), n, "table")
    for r in table:
        for v in r:
            if not is_index(v, n):
                raise StructureError("table entry %r out of range" % (v,))
    return table


class ResStructure(NamedTuple):
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
    """Validating constructor for input from outside the package (the
    parser, library callers); the records the package builds itself are
    valid by construction and taken as given.  A declared zero must be the
    least element and then the unit must be the greatest (bounded means
    bounded by the two constants, not merely that bounds happen to exist)."""
    n = poset.n
    check_names(poset.names)
    if not is_index(one, n):
        raise StructureError("unit element required")
    for label, v in (("zero", zero), ("designated", designated)):
        if v is not None and not is_index(v, n):
            raise StructureError("%s element out of range" % label)
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
    return ResStructure(poset, mul, imp, one, zero, designated)


_INGREDIENTS = {"mul": "a product table", "imp": "an implication table",
                "one": "a unit", "zero": "a zero",
                "designated": "a designated element"}


def _missing(s, needs):
    """The first ingredient of needs (keys of _INGREDIENTS, listed in its
    order) that s lacks, or None."""
    for k in needs:
        if getattr(s, k) is None:
            return k
    return None


# Each condition function returns None on success or the witness tuple of
# element indices, scanned in lexicographic order with loop variables in
# the order they appear in the condition.

def _transpose(t):
    return tuple(zip(*t))


def adjunction_args(p, cols, rows):
    """The arguments with which order.adjunction_failure decides (3) on
    the columns y of mul in cols and the rows y of imp in rows: each z
    seeded at its one element y->z, and above is up, since x*y <= z says
    z is in up[x*y].  The lift (twist._lift) decides its columns so too."""
    zbits = _zbits(p.n)
    return p, cols, (zip(row, zbits) for row in rows), p.up


@functools.lru_cache(maxsize=None)
def _zbits(n):
    """1 << z for each z < n, built once per size."""
    return tuple(1 << z for z in range(n))


def _cond3(s):
    """x*y <= z iff x <= y->z (adjunction_args)."""
    return adjunction_failure(*adjunction_args(s.poset, zip(*s.mul), s.imp))


def _cond6(s):
    for x, row in enumerate(s.mul):
        if row[s.one] != x:
            return (x,)
    return None


def _cond7(s):
    p, m, n = s.poset, s.mul, s.poset.n
    for x in range(n):
        for y in range(n):
            if not (p.leq(m[x][y], x) and p.leq(m[x][y], y)):
                return (x, y)
    return None


def _cond8(s):
    m, i, n = s.mul, s.imp, s.poset.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if i[m[x][y]][z] != i[x][i[y][z]]:
                    return (x, y, z)
    return None


def _cond9(s):
    for x, v in enumerate(s.imp[s.one]):
        if v != x:
            return (x,)
    return None


def _cond10(s):
    p, i, n = s.poset, s.imp, s.poset.n
    for x in range(n):
        for y in range(n):
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


def commutativity_failure(t):
    """The first (x, y) with x < y, row-major, where t[x][y] != t[y][x];
    None when the table is symmetric."""
    for x in range(len(t)):
        for y in range(x + 1, len(t)):
            if t[x][y] != t[y][x]:
                return x, y
    return None


def _associativity_failure(s):
    m, n = s.mul, s.poset.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if m[m[x][y]][z] != m[x][m[y][z]]:
                    return (x, y, z)
    return None


def _unit_top_failure(s):
    # the first element not below the unit
    above = s.poset.full & ~s.poset.down[s.one]
    return (lowest(above),) if above else None


def _idempotence_failure(s):
    a = s.designated
    return None if s.mul[a][a] == a else (a,)


# Each row: its failure function, its witness variables, and the
# ingredients it reads, in the order of _INGREDIENTS.  Only 6, 9 and
# "unit-top" read the unit ("one"), so every other row has one verdict
# for a poset and its tables whatever the unit, and "unit-top", which
# reads nothing else, one for a poset and its unit whatever the tables.
_CONDITIONS = {
    1: (lambda s: _monotone_failure(s.poset, s.mul),
        ("x", "y", "z"), ("mul",)),
    2: (lambda s: _monotone_failure(s.poset, _transpose(s.mul)),
        ("x", "y", "z"), ("mul",)),
    3: (_cond3, ("x", "y", "z"), ("mul", "imp")),
    4: (lambda s: _monotone_failure(s.poset, s.imp),
        ("x", "y", "z"), ("imp",)),
    5: (lambda s: _monotone_failure(s.poset, _transpose(s.imp), True),
        ("x", "y", "z"), ("imp",)),
    6: (_cond6, ("x",), ("mul", "one")),
    7: (_cond7, ("x", "y"), ("mul",)),
    8: (_cond8, ("x", "y", "z"), ("mul", "imp")),
    9: (_cond9, ("x",), ("imp", "one")),
    10: (_cond10, ("x", "y"), ("imp",)),
    11: (_cond11, ("x",), ("mul", "zero", "designated")),
    12: (_cond12, ("x",), ("imp", "designated")),
    13: (_cond13, ("x", "y"), ("mul", "designated")),
    "commutative": (lambda s: commutativity_failure(s.mul), ("x", "y"),
                    ("mul",)),
    "associative": (_associativity_failure, ("x", "y", "z"), ("mul",)),
    "unit-top": (_unit_top_failure, ("x",), ("one",)),
    "idempotent": (_idempotence_failure, ("a",),
                   ("mul", "designated")),
}

CONDITION_IDS = tuple(range(1, 14))


def condition_needs(k):
    """The ingredients row k of the condition table reads, in the order of
    _INGREDIENTS; "one" when it reads the unit."""
    return _CONDITIONS[k][2]


def condition_holds(s, k):
    """Truth of row k of the condition table with its first counterexample,
    as (ok, witness); StructureError when s lacks an ingredient of k."""
    fn, _, needs = _CONDITIONS[k]
    missing = _missing(s, needs)
    if missing is not None:
        raise StructureError("condition needs " + _INGREDIENTS[missing])
    w = fn(s)
    return w is None, w


class Verdicts(dict):
    """The condition table of one structure s: verdicts[k] is
    condition_holds(s, k), evaluated when row k is first read.  A command
    holds one for its structure and drops it with the structure; nothing
    is memoized on the ResStructure record."""

    def __init__(self, s):
        super().__init__()
        self.s = s

    def __missing__(self, k):
        value = self[k] = condition_holds(self.s, k)
        return value


def named_witness(names, varnames, w):
    """Witness indices as (variable, element name) pairs; () for none."""
    if w is None:
        return ()
    return tuple((v, names[i]) for v, i in zip(varnames, w))


def check_condition(s, k, verdicts=None):
    """Row k as a check item, read from verdicts (s's Verdicts) if given."""
    ok, w = condition_holds(s, k) if verdicts is None else verdicts[k]
    return CheckItem(str(k), ok, named_witness(s.names, _CONDITIONS[k][1], w))


def condition_applicable(s, k):
    return _missing(s, _CONDITIONS[k][2]) is None


def is_commutative(s):
    return condition_holds(s, "commutative")


def is_associative(s):
    return condition_holds(s, "associative")


class Classification(NamedTuple):
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

    @classmethod
    def of(cls, verdicts):
        """The flags of verdicts.s, read from its condition table;
        bounded means its zero and unit are the bottom and the top."""
        s = verdicts.s
        return cls(
            left_residuated=verdicts[3][0] and verdicts[6][0],
            bounded=s.zero is not None and (s.zero, s.one) == bounds(s.poset),
            commutative=verdicts["commutative"][0],
            associative=verdicts["associative"][0],
        )

    def summary(self):
        if self.bcrm:
            return "bounded commutative residuated monoid"
        if self.crm:
            return "commutative residuated monoid"
        if self.left_residuated:
            return "left-residuated groupoid"
        return "not a left-residuated groupoid"


@functools.lru_cache(maxsize=256)
def classify(s):
    """Structure flags; left-residuated means (3) and (6) both hold."""
    return Classification.of(Verdicts(s))


def require_bcrm(s, construction):
    """StructureError unless s is a bounded commutative residuated monoid,
    naming the first property it lacks, as in "operator twist needs a
    bounded commutative residuated monoid: base is not commutative"."""
    flags = classify(s)
    for name, ok in zip(flags._fields, flags):
        if not ok:
            raise StructureError(
                "%s needs a bounded commutative residuated monoid: base is "
                "not %s" % (construction, name.replace("_", "-")))


class SynthesisResult(NamedTuple):
    ok: bool
    imp: tuple[tuple[int, ...], ...] | None = None
    kind: str = ""          # "empty", "no-maximum" or "not-principal"
    at: tuple[int, int] | None = None
    candidates: int = 0     # bitmask: the solution set at the failure point


@functools.lru_cache(maxsize=256)
def residuum_row(p, col):
    """Recover y->z for one product column col[x] = x*y: row[z] is the
    greatest x with col[x] <= z.

    The recovery is legitimate only when the solution set is the full
    principal down-set of that greatest element; a unique maximal element
    alone is not enough for the adjunction to hold, so that case is its
    own failure kind.  Returns (row, None), or (None, (kind, z,
    candidates)) at the first z that fails.  Memoized: the sweeps recover
    the same few columns thousands of times.
    """
    row = []
    for z in range(p.n):
        below = p.down[z]
        sol = mask_of(x for x in range(p.n) if below >> col[x] & 1)
        if not sol:
            return None, ("empty", z, 0)
        tops = maximal_elements(p, sol)
        if tops.bit_count() != 1:
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


class LawVerdict(NamedTuple):
    law_id: str
    status: str        # "CONFIRMED", "VACUOUS" or "REFUTED"
    witness: tuple[tuple[str, str], ...] = ()


class Law(NamedTuple):
    """A derived law, a Lemma-style implication between rows of the
    condition table; its sweep runs over the structures of kind."""
    law_id: str
    premises: tuple
    conclusion: int | str
    kind: str

    @property
    @functools.lru_cache(maxsize=None)
    def needs(self):
        """The ingredients of its rows, in the order of _INGREDIENTS: a law
        without "one" reads no unit."""
        rows = [condition_needs(k) for k in (*self.premises, self.conclusion)]
        return tuple(k for k in _INGREDIENTS if any(k in r for r in rows))


# "unit-top" asks more than the unit law: the derivation of (7) rests on
# y <= 1 for every y.  Laws needing a designated element are evaluated
# with each element designated in turn by the sweeps.
LAWS = (
    Law("5-from-1-3", (1, 3), 5, "residuated-pair"),
    Law("7-from-comm-1-6-top", ("unit-top", "commutative", 1, 6), 7,
        "unital-groupoid"),
    Law("8-from-assoc-2-3", ("associative", 2, 3), 8, "residuated-pair"),
    Law("2-from-3-6", (3, 6), 2, "left-residuated-groupoid"),
    Law("4-from-3-6", (3, 6), 4, "left-residuated-groupoid"),
    Law("9-from-3-6", (3, 6), 9, "left-residuated-groupoid"),
    Law("10-from-5-9-top", ("unit-top", 5, 9), 10, "unital-implication"),
    Law("13-from-idempotent", ("idempotent", 1, 2), 13,
        "commutative-residuated-monoid"),
)


def evaluate_law(s, law, verdicts=None):
    """One entry of LAWS on one structure that has its ingredients:
    ("VACUOUS", None) when a premise fails, else ("CONFIRMED", None) or
    ("REFUTED", first witness of the conclusion).  The rows are read from
    verdicts, s's Verdicts, when given."""
    holds = condition_holds if verdicts is None else \
        lambda s, k: verdicts[k]
    for prem in law.premises:
        if not holds(s, prem)[0]:
            return "VACUOUS", None
    ok, w = holds(s, law.conclusion)
    return ("CONFIRMED", None) if ok else ("REFUTED", w)


def check_derived_laws(s, verdicts=None):
    """Evaluate every applicable implication law on this one structure,
    each row of the condition table once: from verdicts, s's Verdicts, or
    a table of its own.

    A law whose premises fail here is VACUOUS; with premises satisfied the
    conclusion must hold (CONFIRMED) or the law is REFUTED with the
    conclusion's witness.  REFUTED should never happen; callers treat it
    as an alarm, not a routine failure.
    """
    if verdicts is None:
        verdicts = Verdicts(s)
    out = []
    for law in LAWS:
        if _missing(s, law.needs) is None:
            status, w = evaluate_law(s, law, verdicts)
            out.append(LawVerdict(law.law_id, status, named_witness(
                s.names, _CONDITIONS[law.conclusion][1], w)))
    return out
