"""Known answers for the benchmark, computed without importing resposet.

A `Model` is the benchmark's own picture of a finite structure: an order
matrix, product and implication tables and the two constants.  The few
conditions the oracle needs are re-evaluated here from their definitions,
so a verdict printed by the program is compared with an answer that does
not depend on the program's code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# OEIS A001035: labeled posets on n = 1..5 points.
A001035 = (1, 3, 19, 219, 4231)


def _posets_up_to(k):
    return sum(A001035[:k])


# The universal sweeps, pinned to the sizes the program checks today.
# Each entry: property name, sizes, expected number of cases.  The poset
# sweeps take their counts from A001035 (restricted-pseudo-kleene has one
# case per designated element, so it sums n * P(n)).
SUITES = {
    "lemmas": (
        ("law-5-from-1-3", (1, 2, 3), 5191),
        ("law-7-from-comm-1-6-top", (1, 2, 3), 41578),
        ("law-8-from-assoc-2-3", (1, 2, 3), 5191),
        ("law-2-from-3-6", (1, 2, 3), 1003),
        ("law-4-from-3-6", (1, 2, 3), 1003),
        ("law-9-from-3-6", (1, 2, 3), 1003),
        ("law-10-from-5-9-top", (1, 2, 3), 41578),
        ("law-13-from-idempotent", (1, 2, 3), 90),
        ("synthesis-adjunction", (1, 2, 3), 5191),
    ),
    "theorems": (
        ("twist-lifting-first-projections", (1, 2, 3), 5191),
        ("twist-lifting-second-projections", (1, 2, 3), 5191),
        ("operator-twist-audit", (1, 2, 3), 15),
        ("restricted-twist-biconditional", (1, 2, 3), 41),
        ("cone-product-law", (1, 2, 3, 4), _posets_up_to(4)),
        ("restricted-pseudo-kleene", (1, 2, 3, 4),
         sum((n + 1) * c for n, c in enumerate(A001035[:4]))),
        ("distributivity-identities-agree", (1, 2, 3, 4, 5),
         _posets_up_to(5)),
    ),
}

SWEEP_CASES = sum(c for suite in SUITES.values() for _, _, c in suite)


@dataclass(frozen=True)
class Model:
    names: tuple
    leq: tuple          # leq[x][y] is x <= y
    mul: tuple          # mul[x][y] is x*y
    imp: tuple          # imp[y][z] is y->z
    one: int
    zero: int | None = None

    @property
    def n(self):
        return len(self.names)


def closure(n, pairs):
    """Reflexive-transitive closure of a relation given as index pairs."""
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x, y in pairs:
        leq[x][y] = True
    for k in range(n):
        for x in range(n):
            if leq[x][k]:
                for y in range(n):
                    if leq[k][y]:
                        leq[x][y] = True
    return tuple(tuple(r) for r in leq)


def covers(leq):
    n = len(leq)
    return [(x, y) for x in range(n) for y in range(n)
            if x != y and leq[x][y]
            and not any(leq[x][u] and leq[u][y] for u in range(n)
                        if u not in (x, y))]


def bounds(leq):
    n = len(leq)
    bot = [x for x in range(n) if all(leq[x])]
    top = [x for x in range(n) if all(leq[y][x] for y in range(n))]
    return (bot[0] if bot else None), (top[0] if top else None)


def column_residuum(leq, col):
    """For the map x -> col[x], the row z -> greatest x with col[x] <= z,
    or None when some solution set is not a principal down-set."""
    n = len(leq)
    row = []
    for z in range(n):
        sol = {x for x in range(n) if leq[col[x]][z]}
        top = [t for t in sol if all(leq[x][t] for x in sol)]
        if not top or sol != {x for x in range(n) if leq[x][top[0]]}:
            return None
        row.append(top[0])
    return tuple(row)


def residuum(leq, mul):
    """The implication table y->z of a product table, or None."""
    n = len(leq)
    rows = tuple(column_residuum(leq, [mul[x][y] for x in range(n)])
                 for y in range(n))
    return None if None in rows else rows


def cond3(m):
    r = range(m.n)
    return all(m.leq[m.mul[x][y]][z] == m.leq[x][m.imp[y][z]]
               for x in r for y in r for z in r)


def cond6(m):
    return all(m.mul[x][m.one] == x for x in range(m.n))


def cond9(m):
    return all(m.imp[m.one][x] == x for x in range(m.n))


def commutative(m):
    return all(m.mul[x][y] == m.mul[y][x]
               for x in range(m.n) for y in range(m.n))


def associative(m):
    r = range(m.n)
    t = m.mul
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in r for y in r for z in r)


def classification(m):
    lrg = cond3(m) and cond6(m)
    crm = lrg and commutative(m) and associative(m)
    if crm and m.zero is not None:
        return "bounded commutative residuated monoid"
    if crm:
        return "commutative residuated monoid"
    if lrg:
        return "left-residuated groupoid"
    return "not a left-residuated groupoid"


def is_bcrm(m):
    return classification(m) == "bounded commutative residuated monoid"


def lt(m, x, y):
    return x != y and m.leq[x][y]


def restricted_carrier(m, a):
    """Pairs (x, y) whose common lower bounds lie below a and whose
    common upper bounds lie above a."""
    r = range(m.n)
    return [(x, y) for x in r for y in r
            if all(m.leq[u][a] for u in r if m.leq[u][x] and m.leq[u][y])
            and all(m.leq[a][u] for u in r if m.leq[x][u] and m.leq[y][u])]


def pa_expectation(m, a):
    """(assumptions hold, exit code) for `pa` at designated element a:
    idempotence and comparability with (a, a) are the standing
    assumptions; the restricted twist is residuated exactly when (11) and
    (12) hold."""
    idem = m.mul[a][a] == a
    comparable = all((m.leq[x][a] and m.leq[a][y]) or
                      (m.leq[a][x] and m.leq[y][a])
                      for x, y in restricted_carrier(m, a))
    c11 = all(not lt(m, m.mul[a][x], a) or m.mul[a][x] == m.zero
              for x in range(m.n))
    c12 = all(not lt(m, a, x) or m.imp[x][a] == a for x in range(m.n))
    assumptions = idem and comparable
    return assumptions, 0 if assumptions and c11 and c12 else 1


def pair_names(names):
    short = [x + y for x in names for y in names]
    if len(set(short)) == len(short):
        return short
    return ["(%s,%s)" % (x, y) for x in names for y in names]


def twist_model(m):
    """Lift through the two projections with unit pair (1, 1):
    (x,y)*(z,v) = (x*z, v->y) and (x,y)->(z,v) = (x->z, v*y)."""
    n = m.n
    pairs = list(itertools.product(range(n), repeat=2))
    leq = tuple(tuple(m.leq[x][z] and m.leq[v][y] for z, v in pairs)
                for x, y in pairs)
    mul = tuple(tuple(m.mul[x][z] * n + m.imp[v][y] for z, v in pairs)
                for x, y in pairs)
    imp = tuple(tuple(m.imp[x][z] * n + m.mul[v][y] for z, v in pairs)
                for x, y in pairs)
    return Model(tuple(pair_names(m.names)), leq, mul, imp, m.one * n + m.one)


def twist_exit(m, t):
    """Exit code of `twist`: the adjunction, unit and lifting transfers."""
    b3, b6, b9 = cond3(m), cond6(m), cond9(m)
    t3, t6 = cond3(t), cond6(t)
    ok = t3 == b3 and t6 == (b6 and b9) and (b3 and b6) == (t3 and t6)
    return 0 if ok else 1


def parse_tables(text):
    """Read emitted tables back as {label: {(row, col): cell}}."""
    tables = {}
    current = header = None
    for line in text.splitlines():
        if "|" not in line:
            current = None
            continue
        head, rest = line.split("|", 1)
        head, cells = head.strip(), rest.split()
        if current is None:
            current, header = tables.setdefault(head, {}), cells
            continue
        for col, cell in zip(header, cells):
            current[(head, col)] = cell
    return tables


def twist_tables_ok(t, text):
    """Every cell of the printed mul and imp tables matches the model."""
    tables = parse_tables(text)
    for label, table in (("mul", t.mul), ("imp", t.imp)):
        got = tables.get(label, {})
        if len(got) != t.n * t.n:
            return False
        for x in range(t.n):
            for y in range(t.n):
                if got.get((t.names[x], t.names[y])) != t.names[table[x][y]]:
                    return False
    return True


def check_lines(out):
    return [line for line in out.splitlines() if line.startswith("CHECK (")]


def expect_check(m):
    """A verdict checker for `check`: exit 0 exactly when (3) and (6)
    hold, with the matching classification line."""
    summary = classification(m)
    rc = 0 if cond3(m) and cond6(m) else 1

    def verify(out, err, code):
        return code == rc and ("classification: " + summary) in out
    return verify


def expect_twist(m):
    t = twist_model(m)
    rc = twist_exit(m, t)

    def verify(out, err, code):
        return (code == rc and ("twist carrier: %d pairs" % t.n) in out
                and twist_tables_ok(t, out))
    return verify


def expect_optwist(m):
    """Every bounded commutative residuated monoid passes all six lines
    (the operator-twist theorem)."""
    assert is_bcrm(m)

    def verify(out, err, code):
        lines = check_lines(out)
        return code == 0 and len(lines) == 6 and \
            all(line.endswith(" PASS") for line in lines)
    return verify


def expect_pa(m, a):
    assumptions, rc = pa_expectation(m, a)
    size = len(restricted_carrier(m, a))

    def verify(out, err, code):
        lines = out.splitlines()
        if code != rc or not lines or not lines[0].startswith("carrier: "):
            return False
        if len(lines[0].split()) != size + 1:
            return False
        if not assumptions:
            return "ASSUMPTION-FAIL" in out
        return "CHECK (biconditional) PASS" in lines
    return verify


def expect_usage_error():
    """Malformed input: exit 2 with a message, never a traceback."""
    def verify(out, err, code):
        return code == 2 and err.startswith("error: ") and \
            "Traceback" not in err
    return verify


def check_sweep(suite, results):
    """results: [name, ok, cases, seconds] per property, in run order."""
    want = [(name, True, cases) for name, _, cases in SUITES[suite]]
    return [tuple(r[:3]) for r in results] == want
