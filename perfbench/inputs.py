"""Seeded input generators.

Every input is written here as `.struct` text from the benchmark's own
models; the program under test only ever reads the generated files.  The
same seed gives the same files.
"""

from __future__ import annotations

import itertools

from oracle import Model, bounds, closure, column_residuum, covers, residuum

# Single-character names keep concatenated pair names unambiguous.
NAME_POOL = "abcdefghijkmnpqrstuvwxyz23456789"


def godel(n):
    """n-element chain with minimum as product."""
    mul = [[min(x, y) for y in range(n)] for x in range(n)]
    return _chain_model(n, mul)


def lukasiewicz(n):
    """n-element chain with truncated addition as product; it is not
    idempotent, so every rank other than the bounds breaks idempotence."""
    top = n - 1
    mul = [[max(0, x + y - top) for y in range(n)] for x in range(n)]
    return _chain_model(n, mul)


def _chain_model(n, mul):
    leq = closure(n, [(i, i + 1) for i in range(n - 1)])
    return _complete(tuple(str(i) for i in range(n)), leq, mul, n - 1, 0)


def _complete(names, leq, mul, one, zero):
    mul = tuple(tuple(r) for r in mul)
    imp = residuum(leq, mul)
    assert imp is not None, "generator built a non-residuated product"
    return Model(tuple(names), leq, mul, imp, one, zero)


# example1: ten elements, b and c have two minimal upper bounds (e and f),
# so the order is not a lattice.
_E1_NAMES = "0 a b c d e f g h 1".split()
_E1_COVERS = ("0<a a<b a<c a<d b<e b<f c<e c<f c<g d<f d<g e<h f<h g<h "
              "h<1").split()
_E1_MUL = """0 0 0 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 0 a
0 0 a 0 0 a a 0 a b
0 0 0 0 0 a 0 a a c
0 0 0 0 a 0 a a a d
0 0 a a 0 a a a a e
0 0 a 0 a a a a a f
0 0 0 a a a a a a g
0 0 a a a a a a a h
0 a b c d e f g h 1"""


def example1():
    idx = {nm: i for i, nm in enumerate(_E1_NAMES)}
    leq = closure(10, [tuple(idx[t] for t in c.split("<"))
                       for c in _E1_COVERS])
    mul = [[idx[t] for t in row.split()] for row in _E1_MUL.splitlines()]
    return _complete(_E1_NAMES, leq, mul, idx["1"], idx["0"])


def chain3():
    """The packaged chain3 fixture: Goedel chain 0 < a < 1."""
    m = godel(3)
    return Model(("0", "a", "1"), m.leq, m.mul, m.imp, m.one, m.zero)


def relabel(m, rng):
    """Fresh names and a fresh index order; the structure is unchanged.
    Returns the new model and the old-to-new index map."""
    perm = list(range(m.n))
    rng.shuffle(perm)                      # perm[new] = old
    new_of = {old: new for new, old in enumerate(perm)}
    names = tuple(rng.sample(NAME_POOL, m.n))
    leq = tuple(tuple(m.leq[perm[x]][perm[y]] for y in range(m.n))
                for x in range(m.n))
    mul = tuple(tuple(new_of[m.mul[perm[x]][perm[y]]] for y in range(m.n))
                for x in range(m.n))
    imp = tuple(tuple(new_of[m.imp[perm[x]][perm[y]]] for y in range(m.n))
                for x in range(m.n))
    zero = None if m.zero is None else new_of[m.zero]
    return Model(names, leq, mul, imp, new_of[m.one], zero), new_of


def struct_text(m, rng=None):
    """The `.struct` text for a model; covers come in shuffled order when
    an rng is given."""
    cov = covers(m.leq)
    if rng is not None:
        rng.shuffle(cov)
    nm = m.names
    out = ["elements " + " ".join(nm), ""]
    if cov:
        out += ["covers"] + ["%s < %s" % (nm[x], nm[y]) for x, y in cov] + [""]
    else:
        out += ["order"] + ["%s <= %s" % (v, v) for v in nm] + [""]
    for label, table in (("mul", m.mul), ("imp", m.imp)):
        out += ["table " + label] + [" ".join(nm[v] for v in row)
                                     for row in table] + [""]
    out.append("const one = " + nm[m.one])
    if m.zero is not None:
        out.append("const zero = " + nm[m.zero])
    return "\n".join(out) + "\n"


def random_poset(rng, n):
    """Relate pairs along a random linear order, so no cycle can form."""
    order = list(range(n))
    rng.shuffle(order)
    return closure(n, [(order[i], order[j]) for i in range(n)
                       for j in range(i + 1, n) if rng.random() < 0.5])


def _residuable_columns(leq):
    n = len(leq)
    return [col for col in itertools.product(range(n), repeat=n)
            if column_residuum(leq, col) is not None]


def random_lrg(rng, n):
    """A left-residuated groupoid: the unit column is the identity and
    every other column admits a residuum.  A declared zero is added when
    the order has a bottom and the unit is its top."""
    leq = random_poset(rng, n)
    one = rng.randrange(n)
    cols = _residuable_columns(leq)
    chosen = [tuple(range(n)) if y == one else rng.choice(cols)
              for y in range(n)]
    mul = [[chosen[y][x] for y in range(n)] for x in range(n)]
    bot, top = bounds(leq)
    zero = bot if bot is not None and top == one else None
    names = tuple(rng.sample(NAME_POOL, n))
    return _complete(names, leq, mul, one, zero)


def perturb(m, rng):
    """Change one cell of mul or imp; the result is usually no longer
    residuated, and the oracle re-evaluates it either way."""
    which = rng.choice(("mul", "imp"))
    table = [list(r) for r in getattr(m, which)]
    x, y = rng.randrange(m.n), rng.randrange(m.n)
    table[x][y] = rng.choice([v for v in range(m.n) if v != table[x][y]]
                             or [table[x][y]])
    fields = dict(names=m.names, leq=m.leq, mul=m.mul, imp=m.imp,
                  one=m.one, zero=m.zero)
    fields[which] = tuple(tuple(r) for r in table)
    return Model(**fields)


def bcrm_bases():
    """The bounded commutative residuated monoids on at most 3 elements,
    up to relabelling."""
    return (godel(3), lukasiewicz(3), godel(2), godel(1))


MALFORMED_KINDS = ("unknown-name", "short-row", "no-unit", "cycle",
                   "duplicate-name", "unknown-section", "bad-zero", "empty")


def malformed(m, rng, kind):
    """Break valid text for a 3-element model in one of MALFORMED_KINDS."""
    lines = struct_text(m, rng).splitlines()
    nm = m.names
    row = lines.index("table mul") + 1 + rng.randrange(m.n)
    if kind == "unknown-name":
        cells = lines[row].split()
        cells[rng.randrange(m.n)] = "Q"
        lines[row] = " ".join(cells)
    elif kind == "short-row":
        lines[row] = " ".join(lines[row].split()[:-1])
    elif kind == "no-unit":
        lines = [ln for ln in lines if not ln.startswith("const one")]
    elif kind == "cycle":
        # the order section becomes two covers that point at each other
        x, y = rng.sample(range(m.n), 2)
        at = lines.index("") + 1
        lines[at:lines.index("", at) + 1] = [
            "covers", "%s < %s" % (nm[x], nm[y]), "%s < %s" % (nm[y], nm[x]),
            ""]
    elif kind == "duplicate-name":
        lines[0] = lines[0] + " " + rng.choice(nm)
    elif kind == "unknown-section":
        lines.insert(lines.index("table imp"), "tabel mul")
    elif kind == "bad-zero":
        bot, _ = bounds(m.leq)
        lines = [ln for ln in lines if not ln.startswith("const zero")]
        lines.append("const zero = " + rng.choice(
            [v for i, v in enumerate(nm) if i != bot]))
    elif kind == "empty":
        lines = ["# nothing here"]
    else:
        raise ValueError(kind)
    return "\n".join(lines) + "\n"

