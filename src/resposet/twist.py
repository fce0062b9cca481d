"""Twist products over a finite poset.

The pair carrier Q x Q is ordered first coordinate up, second coordinate
down.  On top of that order this module builds two different structures:

* a single-valued product/implication pair lifted through a pair of
  surjective maps f, g (with the biconditional check that the lift is
  left-residuated exactly when the base is), and
* the set-valued operator pair used for bounded commutative bases, with
  the five-point residuation audit for such operator structures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .order import Poset, bits, bounds, mask_of
from .report import CheckItem
from .residuation import StructureError, classify, condition_holds, structure


def pair_name(base, pair, long=False):
    """The pair (x, y) named by concatenation, or as "(x,y)" when long."""
    x, y = pair
    if long:
        return "(%s,%s)" % (base.names[x], base.names[y])
    return base.names[x] + base.names[y]


def pair_names(base, pairs=None):
    """Names of the given pairs (all of them, row-major, by default):
    concatenated, falling back to explicit "(x,y)" names whenever
    concatenation would be ambiguous among them."""
    if pairs is None:
        pairs = [(x, y) for x in range(base.n) for y in range(base.n)]
    short = tuple(pair_name(base, pair) for pair in pairs)
    if len(set(short)) == len(short):
        return short
    return tuple(pair_name(base, pair, long=True) for pair in pairs)


@dataclass(frozen=True)
class TwistProduct:
    base: Poset
    poset: Poset

    def pair_index(self, x, y):
        return x * self.base.n + y


def _product_mask(n, amask, bmask):
    # bitmask of {(a, b) : a in A, b in B} under index a*n + b
    out = 0
    for a in bits(amask):
        out |= bmask << (a * n)
    return out


@functools.lru_cache(maxsize=None)
def full_twist(base):
    """Build the pair poset: (x,y) <= (z,v) when x <= z and v <= y.

    Its cones factor as products of base cones; that law is checked by
    cone_product_failure in the cone-product-law sweep, not on each build.
    """
    n = base.n
    up = []
    down = []
    for x in range(n):
        for y in range(n):
            up.append(_product_mask(n, base.up[x], base.down[y]))
            down.append(_product_mask(n, base.down[x], base.up[y]))
    return TwistProduct(base, Poset(pair_names(base), tuple(up), tuple(down)))


def cone_product_failure(base):
    """The cone product law of the pair poset, for p=(x,y) and q=(z,v):
    L({p,q}) = L(x,z) x U(y,v) and U({p,q}) = U(x,z) x L(y,v).  Returns
    the first (p, q) in row-major order where it fails, or None."""
    n = base.n
    twist = full_twist(base).poset
    for x in range(n):
        for y in range(n):
            p = x * n + y
            for z in range(n):
                for v in range(n):
                    q = z * n + v
                    lo = twist.down[p] & twist.down[q]
                    hi = twist.up[p] & twist.up[q]
                    want_lo = _product_mask(
                        n, base.down[x] & base.down[z], base.up[y] & base.up[v])
                    want_hi = _product_mask(
                        n, base.up[x] & base.up[z], base.down[y] & base.down[v])
                    if lo != want_lo or hi != want_hi:
                        return p, q
    return None


@dataclass(frozen=True)
class PairMap:
    """A map from pairs of elements to elements: a projection or an
    explicit table."""
    kind: str
    table: tuple[tuple[int, ...], ...] | None = None

    @staticmethod
    def proj1():
        return PairMap("proj1")

    @staticmethod
    def proj2():
        return PairMap("proj2")

    @staticmethod
    def from_table(rows):
        return PairMap("table", tuple(tuple(r) for r in rows))

    def __call__(self, x, y):
        if self.kind == "proj1":
            return x
        if self.kind == "proj2":
            return y
        return self.table[x][y]


def _validate_pairmap(pm, label, base, const, one):
    seen = set()
    for x in range(base.n):
        for y in range(base.n):
            v = pm(x, y)
            if not 0 <= v < base.n:
                raise StructureError("%s maps outside the carrier" % label)
            seen.add(v)
    if len(seen) != base.n:
        raise StructureError("%s is not surjective" % label)
    a, b = const
    if pm(a, b) != one:
        raise StructureError(
            "%s does not send the unit pair (%s,%s) to %s"
            % (label, base.names[a], base.names[b], base.names[one]))


def twist_operations(s, f, g, const):
    """Lift mul/imp to the pair carrier through f and g:

        (x,y) * (z,v)  = (x * f(z,v), g(z,v) -> y)
        (x,y) -> (z,v) = (f(x,y) -> z, v * g(x,y))

    with the pair const as unit.  f and g must be surjective and send
    const to the base unit.
    """
    if s.mul is None or s.imp is None:
        raise StructureError("twist lifting needs both operation tables")
    base = s.poset
    _validate_pairmap(f, "f", base, const, s.one)
    _validate_pairmap(g, "g", base, const, s.one)
    twist = full_twist(base)
    n = base.n
    mul, imp = s.mul, s.imp
    nn = n * n
    omul = [[0] * nn for _ in range(nn)]
    oimp = [[0] * nn for _ in range(nn)]
    for x in range(n):
        for y in range(n):
            p = x * n + y
            fp, gp = f(x, y), g(x, y)
            for z in range(n):
                for v in range(n):
                    q = z * n + v
                    omul[p][q] = mul[x][f(z, v)] * n + imp[g(z, v)][y]
                    oimp[p][q] = imp[fp][z] * n + mul[v][gp]
    one = twist.pair_index(*const)
    return structure(twist.poset, omul, oimp, one=one)


def check_twist_lifting(s, f, g, const):
    """The lifting biconditional: the base is a left-residuated groupoid
    exactly when the lifted pair structure is.  Also checks the two exact
    transfers behind it: adjunction transfers on its own, and the lifted
    unit law holds exactly when the base satisfies both unit laws
    (x*1 = x and 1->x = x)."""
    ts = twist_operations(s, f, g, const)
    base3 = condition_holds(s, 3)[0]
    base6 = condition_holds(s, 6)[0]
    base9 = condition_holds(s, 9)[0]
    twist3 = condition_holds(ts, 3)[0]
    twist6 = condition_holds(ts, 6)[0]
    base_lrg = base3 and base6
    twist_lrg = twist3 and twist6

    def verdict(v):
        return "PASS" if v else "FAIL"

    items = [
        CheckItem("base-left-residuated-groupoid", base_lrg, gating=False),
        CheckItem("twist-left-residuated-groupoid", twist_lrg, gating=False),
        CheckItem("adjunction-transfer", twist3 == base3,
                  () if twist3 == base3 else
                  (("base-3", verdict(base3)), ("twist-3", verdict(twist3)))),
        CheckItem("unit-transfer", twist6 == (base6 and base9),
                  () if twist6 == (base6 and base9) else
                  (("base-6", verdict(base6)), ("base-9", verdict(base9)),
                   ("twist-6", verdict(twist6)))),
        CheckItem("lifting-biconditional", base_lrg == twist_lrg,
                  () if base_lrg == twist_lrg else
                  (("base", verdict(base_lrg)), ("twist", verdict(twist_lrg)))),
    ]
    return ts, items


def operator_product(s, x, y, z, v):
    """Set value of (x,y) (.) (z,v) as a sorted tuple of pair indices."""
    n = s.poset.n
    first = s.mul[x][z]
    members = {first * n + s.imp[x][v], first * n + s.imp[z][y]}
    return tuple(sorted(members))


def operator_implication(s, x, y, z, v):
    """Set value of (x,y) (=>) (z,v) as a sorted tuple of pair indices."""
    n = s.poset.n
    second = s.mul[x][v]
    members = {s.imp[x][z] * n + second, s.imp[v][y] * n + second}
    return tuple(sorted(members))


@dataclass(frozen=True)
class OperatorStructure:
    """A poset with two set-valued operations and two constants.  Images
    are sorted tuples of element indices; zero and one may be absent only
    for the degenerate empty carrier."""
    poset: Poset
    odot: tuple[tuple[tuple[int, ...], ...], ...]
    oimp: tuple[tuple[tuple[int, ...], ...], ...]
    zero: int | None
    one: int | None


def build_operator_twist(s):
    """The set-valued twist of a bounded commutative residuated monoid:

        (x,y)(.)(z,v)  = {(x*z, x->v), (x*z, z->y)}
        (x,y)(=>)(z,v) = {(x->z, x*v), (v->y, x*v)}

    with constants (0,1) and (1,0).
    """
    flags = classify(s)
    if not flags.bcrm:
        for attr, label in (("left_residuated", "not left-residuated"),
                            ("bounded", "not bounded"),
                            ("commutative", "not commutative"),
                            ("associative", "not associative")):
            if not getattr(flags, attr):
                raise StructureError(
                    "operator twist needs a bounded commutative residuated "
                    "monoid: base is %s" % label)
    twist = full_twist(s.poset)
    n = s.poset.n
    odot = []
    oimp = []
    for x in range(n):
        for y in range(n):
            drow = []
            irow = []
            for z in range(n):
                for v in range(n):
                    drow.append(operator_product(s, x, y, z, v))
                    irow.append(operator_implication(s, x, y, z, v))
            odot.append(tuple(drow))
            oimp.append(tuple(irow))
    return OperatorStructure(twist.poset, tuple(odot), tuple(oimp),
                             zero=twist.pair_index(s.zero, s.one),
                             one=twist.pair_index(s.one, s.zero))


def check_operator_residuated(os):
    """The five-point audit of a set-valued residuated structure:
    bounded constants, well-formed images, commutative product,
    operator associativity, and the adjunction between the operators."""
    p = os.poset
    items = []

    if os.zero is None or os.one is None:
        items.append(CheckItem("op-bounded", p.n == 0))
    else:
        bot, top = bounds(p)
        ok = bot == os.zero and top == os.one
        witness = ()
        if not ok:
            witness = (("zero", p.names[os.zero]), ("one", p.names[os.one]))
        items.append(CheckItem("op-bounded", ok, witness))

    wf = None
    for op_name, table in (("odot", os.odot), ("oimp", os.oimp)):
        if wf:
            break
        for x in range(p.n):
            if wf:
                break
            for y in range(p.n):
                img = table[x][y]
                if not img or any(not 0 <= u < p.n for u in img):
                    wf = (op_name, x, y)
                    break
    items.append(CheckItem(
        "op-wellformed", wf is None,
        () if wf is None else
        (("op", wf[0]), ("x", p.names[wf[1]]), ("y", p.names[wf[2]]))))

    comm = None
    for x in range(p.n):
        if comm:
            break
        for y in range(x + 1, p.n):
            if os.odot[x][y] != os.odot[y][x]:
                comm = (x, y)
                break
    items.append(CheckItem(
        "op-commutative", comm is None,
        () if comm is None else
        (("x", p.names[comm[0]]), ("y", p.names[comm[1]]))))

    assoc = None
    for x in range(p.n):
        if assoc:
            break
        for y in range(p.n):
            if assoc:
                break
            for z in range(p.n):
                lhs = set()
                for u in os.odot[x][y]:
                    lhs.update(os.odot[u][z])
                rhs = set()
                for u in os.odot[y][z]:
                    rhs.update(os.odot[x][u])
                if lhs != rhs:
                    assoc = (x, y, z, lhs, rhs)
                    break
    items.append(CheckItem(
        "op-associative", assoc is None,
        () if assoc is None else
        (("x", p.names[assoc[0]]), ("y", p.names[assoc[1]]),
         ("z", p.names[assoc[2]]),
         ("lhs", p.render_set(mask_of(assoc[3]))),
         ("rhs", p.render_set(mask_of(assoc[4]))))))

    adj = None
    for x in range(p.n):
        if adj:
            break
        for y in range(p.n):
            if adj:
                break
            for z in range(p.n):
                left = all(p.leq(u, z) for u in os.odot[x][y])
                right = all(p.leq(x, u) for u in os.oimp[y][z])
                if left != right:
                    adj = (x, y, z)
                    break
    items.append(CheckItem(
        "op-adjunction", adj is None,
        () if adj is None else
        (("x", p.names[adj[0]]), ("y", p.names[adj[1]]),
         ("z", p.names[adj[2]]))))

    return items


def check_embedding(base, twist_poset, a0):
    """x maps to (x, a0); the map must preserve and reflect order into
    the given pair poset (indexed x*n + y)."""
    n = base.n
    for x in range(n):
        for y in range(n):
            base_le = base.leq(x, y)
            twist_le = twist_poset.leq(x * n + a0, y * n + a0)
            if base_le != twist_le:
                return CheckItem(
                    "embedding", False,
                    (("x", base.names[x]), ("y", base.names[y]),
                     ("a0", base.names[a0]),
                     ("base", "PASS" if base_le else "FAIL"),
                     ("twist", "PASS" if twist_le else "FAIL")))
    return CheckItem("embedding", True)


def check_embeddings(base):
    """check_embedding into the full twist for each a0 in turn: the first
    failure, or a pass."""
    twist = full_twist(base).poset
    for a0 in range(base.n):
        item = check_embedding(base, twist, a0)
        if not item.passed:
            return item
    return CheckItem("embedding", True)
