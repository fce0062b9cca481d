"""Twist products over a finite poset.

The pair carrier Q x Q is ordered first coordinate up, second coordinate
down; pair_poset orders any of the pairs, and full_twist all of them as
a plain Poset in which the pair (x, y) has index x*n + y.  Pair maps
Q x Q -> Q are n x n tables (projection gives the two projections).  On
top of that order this module builds two different structures:

* a single-valued product/implication pair lifted through a pair of
  surjective pair maps f, g (with the biconditional check that the lift
  is left-residuated exactly when the base is), and
* the set-valued operator pair used for bounded commutative bases, whose
  images are masks of pair indices, with the five-point residuation audit
  for such operator structures; operator_rows, for any rows and columns,
  is the one definition of the images.
"""

from __future__ import annotations

import functools
from array import array
from itertools import count, product, repeat
from typing import NamedTuple

from .order import (Poset, adjunction_failure, bits, bounds, is_index,
                    lower_cone, maximal_elements, upper_cone)
from .report import CheckItem, agreement
from .residuation import (ResStructure, StructureError, adjunction_args,
                          as_rows, commutativity_failure, condition_holds,
                          named_witness, require_bcrm, require_square)


def pair_name(base, pair, long=False):
    """The pair (x, y) named by concatenation, or as "(x,y)" when long."""
    x, y = pair
    if long:
        return "(%s,%s)" % (base.names[x], base.names[y])
    return base.names[x] + base.names[y]


@functools.lru_cache(maxsize=256)
def pair_names(base):
    """The names of all pairs, row-major: concatenated, or all "(x,y)"
    when concatenation would give two pairs the same name.  These are the
    pair names everywhere (full_twist(base).names): the restricted carrier
    and every witness read them.  Memoized for the recent bases, as the
    restricted twists of one base come one designated element at a
    time."""
    pairs = [(x, y) for x in range(base.n) for y in range(base.n)]
    short = tuple(pair_name(base, pair) for pair in pairs)
    if len(set(short)) == len(short):
        return short
    return tuple(pair_name(base, pair, long=True) for pair in pairs)


def pair_poset(base, members):
    """The twist order, (x,y) <= (z,v) when x <= z and v <= y, on the
    pairs members in their order, named by pair_names.  With F[u] (S[u])
    the disjoint masks of the members with first (second) coordinate u,
    the up-cone up[x] x down[y] of (x, y) is the sum of F over up[x]
    ANDed with the sum of S over down[y], and the down-cone is dual."""
    n = base.n
    first, second = [0] * n, [0] * n
    for i, (x, y) in enumerate(members):
        first[x] |= 1 << i
        second[y] |= 1 << i
    fu, fd, su, sd = ([sum(map(by.__getitem__, bits(c))) for c in cones]
                      for by in (first, second)
                      for cones in (base.up, base.down))
    names = pair_names(base)
    return Poset(tuple(names[x * n + y] for x, y in members),
                 tuple(fu[x] & sd[y] for x, y in members),
                 tuple(fd[x] & su[y] for x, y in members))


def _spread(n, amask):
    """The sum of 2^(a*n) over the members a of A.  A product of masks is
    a product of ints: for B < 2^n, B * _spread(n, A) is the mask of
    {(a, b) : a in A, b in B} under index a*n + b, one copy of B in each
    block a of n bits, and no carries."""
    return sum(1 << a * n for a in bits(amask))


@functools.lru_cache(maxsize=256)
def full_twist(base):
    """pair_poset on every pair, the pair (x, y) at index x*n + y.  Its
    cones factor as products of base cones; that law is checked by
    cone_product_failure in the cone-product-law sweep, not on each build."""
    return pair_poset(base, list(product(range(base.n), repeat=2)))


def cone_product_failure(base):
    """The cone product law of the pair poset, for p=(x,y) and q=(z,v):
    L({p,q}) = L(x,z) x U(y,v) and U({p,q}) = U(x,z) x L(y,v).  Returns
    the first (p, q) in row-major order where it fails, or None.  Each
    p's row over q is compared in one list comparison, its products from
    the spreads of L(x,z) and U(x,z), made once per (x, z), independent of
    how pair_poset builds the cones."""
    n, up, down = base.n, base.up, base.down
    twist = full_twist(base)
    cones = list(zip(twist.down, twist.up))
    # U(y,v) and L(y,v) for each y, a row over v
    rows = [[(uy & uv, dy & dv) for uv, dv in zip(up, down)]
            for uy, dy in zip(up, down)]
    for x in range(n):
        spreads = [(_spread(n, down[x] & dz), _spread(n, up[x] & uz))
                   for uz, dz in zip(up, down)]
        for y, row in enumerate(rows):
            p = x * n + y
            lo, hi = cones[p]
            got = [(lo & dq, hi & uq) for dq, uq in cones]
            want = [(a * slo, b * shi) for slo, shi in spreads for a, b in row]
            if got != want:
                return p, next(q for q in range(n * n) if got[q] != want[q])
    return None


@functools.lru_cache(maxsize=256)
def projection(n, kind):
    """The pair map (x, y) |-> x ("proj1") or y ("proj2") on n elements,
    as an n x n table; StructureError for any other kind."""
    if kind not in ("proj1", "proj2"):
        raise StructureError("unknown projection %r" % (kind,))
    first = kind == "proj1"
    return tuple(tuple(x if first else y for y in range(n)) for x in range(n))


@functools.lru_cache(maxsize=256)
def _validate_pairmap(table, label, n):
    """The pair map table (a tuple of rows), once it is checked n x n, into
    the carrier as element indices, and onto it.  Memoized per distinct
    map, as a sweep brings the same maps to every case; maps are compared
    by value, so a map equal to one validated (2.0 for 2) gets that one.
    The unit pair is the caller's check, as it depends on the case."""
    require_square(table, n, label)
    if not all(is_index(v, n) for row in table for v in row):
        raise StructureError("%s maps outside the carrier" % label)
    if len({v for row in table for v in row}) != n:
        raise StructureError("%s is not surjective" % label)
    return table


@functools.lru_cache(maxsize=1)
def _lift_memo(base):
    """Three dicts over the last base poset only, as the sweeps bring the
    blocks of a poset's units one after another: {(mul, imp, f, g):
    lift}; the base columns, {(column a of mul, row a of imp): verdict of
    (3)}; and the lifted columns, {base column a + base column b:
    (product column, implication row, verdict of (3))}.  Lifted column q
    reads base columns a = f(q) and b = g(q) only, since (x,y)*q =
    (x*a, b->y) and q->(z,v) = (a->z, v*b); so that key fixes all three."""
    return {}, {}, {}


def _lift(s, f, g):
    """Every unit-free fact of the lift of s through f and g: the pair
    poset, the lifted tables, and condition (3) in the base and in the
    lift.  Memoized by (mul, imp, f, g), f and g as tuples of rows, in the
    base poset's _lift_memo, where each base and lifted column is decided
    once, on its own, as _cond3 decides it (residuation.adjunction_args);
    so (3) holds exactly when every column passes."""
    base = s.poset
    lifts, bases, columns = _lift_memo(base)
    key = (s.mul, s.imp, f, g)
    lift = lifts.get(key)
    if lift is None:
        n, twist = base.n, full_twist(base)
        reads = list(zip(zip(*s.mul), s.imp))
        for read in reads:
            if read not in bases:
                bases[read] = adjunction_failure(*adjunction_args(
                    base, read[:1], read[1:])) is None
        lifted = []
        for a, b in zip(sum(f, ()), sum(g, ())):
            read = reads[a] + reads[b]
            column = columns.get(read)
            if column is None:
                mul_a, imp_a, mul_b, imp_b = read
                dot = tuple([u * n + w for u in mul_a for w in imp_b])
                arrow = tuple([u * n + w for u in imp_a for w in mul_b])
                column = columns[read] = (dot, arrow, adjunction_failure(
                    *adjunction_args(twist, (dot,), (arrow,))) is None)
            lifted.append(column)
        dots, arrows, passed = zip(*lifted)
        lift = lifts[key] = (twist, tuple(zip(*dots)), arrows,
                             all(map(bases.__getitem__, reads)), all(passed))
    return lift


def twist_operations(s, f, g, const):
    """Lift mul/imp to the pair carrier through the pair maps f and g
    (n x n tables):

        (x,y) * (z,v)  = (x * f(z,v), g(z,v) -> y)
        (x,y) -> (z,v) = (f(x,y) -> z, v * g(x,y))

    with the pair const of element indices as unit.  f and g must be
    surjective and send const to the base unit.  Returns the lifted
    structure of check_twist_lifting, which makes those checks.
    """
    return check_twist_lifting(s, f, g, const)[0]


def check_twist_lifting(s, f, g, const):
    """The lifted structure of twist_operations, after its checks, with
    the lifting biconditional: the base is a left-residuated groupoid
    exactly when the lifted pair structure is.  Also checks the two exact
    transfers behind it: adjunction transfers on its own, and the lifted
    unit law holds exactly when the base satisfies both unit laws
    (x*1 = x and 1->x = x).  A case decides only the unit laws: the pair
    maps are validated once per distinct map, the lift's columns of (3)
    once per poset (_lift), and the items built once per verdict tuple."""
    if s.mul is None or s.imp is None:
        raise StructureError("twist lifting needs both operation tables")
    base, n = s.poset, s.poset.n
    if len(const) != 2 or not all(is_index(c, n) for c in const):
        raise StructureError("unit element required")
    a, b = const
    maps = []
    for table, label in ((f, "f"), (g, "g")):
        table = _validate_pairmap(as_rows(table), label, n)
        if table[a][b] != s.one:
            raise StructureError(
                "%s does not send the unit pair (%s,%s) to %s"
                % (label, base.names[a], base.names[b], base.names[s.one]))
        maps.append(table)
    twist, mul, imp, base3, twist3 = _lift(s, *maps)
    ts = ResStructure(twist, mul, imp, a * n + b)
    return ts, list(_lifting_items(
        base3, twist3, condition_holds(s, 6)[0], condition_holds(s, 9)[0],
        condition_holds(ts, 6)[0]))


@functools.lru_cache(maxsize=32)
def _lifting_items(base3, twist3, base6, base9, twist6):
    """check_twist_lifting's items from (3) and (6) in the base and the
    lift and (9) in the base, one tuple per verdict tuple."""
    base_lrg = base3 and base6
    twist_lrg = twist3 and twist6
    return (
        CheckItem("base-left-residuated-groupoid", base_lrg, gating=False),
        CheckItem("twist-left-residuated-groupoid", twist_lrg, gating=False),
        agreement("adjunction-transfer", twist3 == base3,
                  (("base-3", base3), ("twist-3", twist3))),
        agreement("unit-transfer", twist6 == (base6 and base9),
                  (("base-6", base6), ("base-9", base9), ("twist-6", twist6))),
        agreement("lifting-biconditional", base_lrg == twist_lrg,
                  (("base", base_lrg), ("twist", twist_lrg))),
    )


class OperatorStructure(NamedTuple):
    """A poset with two set-valued operations and two constants.  Images
    are masks of element indices; zero and one may be absent only for the
    degenerate empty carrier."""
    poset: Poset
    odot: tuple[tuple[int, ...], ...]
    oimp: tuple[tuple[int, ...], ...]
    zero: int | None
    one: int | None


def operator_rows(s, rows, cols):
    """The set-valued twist images of a bounded commutative residuated
    monoid, row by row:

        (x,y)(.)(z,v)  = {(x*z, x->v), (x*z, z->y)}
        (x,y)(=>)(z,v) = {(x->z, x*v), (v->y, x*v)}

    For each pair index x*n + y in rows, in the given order, yields the
    odot and oimp rows over the pair indices z*n + v listed in cols, each
    image the mask of its members' pair indices.
    """
    n = s.poset.n
    mul, imp = s.mul, s.imp
    bit = [1 << i for i in range(n * n)].__getitem__  # bit(i) is 1 << i
    zv = [divmod(q, n) for q in cols]
    last = None
    for x, y in map(divmod, rows, repeat(n)):
        if x != last:
            last, mx, ix = x, mul[x], imp[x]
            # the member of each image that does not depend on y:
            # (x*z, x->v) for the product, (x->z, x*v) for the implication
            dot_x = [bit(mx[z] * n + ix[v]) for z, v in zv]
            imp_x = [bit(ix[z] * n + mx[v]) for z, v in zv]
        yield (tuple([m | bit(mx[z] * n + imp[z][y])
                      for m, (z, _) in zip(dot_x, zv)]),
               tuple([m | bit(imp[v][y] * n + mx[v])
                      for m, (_, v) in zip(imp_x, zv)]))


def build_operator_twist(s):
    """The set-valued twist (operator_rows) of a bounded commutative
    residuated monoid over the full pair carrier, with constants (0,1)
    and (1,0).
    """
    require_bcrm(s, "operator twist")
    n = s.poset.n
    odot, oimp = zip(*operator_rows(s, range(n * n), range(n * n)))
    return OperatorStructure(full_twist(s.poset), odot, oimp,
                             zero=s.zero * n + s.one, one=s.one * n + s.zero)


def check_operator_residuated(os):
    """The five-point audit of a set-valued residuated structure:
    bounded constants, well-formed images, commutative product,
    operator associativity, and the adjunction between the operators.

    Each scan reports its first failure in row-major order: (x, y) for
    well-formedness (an image is empty or has a member past the carrier)
    and commutativity, (x, y, z) for associativity and adjunction.  The
    later items still run on images that fail well-formedness, reading an
    image member past the carrier as comparable to nothing: a product
    member is below no element, and an implication member is above no
    element, as p.leq reads it.  Associativity reads each product image
    restricted to the carrier, so such a member has an empty image and is
    in neither side.
    """
    p = os.poset
    n = p.n
    items = []

    if os.zero is None or os.one is None:
        items.append(CheckItem("op-bounded", n == 0))
    else:
        ok = bounds(p) == (os.zero, os.one)
        items.append(CheckItem("op-bounded", ok, named_witness(
            p.names, ("zero", "one"), None if ok else (os.zero, os.one))))

    full = p.full
    wf = next(((op_name, x, y)
               for op_name, table in (("odot", os.odot), ("oimp", os.oimp))
               for x, row in enumerate(table)
               if not all(row) or max(row) > full
               for y in range(n) if not row[y] or row[y] > full), None)
    items.append(CheckItem(
        "op-wellformed", wf is None,
        () if wf is None else
        (("op", wf[0]),) + named_witness(p.names, ("x", "y"), wf[1:])))

    comm = commutativity_failure(os.odot)
    items.append(CheckItem("op-commutative", comm is None,
                           named_witness(p.names, ("x", "y"), comm)))

    assoc = _associativity_failure([tuple(map(full.__and__, row))
                                    for row in os.odot])
    items.append(CheckItem(
        "op-associative", assoc is None,
        () if assoc is None else
        named_witness(p.names, ("x", "y", "z"), assoc)
        + (("lhs", p.render_set(assoc[3])), ("rhs", p.render_set(assoc[4])))))

    adj = _adjunction_failure(p, os.odot, os.oimp)
    items.append(CheckItem("op-adjunction", adj is None,
                           named_witness(p.names, ("x", "y", "z"), adj)))

    return items


def _associativity_failure(dot):
    """The first (x, y, z), row-major, where (x (.) y) (.) z differs from
    x (.) (y (.) z), each side the union of the images of its members,
    as (x, y, z, lhs mask, rhs mask); None when associative.

    dot[x] is the tuple of the image masks x (.) y.  For each distinct
    image mask m, left[m] is the elementwise OR of the rows dot[u]
    (u in m), a row over z, and right[m] the OR of the columns dot[.][u],
    a column over x.  Each union is stored as an array of codes, one per
    distinct value, shared by both sides.  One y at a time, the left
    side in (x, z) order is left[x (.) y] joined over x; the right side is
    right[y (.) z] joined over z, read in (x, z) order by the stride-n
    slices from each x.  One comparison decides y.  When the table equals
    its transpose, right[m] is left[m] and column y is row y, so only the
    left unions are built and the left side's bytes are the right side's
    too.  The row-major first failure is the least (x, y) over the
    failing y, at the first z where its rows differ.
    """
    n = len(dot)
    cols = list(zip(*dot))
    left = {m: _union_rows(dot, m) for m in set().union(*dot)}
    right = left if cols == dot else \
        {m: _union_rows(cols, m) for m in left}
    # a new value takes the next number; a value seen before keeps its own
    code = {}.setdefault
    numbers = count()
    for union in (left,) if right is left else (left, right):
        for m, row in union.items():
            union[m] = array("L", map(code, row, numbers))
    fails = []
    for y, col in enumerate(cols):
        lhs = b"".join(map(left.__getitem__, col))
        zx = array("L", lhs if right is left else
                   b"".join(map(right.__getitem__, dot[y])))
        if lhs != b"".join([zx[x::n] for x in range(n)]):
            fails.append(next((x, y) for x in range(n)
                              if left[col[x]] != zx[x::n]))
    if not fails:
        return None
    x, y = min(fails)
    row = left[dot[x][y]]
    z = next(z for z in range(n) if row[z] != right[dot[y][z]][x])
    lhs = rhs = 0
    for u in bits(dot[x][y]):
        lhs |= dot[u][z]
    for u in bits(dot[y][z]):
        rhs |= dot[x][u]
    return x, y, z, lhs, rhs


def _union_rows(rows, members):
    # elementwise OR of rows[u] over the members u of the mask; zeros for
    # the empty mask
    if not members:
        return [0] * len(rows)
    it = bits(members)
    out = rows[next(it)]
    for u in it:
        out = list(map(int.__or__, out, rows[u]))
    return out


def _adjunction_failure(p, dot, imp):
    """The first (x, y, z), row-major, where "every member of x (.) y is
    below z" and "x is below every member of y (=>) z" disagree; None when
    they always agree.

    The first holds exactly when z is in U(x (.) y); the second exactly
    when x is in L(y (=>) z), the down-set of its maximal elements.  So
    order.adjunction_failure decides it, with above the upper cones and
    each z of column y seeded at the maximal elements of L(y (=>) z).
    Each cone is computed once per distinct image, and the seeds of a
    principal cone, the down-cone of one element, by one lookup.  An image
    with a member past the carrier (a mask above full) has the empty cone,
    so it seeds nothing and is below nothing; the empty image seeds the
    maximal elements of p.
    """
    full = p.full
    principal = {down: x for x, down in enumerate(p.down)}
    tops = {}
    for m in set().union(*imp):
        cone = lower_cone(p, m) if m <= full else 0
        tops[m] = (principal[cone],) if cone in principal else \
            tuple(bits(maximal_elements(p, cone)))
    zbits = [1 << z for z in range(p.n)]
    seeds = ([(w, zbit) for zbit, m in zip(zbits, row) for w in tops[m]]
             for row in imp)
    above = {m: upper_cone(p, m) if m <= full else 0
             for m in set().union(*dot)}
    return adjunction_failure(p, zip(*dot), seeds, above)


def check_embedding(base, poset, a0, image):
    """x maps to (x, a0), the element image[x] of the given pair poset;
    the map must preserve and reflect order."""
    n = base.n
    for x in range(n):
        for y in range(n):
            base_le = base.leq(x, y)
            twist_le = poset.leq(image[x], image[y])
            if base_le != twist_le:
                sides = (("base", base_le), ("twist", twist_le))
                return agreement("embedding", False, sides, named_witness(
                    base.names, ("x", "y", "a0"), (x, y, a0)))
    return CheckItem("embedding", True)


def check_embeddings(base):
    """check_embedding into the full twist for each a0 in turn: the first
    failure, or a pass."""
    n = base.n
    twist = full_twist(base)
    for a0 in range(n):
        item = check_embedding(base, twist, a0, [x * n + a0 for x in range(n)])
        if not item.passed:
            return item
    return CheckItem("embedding", True)
