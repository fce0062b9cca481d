"""Finite posets with bitmask cone arithmetic.

Elements are integer indices into a tuple of display names.  Subsets and
relations are plain Python ints used as bitmasks of any width, and no
other representation is kept: a cone is a handful of AND/OR operations, a
row of cones is compared in one list comparison, and the constructors
close and validate the order on the up-cone masks.  The pair carriers of
twist products (n^2 elements for an n-element base) are the largest
posets the package builds.
"""

from __future__ import annotations

import functools
from typing import NamedTuple


class OrderError(ValueError):
    """Input data fails to define the order it claims to define."""


def bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def lowest(mask):
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


class Poset(NamedTuple):
    """A finite poset given by its name tuple and up/down cone tables.

    up[x] is the bitmask of every y with x <= y (including x itself);
    down[x] is the dual.  Instances are built through the poset_from_*
    constructors, which validate the order laws.
    """

    names: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]

    @property
    def n(self):
        return len(self.names)

    @property
    def full(self):
        return (1 << len(self.names)) - 1

    def leq(self, x, y):
        return bool(self.up[x] >> y & 1)

    def lt(self, x, y):
        return x != y and bool(self.up[x] >> y & 1)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise OrderError("unknown element name %r" % (name,)) from None

    def render_set(self, mask):
        return "{" + ",".join(self.names[i] for i in bits(mask)) + "}"

    def cover_pairs(self):
        """Hasse covers (x, y), x ascending, then y (see upper_covers)."""
        return [(x, y) for x, ys in enumerate(upper_covers(self))
                for y in bits(ys)]


@functools.lru_cache(maxsize=256)
def upper_covers(p):
    """The mask of each element's upper covers: the elements strictly above
    it, less the strict up-cone of each of them.  Memoized for the recent
    posets only: a command reads one poset's covers more than once, while
    the restricted-pseudo-kleene sweep reads each of its carriers once."""
    strict = [u ^ 1 << x for x, u in enumerate(p.up)]
    outside = [~s for s in strict]
    return tuple(_cone(s, outside, s) for s in strict)


@functools.lru_cache(maxsize=256)
def cover_walk(p):
    """Each (x, c) with c an upper cover of x, x in ascending up-cone mask
    order: a proper subset is a smaller int, so the pairs of c all come
    before those of x.  Memoized for the recent posets only, as
    upper_covers is."""
    covers = upper_covers(p)
    return tuple((x, c) for x in sorted(range(p.n), key=p.up.__getitem__)
                 for c in bits(covers[x]))


def adjunction_failure(p, cols, seeds, above):
    """The first (x, y, z), row-major, at which "z is in above[cols[y][x]]"
    and "x is below a seed of z in column y" disagree; None when they
    always agree.  seeds holds, for each column y, the pairs (w, 1 << z)
    that seed z at w.

    One column at a time on masks over z: R[w] starts as the OR of the
    z-bits seeded at w, and R[x] |= R[c] over the cover walk (covers
    first) leaves in R[x] the z with x below a seed of z, which must equal
    above[cols[y][x]].  The witness is the least failing (x, y, z)."""
    n = p.n
    walk = cover_walk(p)
    fails = []
    for y, (col, pairs) in enumerate(zip(cols, seeds)):
        r = [0] * n
        for w, zbit in pairs:
            r[w] |= zbit
        for x, c in walk:
            r[x] |= r[c]
        want = list(map(above.__getitem__, col))
        if r != want:
            x = next(x for x in range(n) if r[x] != want[x])
            fails.append((x, y, lowest(r[x] ^ want[x])))
    return min(fails, default=None)


# Words that open a section of the structure file format; an element
# with one of these names would read back as that section.
SECTION_WORDS = frozenset(("elements", "covers", "order", "table", "const",
                           "designated", "pairmap", "optable"))


def check_names(names):
    """The one rule for element names: none may be empty, hold whitespace,
    '#', ',', '{' or '}', or be a section word, since the structure file
    format would read each of those back as something else (',' separates
    the members of an optable cell, the two names of a pairmap pair and
    the two names of twist --const; braces enclose an optable cell)."""
    for name in names:
        if (not name or name in SECTION_WORDS
                or any(c in "#,{}" or c.isspace() for c in name)):
            raise OrderError(
                "element name %r is empty, a section word, or contains"
                " whitespace, '#', ',', '{' or '}'" % (name,))


def _poset(names, up):
    """The poset whose up-cones are up, after validating the element names
    (check_names) and the reflexivity, antisymmetry and transitivity laws;
    the error names the law and its first witness, row-major."""
    names = tuple(names)
    n = len(names)
    check_names(names)
    if len(set(names)) != n:
        raise OrderError("duplicate element names")
    up = tuple(up)
    down = tuple(mask_of(x for x in range(n) if up[x] >> y & 1)
                 for y in range(n))
    for x in range(n):
        if not up[x] >> x & 1:
            raise OrderError("reflexivity fails at %s" % names[x])
    for x in range(n):
        both = up[x] & down[x] & ~(1 << x)
        if both:
            raise OrderError("antisymmetry fails at pair (%s, %s)"
                             % (names[x], names[lowest(both)]))
    for x in range(n):
        for y in bits(up[x]):
            missing = up[y] & ~up[x]
            if missing:
                raise OrderError("transitivity fails at (%s, %s, %s)" % (
                    names[x], names[y], names[lowest(missing)]))
    return Poset(names, up, down)


def poset_from_leq(names, leq):
    """Build a poset from a full boolean relation matrix (see _poset)."""
    n = len(names)
    return _poset(names, (mask_of(y for y in range(n) if leq[x][y])
                          for x in range(n)))


def _reflexive(n, pairs):
    # the up-cones of the relation pairs plus reflexivity
    up = [1 << x for x in range(n)]
    for x, y in pairs:
        up[x] |= 1 << y
    return up


def poset_from_relation(names, pairs):
    """Build a poset from an explicit list of (x, y) related pairs.

    The relation is taken as claimed (plus reflexivity); a missing
    transitive consequence is a validation error, not something we patch.
    """
    return _poset(names, _reflexive(len(names), pairs))


def poset_from_covers(names, pairs):
    """Build a poset from cover (or any generating) pairs by taking the
    reflexive-transitive closure.  Cycles surface as antisymmetry errors.
    """
    up = _reflexive(len(names), pairs)
    # Warshall: after step k, up[x] holds every y reachable through
    # intermediates below k
    for k in range(len(up)):
        for x in range(len(up)):
            if up[x] >> k & 1:
                up[x] |= up[k]
    return _poset(names, up)


def lower_cone(p, mask):
    """L(A): elements below every member of A.  L(empty) is everything."""
    return _cone(p.full, p.down, mask)


def upper_cone(p, mask):
    """U(A): elements above every member of A.  U(empty) is everything."""
    return _cone(p.full, p.up, mask)


def _cone(cone, table, mask):
    # AND of table[x] over the members x of mask, starting from cone
    while mask:
        low = mask & -mask
        cone &= table[low.bit_length() - 1]
        mask ^= low
    return cone


class ConeMemo(dict):
    """cone(p, mask) for each mask looked up (cone is lower_cone or
    upper_cone), computed once per distinct mask.  A mask with a member
    past the carrier has the empty cone: that member is comparable to
    nothing."""

    def __init__(self, cone, p):
        super().__init__()
        self.cone = cone
        self.p = p
        self.full = p.full

    def __missing__(self, mask):
        value = self[mask] = \
            self.cone(self.p, mask) if mask <= self.full else 0
        return value


def principal_cone_memos(p):
    """ConeMemos of lower_cone and upper_cone over p that hold the cones
    of the principal sets from the start: L(up[m]) = down[m], as every
    element below all of up[m] is below m, which is in up[m], and every
    element below m is below all of up[m]; dually U(down[m]) = up[m].  So
    the members of a principal set are never scanned.  In a lattice every
    common up-set up[x] & up[y] is principal (the up-set of the join), and
    dually every common down-set."""
    lower, upper = ConeMemo(lower_cone, p), ConeMemo(upper_cone, p)
    lower.update(zip(p.up, p.down))
    upper.update(zip(p.down, p.up))
    return lower, upper


def _monotone_failure(p, t, antitone=False):
    """x <= y must give t[z][x] <= t[z][y] for every row z of t
    (t[z][y] <= t[z][x] when antitone).  Conditions (1), (2), (4) and (5)
    pass an operation table or its transpose, is_antitone_involution the
    one-row table of its map.  The witness is (x, y, z)."""
    up = p.up
    cone = p.down if antitone else up
    for x in range(p.n):
        for y in bits(up[x]):
            for z in range(len(t)):
                if not cone[t[z][x]] >> t[z][y] & 1:
                    return (x, y, z)
    return None


def set_leq(p, amask, bmask):
    """Every element of A below every element of B (vacuously true when
    either side is empty)."""
    for y in bits(bmask):
        if amask & ~p.down[y]:
            return False
    return True


def maximal_elements(p, mask):
    return mask_of(x for x in bits(mask) if p.up[x] & mask == 1 << x)


def minimal_elements(p, mask):
    return mask_of(x for x in bits(mask) if p.down[x] & mask == 1 << x)


def bounds(p):
    """(bottom, top) of the whole poset, each None when absent."""
    bottom = top = None
    for x in range(p.n):
        if p.up[x] == p.full:
            bottom = x
        if p.down[x] == p.full:
            top = x
    return bottom, top


class LatticeVerdict(NamedTuple):
    is_lattice: bool
    kind: str = ""        # "join" or "meet" for the failing pair
    x: int = -1
    y: int = -1
    candidates: int = 0   # minimal upper bounds (resp. maximal lower)


def is_lattice(p):
    """Every pair needs a join and a meet; the witness records the first
    pair (row-major) without one, together with its minimal upper bounds
    (or maximal lower bounds)."""
    for x in range(p.n):
        for y in range(x + 1, p.n):
            ub = p.up[x] & p.up[y]
            mubs = minimal_elements(p, ub)
            if mubs.bit_count() != 1:
                return LatticeVerdict(False, "join", x, y, mubs)
            lb = p.down[x] & p.down[y]
            mlbs = maximal_elements(p, lb)
            if mlbs.bit_count() != 1:
                return LatticeVerdict(False, "meet", x, y, mlbs)
    return LatticeVerdict(True)


class DistributivityVerdict(NamedTuple):
    is_distributive: bool
    witness: tuple[int, int, int] | None = None


def is_distributive(p):
    """Cone distributivity: L(U(x,y), z) = LU(L(x,z) u L(y,z)) for every
    triple.  Triples are scanned row-major in (x, y, z), and the witness
    is the first failing one.

    The dual identity is equivalent; that equivalence is a theorem checked
    by the distributivity-identities-agree sweep in search, not here.
    """
    first = _lu_identity_failure(p, dual=False)
    return DistributivityVerdict(first is None, first)


def _lu_identity_failure(p, dual):
    """The first triple (x, y, z), row-major, at which
    L(U(x,y) u {z}) = L(U(L(x,z) u L(y,z))) fails, or None; with dual the
    same identity in the order-dual poset.

    Both sides are symmetric in x and y, and equal at comparable pairs:
    for x <= y, U(x,y) is the up-cone of y, so the left side is L(y,z),
    and L(x,z) is inside L(y,z), so the right side is LUL(y,z) = L(y,z)
    (dually for y <= x).  So only the y > x incomparable with x are
    scanned, and the first failing triple is the same.

    The right side lies inside the left, as each member of L(x,z) u L(y,z)
    is below z and below all of U(x,y); and it grows with z, as L(x,z) and
    L(y,z) do.  So the identity holds at every z exactly when each w of
    L(U(x,y)) is in the right side at w (a w <= z of the left side at z is
    then in the right side at w, inside the one at z): U(L(x,w)) &
    U(L(y,w)) inside up[w], two up-cone lookups.  That holds outright when
    w <= x (L(x,w) = down[w]) or w <= y, so only the other w are tested.
    Both sides are built, for all z at once, only for the first failing
    pair, to name its first z.  The cones come from principal_cone_memos.
    """
    if dual:
        p = Poset(p.names, p.down, p.up)
    n, full = p.n, p.full
    up, down = p.up, p.down
    lower, upper = principal_cone_memos(p)
    for x in range(n):
        dx = down[x]
        for y in bits((full ^ (up[x] | dx)) >> x << x):
            dy = down[y]
            outer = lower[up[x] & up[y]]
            if any(upper[dx & down[w]] & upper[dy & down[w]] & ~up[w]
                   for w in bits(outer & ~(dx | dy))):
                lhs = list(map(outer.__and__, down))
                rhs = [lower[upper[dx & dz] & upper[dy & dz]] for dz in down]
                return x, y, next(z for z in range(n) if lhs[z] != rhs[z])
    return None


class InvolutionVerdict(NamedTuple):
    ok: bool
    reason: str = ""
    witness: tuple[int, ...] = ()


def is_antitone_involution(p, mapping):
    """mapping is a tuple sending index to index; checks x'' = x and that
    x <= y forces y' <= x'.

    The antitone law is decided on the Hasse covers (upper_covers): every
    cover is a comparable pair, and in a finite poset every x < y is a
    chain of covers x = c0 < c1 < ... < ck = y, whose reversed images
    c(i+1)' <= c(i)' give y' <= x' by transitivity.  So the law holds
    exactly when c' <= x' for each upper cover c of each x.  Only when that
    fails does the scan over every comparable pair (x, y), x ascending,
    then y, name the first failing pair."""
    mapping = tuple(mapping)
    if len(mapping) != p.n or any(not 0 <= i < p.n for i in mapping):
        return InvolutionVerdict(False, "not a self-map", ())
    for x in range(p.n):
        if mapping[mapping[x]] != x:
            return InvolutionVerdict(False, "not an involution", (x,))
    down = p.down
    for x, covers in enumerate(upper_covers(p)):
        below = down[mapping[x]]
        for c in bits(covers):
            if not below >> mapping[c] & 1:
                w = _monotone_failure(p, (mapping,), antitone=True)
                return InvolutionVerdict(False, "not antitone", w[:2])
    return InvolutionVerdict(True)


def is_pseudo_kleene(p, mapping):
    """Antitone involution whose mixed cones line up: every element of
    L(x, x') sits below every element of U(y, y').

    That is L(x, x') inside L(U(y, y')) for every x and y, so normality
    holds exactly when the union of the L(x, x') lies inside the meet of
    the L(U(y, y')), which is one lower cone: L(A u B) = L(A) & L(B), so
    the meet is L of the union of the U(y, y').  Only when that fails are
    the cones built per y, to name the first failing (x, y), row-major."""
    base = is_antitone_involution(p, mapping)
    if not base.ok:
        return InvolutionVerdict(False, "not an antitone involution: " + base.reason,
                                 base.witness)
    up, down = p.up, p.down
    lo = [down[x] & down[x2] for x, x2 in enumerate(mapping)]
    hi = [up[y] & up[y2] for y, y2 in enumerate(mapping)]
    if functools.reduce(int.__or__, lo, 0) & \
            ~lower_cone(p, functools.reduce(int.__or__, hi, 0)):
        below_hi = [lower_cone(p, h) for h in hi]
        return InvolutionVerdict(False, "normality fails", next(
            (x, y) for x in range(p.n) for y in range(p.n)
            if lo[x] & ~below_hi[y]))
    return InvolutionVerdict(True)


def is_kleene(p, mapping, pseudo_kleene=None):
    """Distributive pseudo-Kleene poset.  A caller that already holds the
    is_pseudo_kleene(p, mapping) verdict passes it as pseudo_kleene, so
    that test is not run twice."""
    pk = pseudo_kleene
    if pk is None:
        pk = is_pseudo_kleene(p, mapping)
    if not pk.ok:
        return pk
    dist = is_distributive(p)
    if not dist.is_distributive:
        return InvolutionVerdict(False, "not distributive", dist.witness)
    return InvolutionVerdict(True)


def chain(n):
    """The n-element chain 0 < 1 < ... < n-1 with stringified names."""
    return _poset(map(str, range(n)), ((1 << n) - (1 << x) for x in range(n)))


def antichain(n):
    return _poset(map(str, range(n)), (1 << x for x in range(n)))
