"""Finite posets with bitmask cone arithmetic.

Elements are integer indices into a tuple of display names.  Subsets are
plain Python ints used as bitmasks, so cone computations are a handful of
AND/OR operations even for the largest carriers we care about (twist
products of 10-element posets, i.e. 100 elements).
"""

from __future__ import annotations

from dataclasses import dataclass


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


def popcount(mask):
    return mask.bit_count()


@dataclass(frozen=True)
class Poset:
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
        """Hasse covers (x, y) with x < y and nothing strictly between."""
        out = []
        for x in range(self.n):
            for y in bits(self.up[x] & ~(1 << x)):
                between = self.up[x] & self.down[y] & ~(1 << x) & ~(1 << y)
                if not between:
                    out.append((x, y))
        return out


def _validate_leq(names, leq):
    n = len(names)
    for x in range(n):
        if not leq[x][x]:
            raise OrderError("reflexivity fails at %s" % names[x])
    for x in range(n):
        for y in range(n):
            if x != y and leq[x][y] and leq[y][x]:
                raise OrderError(
                    "antisymmetry fails at pair (%s, %s)" % (names[x], names[y]))
    for x in range(n):
        for y in range(n):
            if not leq[x][y]:
                continue
            for z in range(n):
                if leq[y][z] and not leq[x][z]:
                    raise OrderError(
                        "transitivity fails at (%s, %s, %s)"
                        % (names[x], names[y], names[z]))


def poset_from_leq(names, leq):
    """Build a poset from a full boolean relation matrix, validating the
    reflexivity, antisymmetry and transitivity laws (error names the law
    and a witness)."""
    names = tuple(names)
    n = len(names)
    if len(set(names)) != n:
        raise OrderError("duplicate element names")
    _validate_leq(names, leq)
    up = tuple(mask_of(y for y in range(n) if leq[x][y]) for x in range(n))
    down = tuple(mask_of(y for y in range(n) if leq[y][x]) for x in range(n))
    return Poset(names, up, down)


def poset_from_relation(names, pairs):
    """Build a poset from an explicit list of (x, y) related pairs.

    The relation is taken as claimed (plus reflexivity); a missing
    transitive consequence is a validation error, not something we patch.
    """
    names = tuple(names)
    n = len(names)
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x, y in pairs:
        leq[x][y] = True
    return poset_from_leq(names, leq)


def poset_from_covers(names, pairs):
    """Build a poset from cover (or any generating) pairs by taking the
    reflexive-transitive closure.  Cycles surface as antisymmetry errors.
    """
    names = tuple(names)
    n = len(names)
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x, y in pairs:
        leq[x][y] = True
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                if not leq[x][y]:
                    continue
                for z in range(n):
                    if leq[y][z] and not leq[x][z]:
                        leq[x][z] = True
                        changed = True
    return poset_from_leq(names, leq)


def lower_cone(p, mask):
    """L(A): elements below every member of A.  L(empty) is everything."""
    cone = p.full
    for x in bits(mask):
        cone &= p.down[x]
    return cone


def upper_cone(p, mask):
    """U(A): elements above every member of A.  U(empty) is everything."""
    cone = p.full
    for x in bits(mask):
        cone &= p.up[x]
    return cone


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


@dataclass(frozen=True)
class LatticeVerdict:
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
            if popcount(mubs) != 1:
                return LatticeVerdict(False, "join", x, y, mubs)
            lb = p.down[x] & p.down[y]
            mlbs = maximal_elements(p, lb)
            if popcount(mlbs) != 1:
                return LatticeVerdict(False, "meet", x, y, mlbs)
    return LatticeVerdict(True)


@dataclass(frozen=True)
class DistributivityVerdict:
    is_distributive: bool
    witness: tuple[int, int, int] | None = None


def is_distributive(p):
    """Cone distributivity: L(U(x,y), z) = LU(L(x,z) u L(y,z)) for every
    triple, with the first failing triple (row-major) as witness.

    The dual identity is equivalent; that equivalence is a theorem checked
    by the distributivity-identities-agree sweep in search, not here.
    """
    first = _lu_identity_failure(p, dual=False)
    return DistributivityVerdict(first is None, first)


def _lu_identity_failure(p, dual):
    n = p.n
    up, down = p.up, p.down
    if dual:
        up, down = down, up
    # pair cones under the chosen orientation
    lo2 = [[down[x] & down[y] for y in range(n)] for x in range(n)]
    for x in range(n):
        for y in range(n):
            outer = p.full
            for u in bits(up[x] & up[y]):
                outer &= down[u]
            for z in range(n):
                lhs = outer & down[z]
                inner = lo2[x][z] | lo2[y][z]
                mid = p.full
                for u in bits(inner):
                    mid &= up[u]
                rhs = p.full
                for u in bits(mid):
                    rhs &= down[u]
                if lhs != rhs:
                    return (x, y, z)
    return None


@dataclass(frozen=True)
class InvolutionVerdict:
    ok: bool
    reason: str = ""
    witness: tuple[int, ...] = ()


def is_antitone_involution(p, mapping):
    """mapping is a tuple sending index to index; checks x'' = x and that
    x <= y forces y' <= x'."""
    mapping = tuple(mapping)
    if len(mapping) != p.n or any(not 0 <= i < p.n for i in mapping):
        return InvolutionVerdict(False, "not a self-map", ())
    for x in range(p.n):
        if mapping[mapping[x]] != x:
            return InvolutionVerdict(False, "not an involution", (x,))
    for x in range(p.n):
        for y in bits(p.up[x]):
            if not p.leq(mapping[y], mapping[x]):
                return InvolutionVerdict(False, "not antitone", (x, y))
    return InvolutionVerdict(True)


def is_pseudo_kleene(p, mapping):
    """Antitone involution whose mixed cones line up: every element of
    L(x, x') sits below every element of U(y, y')."""
    base = is_antitone_involution(p, mapping)
    if not base.ok:
        return InvolutionVerdict(False, "not an antitone involution: " + base.reason,
                                 base.witness)
    lo = [p.down[x] & p.down[mapping[x]] for x in range(p.n)]
    hi = [p.up[y] & p.up[mapping[y]] for y in range(p.n)]
    for x in range(p.n):
        for y in range(p.n):
            if not set_leq(p, lo[x], hi[y]):
                return InvolutionVerdict(False, "normality fails", (x, y))
    return InvolutionVerdict(True)


def is_kleene(p, mapping):
    """Distributive pseudo-Kleene poset."""
    pk = is_pseudo_kleene(p, mapping)
    if not pk.ok:
        return pk
    dist = is_distributive(p)
    if not dist.is_distributive:
        return InvolutionVerdict(False, "not distributive", dist.witness)
    return InvolutionVerdict(True)


def chain(n):
    """The n-element chain 0 < 1 < ... < n-1 with stringified names."""
    names = tuple(str(i) for i in range(n))
    leq = [[x <= y for y in range(n)] for x in range(n)]
    return poset_from_leq(names, leq)


def antichain(n):
    names = tuple(str(i) for i in range(n))
    leq = [[x == y for y in range(n)] for x in range(n)]
    return poset_from_leq(names, leq)
