"""The bitmask kernels against loops written from the definitions.

Cone distributivity (order._lu_identity_failure, both orientations), the
pseudo-Kleene test order.is_pseudo_kleene (antitone decided on the covers,
normality on one lower cone), the principal cones that
order.principal_cone_memos holds from the start, the adjunction scan of
condition (3) and the five-point operator audit
(twist.check_operator_residuated) must give the same verdicts and the
same first witnesses, row-major in (x, y, z), as the plain loops below,
which work on Python sets and p.leq only (operator images are read as
the sets of their members).  Condition (3) and the audit's adjunction
item are one scan, order.adjunction_failure, seeded two ways, so on
one-element images the two must report the same witness.  The LU
identity must hold at every comparable pair of every small poset, which
is why the distributivity scan may skip those pairs, and at an
incomparable pair it must hold at every z exactly when the scan's one
test per pair passes (reduced_lu_test_passes).

The full twist must have the order of its definition, and the restricted
twist must be the definition's carrier under the full twist's order
(reference_restricted_twist).  Since the cone product law holds on every
full twist, cone_product_failure's witness is checked on twists broken
by one flipped bit.

The operator images have one definition in the program,
twist.operator_rows.  The one-cell definitions operator_product and
operator_implication below are its reference: the rows it yields for
any rows and columns, and the full table build_operator_twist, must
match them cell by cell, and the restricted operators must be the full
tables restricted to the carrier (restricted_from_full).
"""

import collections
import functools
import itertools
import random

import pytest

from resposet import twist as twist_module
from resposet.kleene_twist import build_restricted_twist, \
    check_kleene_twist, check_restricted_closure, classify_escape
from resposet.order import _cone, _lu_identity_failure, antichain, bits, \
    chain, is_antitone_involution, is_pseudo_kleene, lowest, mask_of, \
    poset_from_covers, poset_from_leq, principal_cone_memos
from resposet.report import CheckItem
from resposet.residuation import condition_holds, structure
from resposet.search import enumerate_posets, enumerate_structures, \
    residuable_columns
from resposet.structfile import load
from resposet.twist import OperatorStructure, build_operator_twist, \
    _adjunction_failure, check_operator_residuated, cone_product_failure, \
    full_twist, operator_rows, projection, twist_operations


def _leq(p, dual):
    return (lambda a, b: p.leq(b, a)) if dual else p.leq


def _lower(leq, n, subset):
    return frozenset(x for x in range(n) if all(leq(x, a) for a in subset))


def _upper(leq, n, subset):
    return frozenset(x for x in range(n) if all(leq(a, x) for a in subset))


def cone_operators(p, dual):
    """L and U of p (of its order dual with dual) on frozensets, each
    computed once per distinct argument."""
    leq, n = _leq(p, dual), p.n
    return (functools.lru_cache(maxsize=None)(lambda s: _lower(leq, n, s)),
            functools.lru_cache(maxsize=None)(lambda s: _upper(leq, n, s)))


def lu_identity_holds(lower, upper, x, y, z):
    """L(U(x,y) u {z}) = L(U(L(x,z) u L(y,z)))."""
    lhs = lower(upper(frozenset((x, y))) | {z})
    inner = lower(frozenset((x, z))) | lower(frozenset((y, z)))
    return lhs == lower(upper(inner))


def reference_lu_failure(p, dual):
    """The LU identity's first failing triple, row-major."""
    lower, upper = cone_operators(p, dual)
    return next((t for t in itertools.product(range(p.n), repeat=3)
                 if not lu_identity_holds(lower, upper, *t)), None)


def reference_normality_failure(p, mapping):
    """First (x, y) with some member of L(x,x') not below some member of
    U(y,y')."""
    leq, n = p.leq, p.n
    lo = [_lower(leq, n, {x, mapping[x]}) for x in range(n)]
    hi = [_upper(leq, n, {y, mapping[y]}) for y in range(n)]
    above = [_upper(leq, n, {a}) for a in range(n)]
    for x in range(n):
        for y in range(n):
            if not all(hi[y] <= above[a] for a in lo[x]):
                return (x, y)
    return None


def reference_antitone_failure(p, mapping):
    """First (x, y), row-major, with x <= y but not y' <= x'."""
    for x in range(p.n):
        for y in range(p.n):
            if p.leq(x, y) and not p.leq(mapping[y], mapping[x]):
                return (x, y)
    return None


def reference_pseudo_kleene(p, mapping):
    """is_pseudo_kleene's (ok, reason, witness) for a permutation mapping,
    from the definitions: an involution, antitone on every comparable pair
    (reference_antitone_failure), then normal."""
    x = next((x for x in range(p.n) if mapping[mapping[x]] != x), None)
    if x is not None:
        return False, "not an antitone involution: not an involution", (x,)
    w = reference_antitone_failure(p, mapping)
    if w is not None:
        return False, "not an antitone involution: not antitone", w
    w = reference_normality_failure(p, mapping)
    if w is not None:
        return False, "normality fails", w
    return True, "", ()


def _verdict(v):
    return v.ok, v.reason, v.witness


def operator_product(s, x, y, z, v):
    """Set value of (x,y) (.) (z,v) = {(x*z, x->v), (x*z, z->y)} as a mask
    of pair indices."""
    n = s.poset.n
    first = s.mul[x][z] * n
    return 1 << (first + s.imp[x][v]) | 1 << (first + s.imp[z][y])


def operator_implication(s, x, y, z, v):
    """Set value of (x,y) (=>) (z,v) = {(x->z, x*v), (v->y, x*v)} as a mask
    of pair indices."""
    n = s.poset.n
    second = s.mul[x][v]
    return 1 << (s.imp[x][z] * n + second) | 1 << (s.imp[v][y] * n + second)


def restricted_from_full(s, rt):
    """The restricted operators read from the full operator twist: its
    masks on the carrier pairs, re-indexed to carrier indices; or, at the
    first image member outside the carrier (operand pairs row-major, odot
    before oimp, lowest member), that escape's closure item."""
    n = s.poset.n
    full = build_operator_twist(s)
    outside = ~mask_of(rt.index)
    for p, q in itertools.product(rt.index, repeat=2):
        for op, table in (("odot", full.odot), ("oimp", full.oimp)):
            if table[p][q] & outside:
                return classify_escape(
                    s, rt.a, op, divmod(p, n), divmod(q, n),
                    divmod(lowest(table[p][q] & outside), n))
    odot, oimp = (tuple(tuple(mask_of(rt.index[u] for u in bits(table[p][q]))
                              for q in rt.index) for p in rt.index)
                  for table in (full.odot, full.oimp))
    return OperatorStructure(rt.poset, odot, oimp, rt.index[full.zero],
                             rt.index[full.one])


def reference_audit(os):
    """The five-point audit, item for item, from its definitions.  An
    image member past the carrier is comparable to nothing: a product
    member is below no element, an implication member is above no
    element (p.leq reads it so), and associativity reads each product
    image restricted to the carrier."""
    p = os.poset
    n = p.n
    names = p.names
    odot, oimp = ([[set(bits(m)) for m in row] for row in t]
                  for t in (os.odot, os.oimp))
    items = []
    bottom = [x for x in range(n) if all(p.leq(x, y) for y in range(n))]
    top = [x for x in range(n) if all(p.leq(y, x) for y in range(n))]
    ok = bottom == [os.zero] and top == [os.one]
    items.append(CheckItem("op-bounded", ok, () if ok else
                           (("zero", names[os.zero]),
                            ("one", names[os.one]))))

    def first(cells):
        return next(iter(cells), None)

    wf = first((op, x, y) for op, t in (("odot", odot), ("oimp", oimp))
               for x in range(n) for y in range(n)
               if not t[x][y] or any(not 0 <= u < n for u in t[x][y]))
    items.append(CheckItem("op-wellformed", wf is None, () if wf is None else
                           (("op", wf[0]), ("x", names[wf[1]]),
                            ("y", names[wf[2]]))))
    comm = first((x, y) for x in range(n) for y in range(x + 1, n)
                 if odot[x][y] != odot[y][x])
    items.append(CheckItem("op-commutative", comm is None,
                           () if comm is None else
                           (("x", names[comm[0]]), ("y", names[comm[1]]))))

    inside = [[{u for u in cell if u < n} for cell in row] for row in odot]
    items.append(associativity_item(
        names, next(associativity_failures(inside), None)))

    adj = first(adjunction_failures(p, odot, oimp))
    items.append(CheckItem("op-adjunction", adj is None, () if adj is None
                           else tuple(zip("xyz", map(names.__getitem__,
                                                     adj)))))
    return items


def adjunction_failures(p, odot, oimp):
    """Each (x, y, z), row-major, at which "every member of x (.) y is
    below z" and "x is below every member of y (=>) z" disagree; odot and
    oimp hold sets, and a product member past the carrier is below
    nothing."""
    n = p.n
    leq = _leq_matrix(p)
    for x, y, z in itertools.product(range(n), repeat=3):
        if all(u < n and leq[u][z] for u in odot[x][y]) \
                != all(u < n and leq[x][u] for u in oimp[y][z]):
            yield x, y, z


def associativity_failures(odot):
    """Each (x, y, z), row-major, at which (x (.) y) (.) z and
    x (.) (y (.) z) differ, with both sides: odot holds sets, and each
    side is the union of the images of its members."""
    n = len(odot)
    for x, y, z in itertools.product(range(n), repeat=3):
        lhs = {w for u in odot[x][y] for w in odot[u][z]}
        rhs = {w for u in odot[y][z] for w in odot[x][u]}
        if lhs != rhs:
            yield x, y, z, lhs, rhs


def associativity_item(names, failure):
    """The op-associative item for the failure (x, y, z, lhs, rhs), or a
    pass for None."""
    if failure is None:
        return CheckItem("op-associative", True)

    def render(members):
        return "{" + ",".join(names[u] for u in sorted(members)) + "}"

    x, y, z, lhs, rhs = failure
    return CheckItem("op-associative", False,
                     (("x", names[x]), ("y", names[y]), ("z", names[z]),
                      ("lhs", render(lhs)), ("rhs", render(rhs))))


def _lines(items):
    return [item.line() for item in items]


def test_distributivity_matches_reference_on_all_small_posets():
    posets = [p for n in range(1, 5) for p in enumerate_posets(n)]
    assert len(posets) == 1 + 3 + 19 + 219
    for p in posets:
        for dual in (False, True):
            assert _lu_identity_failure(p, dual) == \
                reference_lu_failure(p, dual), (p.names, p.up, dual)


def _poset_permutations():
    # every (poset, permutation) pair with n <= 4: 1 + 3*2 + 19*6 + 219*24
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for perm in itertools.permutations(range(n)):
                yield p, perm


def test_normality_matches_reference_on_all_small_posets():
    # antitone on the covers and normality on one lower cone give the
    # verdict and first witness of the definitions on every pair
    reasons = collections.Counter()
    for p, perm in _poset_permutations():
        want = reference_pseudo_kleene(p, perm)
        assert _verdict(is_pseudo_kleene(p, perm)) == want, \
            (p.names, p.up, perm)
        reasons[want[1]] += 1
    assert reasons == {"": 112, "normality fails": 75,
                       "not an antitone involution: not antitone": 2086,
                       "not an antitone involution: not an involution": 3104}


def test_antitone_witness_matches_reference_on_all_small_posets():
    rejected = checked = 0
    for p, perm in _poset_permutations():
        v = is_antitone_involution(p, perm)
        want = reference_antitone_failure(p, perm)
        if v.reason == "not antitone":
            assert v.witness == want, (p.names, p.up, perm)
            rejected += 1
        elif v.ok:
            assert want is None, (p.names, p.up, perm)
        checked += 1
    assert (checked, rejected) == (5377, 2086)


def _carriers():
    # the restricted twist at every element of the pa bases: 38 carriers
    rng = random.Random(21)
    for name in ("godel8", "godel10", "lukasiewicz10", "example1"):
        base = _relabel(_base(name), rng).poset
        yield from (build_restricted_twist(base, a) for a in range(base.n))


def _repaired(rng, swap):
    # swap with two of its 2-cycles (i j) (k l) re-paired as (i k) (j l):
    # still an involution, and an antitone one only by chance
    cycles = sorted({tuple(sorted((i, j))) for i, j in enumerate(swap)
                     if i != j})
    (i, j), (k, l) = rng.sample(cycles, 2)
    mapping = list(swap)
    mapping[i], mapping[k], mapping[j], mapping[l] = k, i, l, j
    return tuple(mapping)


def test_pseudo_kleene_matches_reference_on_restricted_carriers():
    rng = random.Random("carriers")
    reasons = collections.Counter()
    carriers = list(_carriers())
    assert len(carriers) == 38
    for rt in carriers:
        p = rt.poset
        assert _verdict(is_pseudo_kleene(p, rt.swap)) == (True, "", ())
        if p.n < 4:
            continue
        for _ in range(3):
            mapping = _repaired(rng, rt.swap)
            want = reference_pseudo_kleene(p, mapping)
            assert _verdict(is_pseudo_kleene(p, mapping)) == want, \
                (p.names, mapping)
            reasons[want[1]] += 1
    assert reasons["not an antitone involution: not antitone"] > 50, reasons


def test_principal_cones_match_the_cone_scan():
    # principal_cone_memos answers L(up[m]) and U(down[m]) by lookup; it
    # must give _cone's answer on every mask of every poset with n <= 4,
    # and on the principal masks and their pairwise meets on the carriers
    def check(p, masks):
        lower, upper = principal_cone_memos(p)
        for mask in masks:
            assert lower[mask] == _cone(p.full, p.down, mask), (p.up, mask)
            assert upper[mask] == _cone(p.full, p.up, mask), (p.up, mask)

    for n in range(1, 5):
        for p in enumerate_posets(n):
            check(p, range(1 << n))
    for rt in _carriers():
        p = rt.poset
        check(p, {u & v for cones in (p.up, p.down)
                  for u in cones for v in cones})


@pytest.mark.parametrize("base", [chain(2), chain(3), antichain(2)],
                         ids=["chain2", "chain3", "antichain2"])
def test_distributivity_matches_reference_on_full_twists(base):
    p = full_twist(base)
    for dual in (False, True):
        assert _lu_identity_failure(p, dual) == reference_lu_failure(p, dual)


def test_lu_identity_holds_at_comparable_pairs():
    # the lemma behind skipping comparable pairs: for x <= y, U(x,y) is
    # the up-cone of y and L(x,z) is inside L(y,z), so both sides are
    # L(y,z); the same holds in the dual order
    checked = 0
    for n in range(1, 6):
        for p in enumerate_posets(n):
            for dual in (False, True):
                lower, upper = cone_operators(p, dual)
                for x, y in itertools.product(range(n), repeat=2):
                    if p.leq(x, y) or p.leq(y, x):
                        for z in range(n):
                            assert lu_identity_holds(lower, upper, x, y, z), \
                                (p.names, p.up, dual, x, y, z)
                            checked += 1
    assert checked == 721646


def reduced_lu_test_passes(leq, lower, upper, x, y):
    """The one test per pair that _lu_identity_failure runs: U(L(x,w)) and
    U(L(y,w)) meet inside the up-set of w, at each w of L(U(x,y)) below
    neither x nor y."""
    return all(upper(lower(frozenset((x, w))))
               & upper(lower(frozenset((y, w)))) <= upper(frozenset((w,)))
               for w in lower(upper(frozenset((x, y))))
               if not leq(w, x) and not leq(w, y))


def test_lu_identity_reduces_to_one_test_per_pair():
    # the reduction behind the scan: at an incomparable pair the identity
    # holds at every z exactly when the reduced test passes (both sides
    # are symmetric in x and y, so each unordered pair is tried once)
    checked = failed = 0
    for n in range(1, 6):
        for p in enumerate_posets(n):
            for dual in (False, True):
                lower, upper = cone_operators(p, dual)
                for x, y in itertools.combinations(range(n), 2):
                    if p.leq(x, y) or p.leq(y, x):
                        continue
                    holds = all(lu_identity_holds(lower, upper, x, y, z)
                                for z in range(n))
                    assert holds == reduced_lu_test_passes(
                        _leq(p, dual), lower, upper, x, y), \
                        (p.names, p.up, dual, x, y)
                    checked += 1
                    failed += not holds
    assert (checked, failed) == (36748, 23826)


def test_distributivity_matches_reference_on_random_posets():
    # six to nine elements, past the exhaustive sizes; most of these
    # posets fail, so the witness path is exercised
    rng = random.Random(20)
    failed = 0
    for _ in range(60):
        p = _random_poset(rng, rng.randint(6, 9))
        for dual in (False, True):
            want = reference_lu_failure(p, dual)
            assert _lu_identity_failure(p, dual) == want, (p.up, dual)
            failed += want is not None
    assert 60 < failed < 120


@pytest.mark.parametrize("base, a", [("godel8", a) for a in range(8)]
                         + [("godel10", 5), ("lukasiewicz10", 1)])
def test_distributivity_matches_reference_on_restricted_carriers(base, a):
    # the carriers whose distributivity pa decides
    p = build_restricted_twist(_base(base).poset, a).poset
    assert _lu_identity_failure(p, False) == reference_lu_failure(p, False)


def reference_restricted_twist(base, a):
    """The restricted twist from the definitions: the pairs (x, y),
    row-major, whose common lower bounds are all below a and whose common
    upper bounds are all above it, read from base.leq; full_twist's order
    on them, pair by pair; and the swap (x, y) -> (y, x)."""
    n, leq = base.n, base.leq
    members = [(x, y) for x in range(n) for y in range(n)
               if all(leq(w, a) for w in range(n) if leq(w, x) and leq(w, y))
               and all(leq(a, w) for w in range(n) if leq(x, w) and leq(y, w))]
    twist = full_twist(base)
    pairs = [x * n + y for x, y in members]
    poset = poset_from_leq([twist.names[u] for u in pairs],
                           [[twist.leq(u, v) for v in pairs] for u in pairs])
    swap = tuple(members.index((y, x)) for x, y in members)
    return tuple(members), poset, swap, {u: i for i, u in enumerate(pairs)}


def _restricted_twist_cases():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            yield from ((p, a) for a in range(n))
    rng = random.Random(20)
    for name in ("godel8", "godel10", "lukasiewicz10", "example1"):
        p = _relabel(_base(name), rng).poset
        yield from ((p, a) for a in range(p.n))


def test_restricted_twist_matches_reference():
    sizes = []
    for base, a in _restricted_twist_cases():
        rt = build_restricted_twist(base, a)
        assert (rt.members, rt.poset, rt.swap, rt.index) == \
            reference_restricted_twist(base, a), (base.names, base.up, a)
        sizes.append(rt.poset.n)
    assert (len(sizes), sum(sizes)) == (978, 10280)


def test_full_twist_matches_definition_on_all_small_posets():
    # (x,y) <= (z,v) when x <= z and v <= y, the pair (x, y) at x*n + y
    for n in range(1, 5):
        for p in enumerate_posets(n):
            pairs = list(itertools.product(range(n), repeat=2))
            want = [[p.leq(x, z) and p.leq(v, y) for z, v in pairs]
                    for x, y in pairs]
            twist = full_twist(p)
            assert [[twist.leq(u, w) for w in range(n * n)]
                    for u in range(n * n)] == want, (p.names, p.up)


def reference_cone_product_failure(base, twist):
    """The first (p, q), row-major, where L({p,q}) or U({p,q}) in twist
    differs from the product of base cones, each side a set of pairs."""
    n = base.n
    lower, upper = cone_operators(base, False)
    pairs = list(itertools.product(range(n), repeat=2))
    for (x, y), (z, v) in itertools.product(pairs, repeat=2):
        p, q = x * n + y, z * n + v
        lo = {divmod(u, n) for u in range(n * n)
              if twist.leq(u, p) and twist.leq(u, q)}
        hi = {divmod(u, n) for u in range(n * n)
              if twist.leq(p, u) and twist.leq(q, u)}
        if lo != set(itertools.product(lower(frozenset((x, z))),
                                       upper(frozenset((y, v))))) or \
                hi != set(itertools.product(upper(frozenset((x, z))),
                                            lower(frozenset((y, v))))):
            return p, q
    return None


def test_cone_product_witness_matches_reference(monkeypatch):
    # the law holds on every full twist, so each twist is broken by one
    # flipped up-cone bit (and its down-cone partner) to reach a witness
    rng = random.Random(20)
    for n in (2, 3, 4):
        posets = enumerate_posets(n)
        for base in rng.sample(posets, min(6, len(posets))):
            twist = full_twist(base)
            u, w = rng.sample(range(n * n), 2)
            up, down = list(twist.up), list(twist.down)
            up[u] ^= 1 << w
            down[w] ^= 1 << u
            broken = twist._replace(up=tuple(up), down=tuple(down))
            monkeypatch.setattr(twist_module, "full_twist", lambda b: broken)
            want = reference_cone_product_failure(base, broken)
            assert want is not None
            assert cone_product_failure(base) == want, (base.up, u, w)
            monkeypatch.undo()
            assert cone_product_failure(base) is None


def _bcrms():
    return [s for n in (1, 2, 3)
            for s in enumerate_structures(
                n, "bounded-commutative-residuated-monoid")]


def test_audit_matches_reference_on_bcrm_twists():
    bases = _bcrms()
    assert len(bases) == 15
    for s in bases:
        ops = build_operator_twist(s)
        assert _lines(check_operator_residuated(ops)) == \
            _lines(reference_audit(ops))


def _image(rng, n):
    return mask_of(rng.sample(range(n), rng.randint(0, min(3, n))))


def _random_poset(rng, n):
    # pairs only go up in index order, so no cycle can form
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)
             if rng.random() < 0.3]
    return poset_from_covers(tuple("e%d" % i for i in range(n)), pairs)


def _random_operators(rng, n, commutative):
    p = _random_poset(rng, n)
    odot = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if commutative and y < x:
                odot[x][y] = odot[y][x]
            else:
                odot[x][y] = _image(rng, n)
    oimp = [[_image(rng, n) for _ in range(n)] for _ in range(n)]
    return OperatorStructure(p, tuple(map(tuple, odot)),
                             tuple(map(tuple, oimp)),
                             rng.randrange(n), rng.randrange(n))


def test_audit_matches_reference_on_random_tables():
    rng = random.Random(20201)
    sizes = set()
    for trial in range(300):
        ops = _random_operators(rng, rng.randint(1, 6), trial % 2 == 0)
        sizes.update(img.bit_count()
                     for row in ops.odot + ops.oimp for img in row)
        assert _lines(check_operator_residuated(ops)) == \
            _lines(reference_audit(ops)), trial
    assert sizes == {0, 1, 2, 3}


def test_audit_matches_reference_with_implication_members_past_carrier():
    # op-wellformed fails; the other items are still reported, reading
    # x <= u as false for such a member u
    rng = random.Random(11)
    for trial in range(40):
        ops = _random_operators(rng, rng.randint(1, 5), trial % 2 == 0)
        n = ops.poset.n
        oimp = list(map(list, ops.oimp))
        x, y = rng.randrange(n), rng.randrange(n)
        oimp[x][y] |= 1 << (n + rng.randrange(2))
        ops = OperatorStructure(ops.poset, ops.odot, tuple(map(tuple, oimp)),
                                ops.zero, ops.one)
        want = _lines(reference_audit(ops))
        assert "CHECK (op-wellformed) FAIL" in want[1]
        assert _lines(check_operator_residuated(ops)) == want, trial


def _with_odot(ops, cells):
    odot = list(map(list, ops.odot))
    for x, y, image in cells:
        odot[x][y] = image
    return OperatorStructure(ops.poset, tuple(map(tuple, odot)), ops.oimp,
                             ops.zero, ops.one)


def test_audit_matches_reference_with_product_members_past_carrier(chain3):
    # op-wellformed fails; the other items are still reported, reading a
    # product member past the carrier as below no element and associativity
    # on the images restricted to the carrier
    ops = build_operator_twist(chain3)
    n = ops.poset.n
    structures = [_with_odot(ops, [(0, 0, 1 << n)])]
    rng = random.Random(12)
    for trial in range(40):
        ops = _random_operators(rng, rng.randint(1, 5), trial % 2 == 0)
        n = ops.poset.n
        x, y = rng.randrange(n), rng.randrange(n)
        structures.append(_with_odot(
            ops, [(x, y, ops.odot[x][y] | 1 << (n + rng.randrange(2)))]))
    for trial, ops in enumerate(structures):
        want = _lines(reference_audit(ops))
        assert "CHECK (op-wellformed) FAIL" in want[1]
        assert _lines(check_operator_residuated(ops)) == want, trial


def test_audit_matches_reference_on_perturbed_twists():
    # one changed cell in a passing audit moves the first failure deep
    # into the scan
    rng = random.Random(7)
    twists = [build_operator_twist(s) for s in _bcrms() if s.poset.n >= 2]
    failed = 0
    for trial in range(60):
        ops = rng.choice(twists)
        n = ops.poset.n
        tables = [list(map(list, ops.odot)), list(map(list, ops.oimp))]
        table = tables[trial % 2]
        x, y = rng.randrange(n), rng.randrange(n)
        table[x][y] = _image(rng, n) or 1 << x
        mutated = OperatorStructure(ops.poset,
                                    tuple(map(tuple, tables[0])),
                                    tuple(map(tuple, tables[1])),
                                    ops.zero, ops.one)
        want = _lines(reference_audit(mutated))
        assert _lines(check_operator_residuated(mutated)) == want, trial
        failed += any("FAIL" in line for line in want[3:])
    assert failed > 30


@functools.lru_cache(maxsize=None)
def _leq_matrix(p):
    return [[p.leq(a, b) for b in range(p.n)] for a in range(p.n)]


def reference_adjunction_failure(s):
    """Condition (3): the first (x, y, z), row-major, where x*y <= z and
    x <= y->z disagree."""
    m, i, n = s.mul, s.imp, s.poset.n
    leq = _leq_matrix(s.poset)
    for x in range(n):
        for y in range(n):
            left = leq[m[x][y]]
            right = [leq[x][w] for w in i[y]]
            if left != right:
                return x, y, next(z for z in range(n) if left[z] != right[z])
    return None


def _assert_adjunction_matches(s):
    want = reference_adjunction_failure(s)
    assert condition_holds(s, 3) == (want is None, want), \
        (s.poset.names, s.poset.up, s.mul, s.imp)
    return want


def _lifts(s):
    n = s.poset.n
    one = (s.one, s.one)
    first, second = projection(n, "proj1"), projection(n, "proj2")
    return (twist_operations(s, first, second, one),
            twist_operations(s, second, first, one))


def _perturbed(rng, s, *tables):
    # one cell of mul (0) or imp (1) moved to another value per entry of
    # tables
    n = s.poset.n
    cells = [list(map(list, s.mul)), list(map(list, s.imp))]
    for table in tables:
        x, y = rng.randrange(n), rng.randrange(n)
        cells[table][x][y] = (cells[table][x][y] + rng.randrange(1, n)) % n
    return structure(s.poset, cells[0], cells[1], one=s.one)


def test_adjunction_matches_reference_on_residuated_pairs_and_lifts():
    rng = random.Random(303)
    checked = failed = 0
    for n in (1, 2, 3):
        for s in enumerate_structures(n, "residuated-pair"):
            assert _assert_adjunction_matches(s) is None
            for k, lift in enumerate(_lifts(s)):
                want = [_assert_adjunction_matches(lift)]
                if n > 1 and rng.random() < 0.2:
                    want.append(_assert_adjunction_matches(
                        _perturbed(rng, lift, k)))
                checked += len(want)
                failed += sum(w is not None for w in want)
    assert checked > 12000 and failed > 500


def _singleton_images(table):
    return tuple(tuple(1 << v for v in row) for row in table)


def test_operator_adjunction_matches_condition_3_on_one_element_images():
    # the audit's adjunction item read on the images {x*y} and {y->z} is
    # condition (3), witness for witness
    rng = random.Random(317)
    checked = failed = 0
    for n in (1, 2, 3):
        for s in enumerate_structures(n, "residuated-pair"):
            for t in (s, *_lifts(s)):
                cases = [t]
                if n > 1:
                    cases.append(_perturbed(rng, t, rng.randrange(2)))
                for u in cases:
                    want = condition_holds(u, 3)[1]
                    assert _adjunction_failure(
                        u.poset, _singleton_images(u.mul),
                        _singleton_images(u.imp)) == want, (u.mul, u.imp)
                    checked += 1
                    failed += want is not None
    assert checked > 30000 and failed > 10000


def _chain_structure(n, mul, imp):
    top = n - 1
    return structure(chain(n), [[mul(x, y, top) for y in range(n)]
                                for x in range(n)],
                     [[imp(y, z, top) for z in range(n)] for y in range(n)],
                     one=top, zero=0)


def _godel(n):
    return _chain_structure(n, lambda x, y, top: min(x, y),
                            lambda y, z, top: top if y <= z else z)


def _lukasiewicz(n):
    return _chain_structure(n, lambda x, y, top: max(0, x + y - top),
                            lambda y, z, top: min(top, top - y + z))


def _base(name):
    """"example1", or "godel" or "lukasiewicz" followed by the chain
    length."""
    if name == "example1":
        return load("example1").structure
    kind = name.rstrip("0123456789")
    return {"godel": _godel, "lukasiewicz": _lukasiewicz}[kind](
        int(name[len(kind):]))


@pytest.mark.parametrize("base", ["godel10", "lukasiewicz10", "example1"])
def test_adjunction_matches_reference_on_large_lifts(base):
    s = _base(base)
    lift = _lifts(s)[0]
    assert _assert_adjunction_matches(lift) is None
    # two changed cells can break two columns, and the first witness
    # is then not in the first failing column
    rng = random.Random(base)
    witnesses = {_assert_adjunction_matches(_perturbed(rng, lift, *tables))
                 for tables in ((0,), (1,), (0, 0), (0, 1), (1, 1)) * 2}
    assert None not in witnesses and len(witnesses) == 10


def _random_table(rng, n):
    return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]


def _random_residuated(rng, p):
    # a product of random residuable columns with its residuum
    n = p.n
    columns = residuable_columns(p)
    chosen = [rng.choice(list(columns)) for _ in range(n)]
    return structure(p, [[col[x] for col in chosen] for x in range(n)],
                     [columns[col] for col in chosen], one=rng.randrange(n))


def test_adjunction_matches_reference_on_random_tables():
    # residuated pairs with one cell changed on the smaller posets (the
    # column enumeration is n**n), random tables on all of them
    rng = random.Random(3003)
    witnesses = set()
    for trial in range(300):
        n = rng.randint(1, 6)
        p = _random_poset(rng, n)
        if n <= 4 and trial % 2:
            s = _random_residuated(rng, p)
            if n > 1:
                s = _perturbed(rng, s, rng.randrange(2))
        else:
            s = structure(p, _random_table(rng, n), _random_table(rng, n),
                          one=rng.randrange(n))
        witnesses.add(_assert_adjunction_matches(s))
    assert None in witnesses and len(witnesses) > 30


def _member_sets(table):
    return [[set(bits(m)) for m in row] for row in table]


def _odot_perturbations(rng, ops, count):
    # one or two cells of odot, each set to a one- or two-member image
    n = ops.poset.n
    for trial in range(count):
        yield _with_odot(ops, [
            (rng.randrange(n), rng.randrange(n),
             mask_of(rng.sample(range(n), rng.randint(1, 2))))
            for _ in range(1 + trial % 2)])


def _associativity_line(ops):
    return _lines(check_operator_residuated(ops))[3]


@pytest.mark.parametrize("base", ["godel6", "lukasiewicz6"])
def test_audit_matches_reference_on_perturbed_chain_twists(base):
    # the scan runs to the end, so every failing (x, y) is known: a later y
    # can fail at a smaller x than the least failing y does, and the first
    # witness is then not in the least failing y
    ops = build_operator_twist(_base(base))
    assert _lines(check_operator_residuated(ops)) == \
        _lines(reference_audit(ops))
    names = ops.poset.names
    rng = random.Random(base)
    later_y_first = 0
    for mutated in _odot_perturbations(rng, ops, 8):
        failures = list(associativity_failures(_member_sets(mutated.odot)))
        want = associativity_item(names, min(failures, default=None))
        assert _associativity_line(mutated) == want.line()
        ys = [f[1] for f in failures]
        later_y_first += bool(failures) and min(failures)[1] != min(ys)
    assert later_y_first >= 2


def test_audit_matches_reference_on_perturbed_example1_twist():
    # the reference stops at its first failure: the full scan of these
    # 100 pairs takes seconds
    ops = build_operator_twist(load("example1").structure)
    assert _associativity_line(ops) == "CHECK (op-associative) PASS"
    names = ops.poset.names
    rng = random.Random(1)
    failed = 0
    for mutated in _odot_perturbations(rng, ops, 6):
        first = next(associativity_failures(_member_sets(mutated.odot)),
                     None)
        assert _associativity_line(mutated) == \
            associativity_item(names, first).line()
        failed += first is not None
    assert failed == 6


def test_audit_matches_reference_on_restricted_carrier():
    # in Goedel 8 the operator images stay in the restricted carrier only
    # at ranks 0 and 1; rank 1 gives the larger carrier
    ops = check_kleene_twist(_godel(8), 1).operators
    assert ops.poset.n == 27
    assert _lines(check_operator_residuated(ops)) == \
        _lines(reference_audit(ops))
    names = ops.poset.names
    for mutated in _odot_perturbations(random.Random(8), ops, 4):
        failures = list(associativity_failures(_member_sets(mutated.odot)))
        assert _associativity_line(mutated) == \
            associativity_item(names, min(failures, default=None)).line()


@pytest.mark.parametrize("base", ["bcrms", "godel10", "lukasiewicz10",
                                  "example1"])
def test_operator_twist_matches_cell_definitions(base):
    for s in _bcrms() if base == "bcrms" else [_base(base)]:
        n = s.poset.n
        ops = build_operator_twist(s)
        pairs = list(itertools.product(range(n), repeat=2))
        for table, cell in ((ops.odot, operator_product),
                            (ops.oimp, operator_implication)):
            assert table == tuple(tuple(cell(s, *p, *q) for q in pairs)
                                  for p in pairs)
        assert ops.poset == full_twist(s.poset)
        assert (ops.zero, ops.one) == (s.zero * n + s.one, s.one * n + s.zero)


@pytest.mark.parametrize("base", ["bcrms", "godel10", "example1"])
def test_operator_rows_match_cell_definitions(base):
    # seeded row subsets, in ascending or shuffled order, over all
    # columns, one column, no column, an arbitrary column list, a list
    # that repeats every column it holds and all columns descending
    rng = random.Random(16)
    for s in _bcrms() if base == "bcrms" else [_base(base)]:
        n = s.poset.n
        pairs = range(n * n)
        for cols in (list(pairs), [rng.randrange(n * n)], [],
                     rng.sample(pairs, rng.randint(1, n * n)),
                     rng.choices(pairs, k=n * n) * 2, list(pairs)[::-1]):
            rows = rng.sample(pairs, rng.randint(1, n * n))
            if rng.random() < 0.5:
                rows.sort()
            got = list(operator_rows(s, rows, cols))
            assert len(got) == len(rows)
            for p, (odot, oimp) in zip(rows, got):
                for image, cell in ((odot, operator_product),
                                    (oimp, operator_implication)):
                    assert image == tuple(cell(s, *divmod(p, n),
                                               *divmod(q, n))
                                          for q in cols)


def _relabel(s, rng):
    """s with its index order shuffled; each element keeps its name."""
    n = s.poset.n
    old = rng.sample(range(n), n)       # old[new index] = old index
    new = {u: k for k, u in enumerate(old)}.__getitem__
    p = s.poset
    poset = poset_from_leq([p.names[u] for u in old],
                           [[p.leq(u, w) for w in old] for u in old])
    mul, imp = ([[new(table[u][w]) for w in old] for u in old]
                for table in (s.mul, s.imp))
    return structure(poset, mul, imp, new(s.one), new(s.zero))


def _restriction_cases():
    rng = random.Random(16)
    for name in ("godel8", "godel10", "example1"):
        s = _base(name)
        for t in (s, _relabel(s, rng)):
            yield from ((t, a) for a in range(t.poset.n))
    yield from ((s, a) for s in _bcrms() for a in range(s.poset.n))


def test_restricted_operators_are_restricted_full_tables():
    escapes = closed = 0
    for s, a in _restriction_cases():
        rt = build_restricted_twist(s.poset, a)
        _, closure, ops = check_restricted_closure(s, rt)
        if closure is None:
            continue
        want = restricted_from_full(s, rt)
        if isinstance(want, CheckItem):
            assert (closure, ops) == (want, None), (s, a)
            escapes += 1
        else:
            assert closure.passed and ops == want, (s, a)
            closed += 1
    assert (escapes, closed) == (50, 25)


def _symmetric_odot_perturbations(rng, ops, count):
    # one or two cells of odot, each set together with its mirror cell to
    # a one- or two-member image, so op-commutative still passes
    n = ops.poset.n
    for trial in range(count):
        cells = []
        for _ in range(1 + trial % 2):
            x, y = rng.randrange(n), rng.randrange(n)
            image = mask_of(rng.sample(range(n), rng.randint(1, 2)))
            cells += [(x, y, image), (y, x, image)]
        yield _with_odot(ops, cells)


def _oimp_perturbations(rng, ops, count):
    # one or two cells of oimp, each set to a one- or two-member image
    n = ops.poset.n
    for trial in range(count):
        oimp = list(map(list, ops.oimp))
        for _ in range(1 + trial % 2):
            oimp[rng.randrange(n)][rng.randrange(n)] = \
                mask_of(rng.sample(range(n), rng.randint(1, 2)))
        yield OperatorStructure(ops.poset, ops.odot, tuple(map(tuple, oimp)),
                                ops.zero, ops.one)


def _later_y_first(failures):
    # the row-major first failure is not in the least failing y
    return bool(failures) and min(failures)[1] != min(f[1] for f in failures)


@pytest.mark.parametrize("base", ["godel6", "lukasiewicz6"])
def test_audit_matches_reference_on_perturbed_commutative_chain_twists(base):
    # symmetric odot perturbations keep the product table commutative, so
    # associativity fails on a commutative table; oimp perturbations fail
    # only the adjunction.  Both scans run to the end here, so every
    # failing (x, y) is known, and a later y fails at a smaller x than the
    # least failing y does in some cases of each
    ops = build_operator_twist(_base(base))
    p = ops.poset
    rng = random.Random("commutative " + base)
    later = {"op-associative": 0, "op-adjunction": 0}
    for mutated in itertools.chain(_symmetric_odot_perturbations(rng, ops, 6),
                                   _oimp_perturbations(rng, ops, 6)):
        want = _lines(reference_audit(mutated))
        assert want[2] == "CHECK (op-commutative) PASS"
        assert _lines(check_operator_residuated(mutated)) == want
        odot, oimp = map(_member_sets, (mutated.odot, mutated.oimp))
        later["op-associative"] += _later_y_first(
            [f[:3] for f in associativity_failures(odot)])
        later["op-adjunction"] += _later_y_first(
            list(adjunction_failures(p, odot, oimp)))
    assert min(later.values()) >= 1, later


def test_audit_matches_reference_on_perturbed_commutative_example1_twist():
    ops = build_operator_twist(_base("example1"))
    rng = random.Random("commutative example1")
    failed = 0
    for mutated in itertools.chain(_symmetric_odot_perturbations(rng, ops, 2),
                                   _oimp_perturbations(rng, ops, 2)):
        want = _lines(reference_audit(mutated))
        assert want[2] == "CHECK (op-commutative) PASS"
        assert _lines(check_operator_residuated(mutated)) == want
        failed += any("FAIL" in line for line in want)
    assert failed == 4
