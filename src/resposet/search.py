"""Exhaustive enumeration of small posets and structures, and the
universal property sweeps built on top of them.

Everything here is deterministic: posets come out of a fixed extension
recursion that grows their cone masks, operation tables are assembled
from columns, or from free cells, in lexicographic order, so re-running
any sweep reproduces the identical sequence.

A structure kind is a block generator and the condition-table rows its
structures satisfy (_KINDS).  A generator takes the posets to enumerate
from, all of one size, and yields blocks, one per (poset, unit) in
enumeration order: a block is (base, tables), base the structure with
the block's poset, unit and zero and no tables, and tables the candidate
(mul, imp) pairs in order.  The units of a residuated pair's poset share
one list of tables; the bounded pairs are those of the posets with both
bounds at the top unit, with the bottom as zero.  _structures builds
each candidate once and keeps it where every row holds: (6) for a
left-residuated groupoid, and also commutativity and associativity for a
commutative residuated monoid, bounded or not.  enumerate_structures(n,
kind) passes all posets of size n; a share of a universal sweep passes
its own slice of them.  Only posets and residuable columns are cached:
check_universal alone enumerates a sweep's items, streaming them, and
prefixes its witness with the item's description.

A sweep decides each part of a case's work once per distinct input it
reads.  A block whose cases a check's hook decides counts them as passes
without checking its structures, and builds them only to count those a
kind with rows keeps (Property): where a law premise that reads only the
poset and the unit ("unit-top") fails, and, for a check that reads no
unit, at each later unit of a residuated pair's poset, whose tables
passed at unit 0.  The twist lift memo (twist._lift) holds the unit-free
parts of the current poset's lifts, and builds and decides each distinct
lifted column of the poset once.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import NamedTuple

from .order import (Poset, _lu_identity_failure, bits, bounds,
                    is_distributive, is_kleene, is_pseudo_kleene)
from .residuation import (LAWS, ResStructure, condition_holds,
                          condition_needs, evaluate_law, residuum_row,
                          synthesize_residuum)
from .twist import (build_operator_twist, check_embeddings,
                    check_operator_residuated, check_twist_lifting,
                    cone_product_failure, full_twist, projection)
from .kleene_twist import build_restricted_twist, check_kleene_twist


class EnumerationError(ValueError):
    pass


_NAMES = "0123456789"

POSET_CAP = 5
STRUCTURE_CAP = 3


@functools.lru_cache(maxsize=None)
def enumerate_posets(n):
    """All labeled posets on n elements, grown by relating each new
    element to a down-set below it and an up-set above it."""
    if n < 1:
        raise EnumerationError("poset size must be positive")
    if n > POSET_CAP:
        raise EnumerationError("poset size %d above cap %d" % (n, POSET_CAP))
    cones = [((1,), (1,))]
    for k in range(1, n):
        cones = [grown for up, down in cones
                 for grown in _extensions(up, down, k)]
    names = tuple(_NAMES[i] for i in range(n))
    return tuple(Poset(names, up, down) for up, down in cones)


def _extensions(up, down, k):
    """Extend the cones over {0..k-1} by element k: choose the down-set A
    of elements below k and the up-set B above it, with every member of A
    below every member of B."""
    downsets = [m for m in range(1 << k)
                if all(down[a] & ~m == 0 for a in bits(m))]
    upsets = [m for m in range(1 << k)
              if all(up[a] & ~m == 0 for a in bits(m))]
    new = 1 << k
    for amask in downsets:
        for bmask in upsets:
            if amask & bmask:
                continue
            if any(bmask & ~up[a] for a in bits(amask)):
                continue
            yield (tuple(u | new if amask >> x & 1 else u
                         for x, u in enumerate(up)) + (bmask | new,),
                   tuple(d | new if bmask >> x & 1 else d
                         for x, d in enumerate(down)) + (amask | new,))


@functools.lru_cache(maxsize=None)
def residuable_columns(p):
    """Map each product column admitting a residuum to its residuum row
    (see residuation.residuum_row)."""
    out = {}
    for col in itertools.product(range(p.n), repeat=p.n):
        row, failure = residuum_row(p, col)
        if failure is None:
            out[col] = row
    return out


def _structures(base, tables, rows):
    """The structures of one block that satisfy every row of rows: base,
    with the block's poset, unit and zero, given each (mul, imp) of tables
    in turn."""
    p, _, _, one, zero, _ = base
    for mul, imp in tables:
        s = ResStructure(p, mul, imp, one, zero)
        for k in rows:
            if not condition_holds(s, k)[0]:
                break
        else:
            yield s


def _residuated_pairs(posets):
    # combo[y] is column y of mul; the units of a poset share its tables
    for p in posets:
        n, colmap = p.n, residuable_columns(p)
        tables = [(tuple(zip(*combo)), tuple(map(colmap.__getitem__, combo)))
                  for combo in itertools.product(colmap, repeat=n)]
        for one in range(n):
            yield ResStructure(p, None, None, one), tables


def _bounded_pairs(posets):
    # the residuated pairs whose zero and unit are the bottom and top
    for base, tables in _residuated_pairs(
            [p for p in posets if None not in bounds(p)]):
        bot, top = bounds(base.poset)
        if base.one == top:
            yield base._replace(zero=bot), tables


def _tables(n, fixed):
    """Every n x n table that agrees with fixed, a dict from cells (x, y)
    to values, with the free cells running lexicographically in row-major
    order."""
    # product keeps each row's choices in one pool, so the tables share
    # their row tuples (enumerate_structures returns tens of thousands)
    return itertools.product(*(
        itertools.product(*((fixed[x, y],) if (x, y) in fixed else range(n)
                            for y in range(n)))
        for x in range(n)))


def _unital_groupoids(posets):
    """All (poset, unit, mul) with the unit column forced to the
    identity; no implication table."""
    for p in posets:
        n = p.n
        for one in range(n):
            yield ResStructure(p, None, None, one), zip(
                _tables(n, {(x, one): x for x in range(n)}),
                itertools.repeat(None))


def _unital_implications(posets):
    """All (poset, unit, imp) with the unit row forced to the identity;
    no product table."""
    for p in posets:
        n = p.n
        for one in range(n):
            yield ResStructure(p, None, None, one), zip(
                itertools.repeat(None),
                _tables(n, {(one, x): x for x in range(n)}))


# each kind: its block generator, and the rows its structures satisfy
_KINDS = {
    "residuated-pair": (_residuated_pairs, ()),
    "left-residuated-groupoid": (_residuated_pairs, (6,)),
    "commutative-residuated-monoid": (
        _residuated_pairs, (6, "commutative", "associative")),
    "bounded-commutative-residuated-monoid": (
        _bounded_pairs, (6, "commutative", "associative")),
    "unital-groupoid": (_unital_groupoids, ()),
    "unital-implication": (_unital_implications, ()),
}

STRUCTURE_KINDS = tuple(_KINDS)


def _check_structures(n, kind):
    """Raise unless kind is a structure kind and n a size it enumerates."""
    if kind not in _KINDS:
        raise EnumerationError("unknown structure kind %r" % (kind,))
    if n < 1:
        raise EnumerationError("structure size must be positive")
    if n > STRUCTURE_CAP:
        raise EnumerationError("structure size %d above cap %d"
                               % (n, STRUCTURE_CAP))


def enumerate_structures(n, kind="left-residuated-groupoid"):
    _check_structures(n, kind)
    generator, rows = _KINDS[kind]
    return tuple(s for base, tables in generator(enumerate_posets(n))
                 for s in _structures(base, tables, rows))


def describe_poset(p):
    """Compact description of a poset: its elements and covers."""
    covers = ",".join("%s<%s" % (p.names[x], p.names[y])
                      for x, y in p.cover_pairs())
    return "elements=%s;covers=%s" % ("".join(p.names), covers or "none")


def describe_structure(s):
    """Compact one-token description used in sweep witnesses."""
    p = s.poset
    parts = [describe_poset(p), "one=" + p.names[s.one]]
    if s.zero is not None:
        parts.append("zero=" + p.names[s.zero])
    for label, table in (("mul", s.mul), ("imp", s.imp)):
        if table is not None:
            parts.append(label + "=" + ".".join(
                "".join(p.names[v] for v in row) for row in table))
    return ";".join(parts)


def _witness_names(s, w):
    return ",".join(s.poset.names[i] for i in w)


class Property(NamedTuple):
    """A universal sweep: check(item) yields one failure reason, or None,
    per case of each item of kind (a structure kind, or "poset") over
    sizes.  A structure check may carry a decided(base) attribute: the
    number of passing cases each structure of base's block counts
    unchecked, or 0 when they must be checked.  A block is decided where
    a premise reading only the poset and the unit fails, or, for a check
    that reads no unit, where it is a later unit of a residuated pair's
    poset: the tables are unit 0's, and the sweep stops at a failure."""
    name: str
    suite: str
    sizes: tuple[int, ...]
    kind: str
    check: object


class UniversalResult(NamedTuple):
    name: str
    cases: int
    witness: str | None

    @property
    def ok(self):
        return self.witness is None


def check_universal(name, sizes=None):
    """Run one registered property over every item of its kind at each
    size, stopping at the first failing case; its witness is the item's
    description followed by the failure reason.

    Each (poset, unit) block of a structure kind is swept as a whole
    (_sweep): the check's decided hook (see Property) counts the cases
    of a block it settles as passes without building its structures.

    The range is split into W shares: W is the number of CPUs this
    process may use (1 where os.fork is missing), capped by the largest
    number of posets at any one size.  Share k holds the items of
    posets[k::W] at every size, so all units of a poset stay in one
    share, with the poset's lifts and lifted columns (twist._lift,
    Property).  The sizes are checked and their posets enumerated before
    anything forks, with the residuable columns of each poset for a
    structure kind: a size error raises here, and the workers inherit
    the posets and columns.  This process runs share 0 and a forked
    worker runs each other share (_split).  A worker only computes,
    writes its case count to a pipe if its share passes, and leaves by
    os._exit, which flushes none of the stdio buffers it inherited.

    When every share passes, the result is PASS with the shares' case
    counts summed.  On any failure, exception or empty report, the
    workers are stopped and the property runs again in this process over
    the whole range in enumeration order (_sweep).  That gives the exact
    first witness and case count, or raises the exception a one-process
    sweep raises.  Every worker is reaped before the call returns."""
    if name not in PROPERTIES:
        raise EnumerationError("unknown property %r" % (name,))
    prop = PROPERTIES[name]
    sizes = prop.sizes if sizes is None else tuple(sizes)
    widest = 0
    for n in sizes:
        if prop.kind != "poset":
            _check_structures(n, prop.kind)
            for p in enumerate_posets(n):
                residuable_columns(p)
        widest = max(widest, len(enumerate_posets(n)))
    shares = min(_cpus(), widest)
    if shares > 1:
        cases = _split(prop, sizes, shares)
        if cases is not None:
            return UniversalResult(name, cases, None)
    return _sweep(prop, sizes)


def _cpus():
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(prop, sizes, share=0, shares=1):
    """Run prop over its items from posets[share::shares] at each size,
    in enumeration order, stopping at the first failing case; by default
    over the whole range.  Items are streamed a (poset, unit) block at a
    time (_blocks), so the lifting sweeps use each poset's lifts and
    lifted columns before moving on (twist._lift), and a check that
    reads no unit meets a poset's tables at unit 0 first (Property)."""
    cases = 0
    for n in sizes:
        posets = enumerate_posets(n)[share::shares]
        if prop.kind == "poset":
            blocks, describe = [(0, posets)], describe_poset
        else:
            blocks, describe = _blocks(prop, posets), describe_structure
        for decided, items in blocks:
            cases += decided
            for item in items:
                for failure in prop.check(item):
                    cases += 1
                    if failure is not None:
                        return UniversalResult(prop.name, cases,
                                               describe(item) + " :: "
                                               + failure)
    return UniversalResult(prop.name, cases, None)


def _blocks(prop, posets):
    """The (poset, unit) blocks of prop's kind over posets, each as
    (decided cases, structures): a block the check's decided hook
    settles (see Property) counts its cases as passes, building its
    structures only where the kind's rows decide which it keeps."""
    generator, rows = _KINDS[prop.kind]
    decided = getattr(prop.check, "decided", None)
    for base, tables in generator(posets):
        each = decided(base) if decided else 0
        if each:
            # a kind with rows counts only the structures it keeps
            kept = _structures(base, tables, rows) if rows else tables
            yield each * sum(1 for _ in kept), ()
        else:
            yield 0, _structures(base, tables, rows)


def _split(prop, sizes, shares):
    """Run share 0 of prop here and shares 1.. in forked workers; return
    the summed case count when every share passes, else None.  A worker's
    report is its share's case count when the share passes, else empty."""
    import signal       # here, as every command imports this module
    workers = []                        # (pid, read end of its pipe)
    try:
        for k in range(1, shares):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:                # the worker
                try:
                    result = _sweep(prop, sizes, k, shares)
                    if result.ok:
                        os.write(write, b"%d" % result.cases)
                finally:
                    os._exit(0)
            os.close(write)
            workers.append((pid, read))
        result = _sweep(prop, sizes, 0, shares)
        if not result.ok:
            return None
        cases = result.cases
        for _, fd in workers:
            report = os.read(fd, 64)
            if not report:              # the share failed or raised
                return None
            cases += int(report)
        return cases
    except Exception:
        # the one-process sweep raises the first exception in enumeration
        # order, or finds an earlier failure in another share
        return None
    finally:
        for pid, fd in workers:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)    # one that reported is exiting
            os.waitpid(pid, 0)


def _at(p, a, reason):
    """A failure reason about the designated element a."""
    return "a=%s :: %s" % (p.names[a], reason)


def _law_check(law):
    """The check of law's sweep, with its block hook (decided, see
    Property): a block passes unchecked where a premise that reads only
    the unit fails, or where law reads no unit and the block is a later
    unit of a residuated pair's poset."""
    designated = "designated" in law.needs
    unit_only = [k for k in law.premises
                 if set(condition_needs(k)) <= {"one"}]
    repeats = "one" not in law.needs and law.kind == "residuated-pair"

    def check(s):
        # a law about a designated element is checked at each element
        for a in range(s.poset.n) if designated else (None,):
            t = s if a is None else s._replace(designated=a)
            status, w = evaluate_law(t, law)
            if status != "REFUTED":
                yield None
                continue
            reason = "condition %s fails at %s" % (law.conclusion,
                                                  _witness_names(s, w))
            yield reason if a is None else _at(s.poset, a, reason)

    def decided(base):
        if (repeats and base.one) or not all(
                condition_holds(base, k)[0] for k in unit_only):
            return base.poset.n if designated else 1    # the cases of one item
        return 0

    check.decided = decided
    return check


def _synthesis(s):
    # the recovered residuum is s's, and (3) holds by the scan that shares
    # no code with the recovery (residuum_row)
    r = synthesize_residuum(s.poset, s.mul)
    if not r.ok or r.imp != s.imp:
        yield "synthesized residuum mismatch"
        return
    ok, w = condition_holds(s._replace(imp=r.imp), 3)
    yield None if ok else (
        "synthesized residuum fails condition 3 at " + _witness_names(s, w))


# reads no unit, over residuated pairs: a later unit of a poset brings
# the tables unit 0 passed (Property)
_synthesis.decided = lambda base: 1 if base.one else 0


def _lifting_check(first_projection):
    def check(s):
        f = projection(s.poset.n, "proj1" if first_projection else "proj2")
        g = projection(s.poset.n, "proj2" if first_projection else "proj1")
        _, items = check_twist_lifting(s, f, g, (s.one, s.one))
        bad = [it for it in items if it.gating and not it.passed]
        yield bad[0].line() if bad else None
    return check


def _operator_audit(s):
    ops = build_operator_twist(s)
    bad = [it for it in check_operator_residuated(ops) if not it.passed]
    if bad:
        yield bad[0].line()
        return
    # an image is a singleton exactly when the implications it is built
    # from collapse; the first failure, row-major, product first
    nn, i = s.poset.n, s.imp
    names = full_twist(s.poset).names
    for x, y, z, v in itertools.product(range(nn), repeat=4):
        p, q = x * nn + y, z * nn + v
        for label, table, collapse in (
                ("product", ops.odot, i[x][v] == i[z][y]),
                ("implication", ops.oimp, i[x][z] == i[v][y])):
            if (table[p][q].bit_count() == 1) != collapse:
                yield "%s image cardinality law fails at %s, %s" % (
                    label, names[p], names[q])
                return
    emb = check_embeddings(s.poset)
    yield None if emb.passed else (
        "embedding fails at a0=" + dict(emb.witness)["a0"])


_RESTRICTED_CLAIMS = ("biconditional", "pseudo-kleene", "embedding",
                      "involution-membership")


def _restricted_biconditional(s):
    """The restricted-twist theorem: under its standing assumptions,
    (11) and (12) hold exactly when the operators restrict to a residuated
    structure; also its pseudo-Kleene, embedding and membership claims.
    check_kleene_twist evaluates each case; a case whose assumptions fail
    has no report items, so it counts but claims nothing."""
    for a in range(s.poset.n):
        bad = [it for it in check_kleene_twist(s, a).items
               if it.check_id in _RESTRICTED_CLAIMS and not it.passed]
        yield _at(s.poset, a, bad[0].line()) if bad else None


def _cone_product(p):
    """The cone product law of the twist order (twist.cone_product_failure);
    full_twist builds the pair poset without re-checking it."""
    w = cone_product_failure(p)
    if w is None:
        yield None
    else:
        names = full_twist(p).names
        yield "cone product law broken at %s, %s" % (names[w[0]], names[w[1]])


def _restricted_pseudo_kleene(p):
    # swap is always a pseudo-Kleene involution on the restricted twist;
    # Kleene implies the base is distributive, and over BOUNDED bases the
    # two are equivalent.  Without bounds the backward direction genuinely
    # fails (2-antichain: base distributive, restricted twist is not).
    base_dist = is_distributive(p).is_distributive
    bot, top = bounds(p)
    bounded = bot is not None and top is not None
    for a in range(p.n):
        rt = build_restricted_twist(p, a)
        pk = is_pseudo_kleene(rt.poset, rt.swap)
        if not pk.ok:
            yield _at(p, a, "swap not pseudo-kleene (%s)" % pk.reason)
            continue
        kl = is_kleene(rt.poset, rt.swap, pk)
        if kl.ok and not base_dist:
            yield _at(p, a, "restricted twist kleene but base not"
                      " distributive")
        elif bounded and base_dist and not kl.ok:
            yield _at(p, a, "bounded distributive base but restricted"
                      " twist not kleene")
        else:
            yield None


def _distributivity_agreement(p):
    """The two cone-distributivity identities agree on every poset;
    is_distributive evaluates only the first and relies on this."""
    if (_lu_identity_failure(p, dual=False) is None) == \
            (_lu_identity_failure(p, dual=True) is None):
        yield None
    else:
        yield "cone distributivity identities disagree"


_BCRM = "bounded-commutative-residuated-monoid"

PROPERTIES: dict[str, Property] = {prop.name: prop for prop in (
    *(Property("law-" + law.law_id, "lemmas", (1, 2, 3), law.kind,
               _law_check(law)) for law in LAWS),
    Property("synthesis-adjunction", "lemmas", (1, 2, 3), "residuated-pair",
             _synthesis),
    Property("twist-lifting-first-projections", "theorems", (1, 2, 3),
             "residuated-pair", _lifting_check(True)),
    Property("twist-lifting-second-projections", "theorems", (1, 2, 3),
             "residuated-pair", _lifting_check(False)),
    Property("operator-twist-audit", "theorems", (1, 2, 3), _BCRM,
             _operator_audit),
    Property("restricted-twist-biconditional", "theorems", (1, 2, 3), _BCRM,
             _restricted_biconditional),
    Property("cone-product-law", "theorems", (1, 2, 3, 4), "poset",
             _cone_product),
    Property("restricted-pseudo-kleene", "theorems", (1, 2, 3, 4), "poset",
             _restricted_pseudo_kleene),
    Property("distributivity-identities-agree", "theorems", (1, 2, 3, 4, 5),
             "poset", _distributivity_agreement),
)}


def suite_properties(suite):
    return tuple(p for p in PROPERTIES.values() if p.suite == suite)
