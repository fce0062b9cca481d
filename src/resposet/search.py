"""Exhaustive enumeration of small posets and structures, and the
universal property sweeps built on top of them.

Everything here is deterministic: posets come out of a fixed extension
recursion, operation tables are assembled from columns in lexicographic
order, so re-running any sweep reproduces the identical sequence.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass

from .order import (Poset, _lu_identity_failure, bits, bounds,
                    is_distributive, is_kleene, is_pseudo_kleene, mask_of)
from .residuation import (LAWS, evaluate_law, is_associative, is_commutative,
                          residuum_row, structure, synthesize_residuum)
from .twist import (PairMap, build_operator_twist, check_embeddings,
                    check_operator_residuated, check_twist_lifting,
                    cone_product_failure, pair_names)
from .kleene_twist import (AssumptionError, build_restricted_twist,
                           check_kleene_twist)


class EnumerationError(ValueError):
    pass


_NAMES = "0123456789"

POSET_CAP = 5
STRUCTURE_CAP = 3


@functools.lru_cache(maxsize=None)
def enumerate_posets(n, cap=POSET_CAP):
    """All labeled posets on n elements, grown by relating each new
    element to a down-set below it and an up-set above it."""
    if n < 1:
        raise EnumerationError("poset size must be positive")
    if n > cap:
        raise EnumerationError("poset size %d above cap %d" % (n, cap))
    mats = [((True,),)]
    for k in range(1, n):
        mats = [grown for rows in mats for grown in _extensions(rows, k)]
    out = []
    names = tuple(_NAMES[i] for i in range(n))
    for rows in mats:
        up = tuple(mask_of(y for y in range(n) if rows[x][y])
                   for x in range(n))
        down = tuple(mask_of(y for y in range(n) if rows[y][x])
                     for x in range(n))
        out.append(Poset(names, up, down))
    return tuple(out)


def _extensions(rows, k):
    """Extend the leq matrix over {0..k-1} by element k: choose the
    down-set A of elements below k and the up-set B above it, with
    every member of A below every member of B."""
    down_of = [mask_of(b for b in range(k) if rows[b][a]) for a in range(k)]
    up_of = [mask_of(b for b in range(k) if rows[a][b]) for a in range(k)]
    downsets = [m for m in range(1 << k)
                if all(down_of[a] & ~m == 0 for a in bits(m))]
    upsets = [m for m in range(1 << k)
              if all(up_of[a] & ~m == 0 for a in bits(m))]
    for amask in downsets:
        for bmask in upsets:
            if amask & bmask:
                continue
            if any(bmask & ~up_of[a] for a in bits(amask)):
                continue
            grown = tuple(rows[x] + (bool(amask >> x & 1),) for x in range(k))
            last = tuple(bool(bmask >> y & 1) for y in range(k)) + (True,)
            yield grown + (last,)


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


def _assemble(p, chosen_cols, one, zero=None):
    n = p.n
    colmap = residuable_columns(p)
    mul = tuple(tuple(chosen_cols[y][x] for y in range(n)) for x in range(n))
    imp = tuple(colmap[chosen_cols[y]] for y in range(n))
    return structure(p, mul, imp, one=one, zero=zero)


def _residuated_pairs(n):
    for p in enumerate_posets(n):
        cols = tuple(residuable_columns(p))
        for one in range(n):
            for combo in itertools.product(cols, repeat=n):
                yield _assemble(p, combo, one)


def _lrgs(n):
    ident = tuple(range(n))
    for p in enumerate_posets(n):
        cols = tuple(residuable_columns(p))
        for one in range(n):
            others = [y for y in range(n) if y != one]
            for combo in itertools.product(cols, repeat=n - 1):
                chosen = dict(zip(others, combo))
                chosen[one] = ident
                yield _assemble(p, tuple(chosen[y] for y in range(n)), one)


def _crms(n):
    for s in _lrgs(n):
        if is_commutative(s)[0] and is_associative(s)[0]:
            yield s


def _bcrms(n):
    for s in _crms(n):
        bot, top = bounds(s.poset)
        if bot is not None and top == s.one:
            yield dataclasses.replace(s, zero=bot)


def _unital_groupoids(n):
    """All (poset, unit, mul) with the unit column forced to the
    identity; no implication table."""
    for p in enumerate_posets(n):
        for one in range(n):
            others = [y for y in range(n) if y != one]
            for combo in itertools.product(range(n), repeat=n * (n - 1)):
                mul = []
                for x in range(n):
                    row = [0] * n
                    row[one] = x
                    for j, y in enumerate(others):
                        row[y] = combo[x * (n - 1) + j]
                    mul.append(tuple(row))
                yield structure(p, tuple(mul), None, one=one)


def _unital_implications(n):
    """All (poset, unit, imp) with the unit row forced to the identity;
    no product table."""
    ident = tuple(range(n))
    for p in enumerate_posets(n):
        for one in range(n):
            others = [y for y in range(n) if y != one]
            for combo in itertools.product(
                    itertools.product(range(n), repeat=n), repeat=n - 1):
                rows = dict(zip(others, combo))
                rows[one] = ident
                imp = tuple(rows[y] for y in range(n))
                yield structure(p, None, imp, one=one)


_KINDS = {
    "residuated-pair": _residuated_pairs,
    "left-residuated-groupoid": _lrgs,
    "commutative-residuated-monoid": _crms,
    "bounded-commutative-residuated-monoid": _bcrms,
    "unital-groupoid": _unital_groupoids,
    "unital-implication": _unital_implications,
}

STRUCTURE_KINDS = tuple(_KINDS)


@functools.lru_cache(maxsize=None)
def enumerate_structures(n, kind="left-residuated-groupoid",
                         cap=STRUCTURE_CAP):
    if kind not in _KINDS:
        raise EnumerationError("unknown structure kind %r" % (kind,))
    if n < 1:
        raise EnumerationError("structure size must be positive")
    if n > cap:
        raise EnumerationError("structure size %d above cap %d" % (n, cap))
    return tuple(_KINDS[kind](n))


def describe_structure(s):
    """Compact one-token description used in sweep witnesses."""
    p = s.poset
    covers = ",".join("%s<%s" % (p.names[x], p.names[y])
                      for x, y in p.cover_pairs())
    parts = ["elements=" + "".join(p.names), "covers=" + (covers or "none"),
             "one=" + p.names[s.one]]
    if s.zero is not None:
        parts.append("zero=" + p.names[s.zero])
    for label, table in (("mul", s.mul), ("imp", s.imp)):
        if table is not None:
            parts.append(label + "=" + ".".join(
                "".join(p.names[v] for v in row) for row in table))
    return ";".join(parts)


def _witness_names(s, w):
    return ",".join(s.poset.names[i] for i in w)


@dataclass(frozen=True)
class EnumerationSpec:
    """What a universal sweep ranges over."""
    sizes: tuple[int, ...]
    kind: str | None = None    # None for poset-level sweeps


@dataclass(frozen=True)
class Property:
    name: str
    suite: str
    spec: EnumerationSpec
    runner: object

    def cases(self, n):
        return self.runner(n)


@dataclass(frozen=True)
class UniversalResult:
    name: str
    cases: int
    witness: str | None

    @property
    def ok(self):
        return self.witness is None


PROPERTIES: dict[str, Property] = {}


def _register(name, suite, spec, runner):
    PROPERTIES[name] = Property(name, suite, spec, runner)


def check_universal(name, sizes=None):
    """Run one registered property across its enumeration scope, stopping
    at the first falsifying witness."""
    if name not in PROPERTIES:
        raise EnumerationError("unknown property %r" % (name,))
    prop = PROPERTIES[name]
    cases = 0
    for n in (sizes if sizes is not None else prop.spec.sizes):
        for failure in prop.cases(n):
            cases += 1
            if failure is not None:
                return UniversalResult(name, cases, failure)
    return UniversalResult(name, cases, None)


def _designations(s, needs):
    """The structure, or for a law about a designated element, the
    structure with each element designated in turn, with a witness label."""
    if not needs.get("designated"):
        return (("", s),)
    return tuple((";a=" + s.poset.names[a],
                  dataclasses.replace(s, designated=a))
                 for a in range(s.poset.n))


def _law_runner(kind, law):
    conclusion, needs = law[2], law[3]

    def run(n):
        for s in enumerate_structures(n, kind):
            for label, t in _designations(s, needs):
                status, w = evaluate_law(t, law)
                if status != "REFUTED":
                    yield None
                else:
                    yield "%s%s :: condition %s fails at %s" % (
                        describe_structure(s), label, conclusion,
                        _witness_names(s, w))
    return run


def _run_synthesis(n):
    for s in enumerate_structures(n, "residuated-pair"):
        r = synthesize_residuum(s.poset, s.mul)
        if r.ok and r.imp == s.imp:
            yield None
        else:
            yield describe_structure(s) + " :: synthesized residuum mismatch"


def _lifting_runner(first_projection):
    def run(n):
        for s in enumerate_structures(n, "residuated-pair"):
            if first_projection:
                f, g = PairMap.proj1(), PairMap.proj2()
            else:
                f, g = PairMap.proj2(), PairMap.proj1()
            _, items = check_twist_lifting(s, f, g, (s.one, s.one))
            bad = [it for it in items if it.gating and not it.passed]
            if not bad:
                yield None
            else:
                yield describe_structure(s) + " :: " + bad[0].line()
    return run


def _run_operator_audit(n):
    for s in enumerate_structures(n, "bounded-commutative-residuated-monoid"):
        ops = build_operator_twist(s)
        bad = [it for it in check_operator_residuated(ops) if not it.passed]
        if bad:
            yield describe_structure(s) + " :: " + bad[0].line()
            continue
        failure = None
        nn = s.poset.n
        for x in range(nn):
            for y in range(nn):
                for z in range(nn):
                    for v in range(nn):
                        img = ops.odot[x * nn + y][z * nn + v]
                        collapse = s.imp[x][v] == s.imp[z][y]
                        if (len(img) == 1) != collapse:
                            failure = "product image cardinality law fails"
                        img = ops.oimp[x * nn + y][z * nn + v]
                        collapse = s.imp[x][z] == s.imp[v][y]
                        if (len(img) == 1) != collapse:
                            failure = "implication image cardinality law fails"
        if failure is None:
            emb = check_embeddings(s.poset)
            if not emb.passed:
                failure = "embedding fails at a0=" + dict(emb.witness)["a0"]
        yield None if failure is None else \
            describe_structure(s) + " :: " + failure


_RESTRICTED_CLAIMS = ("biconditional", "pseudo-kleene", "embedding",
                      "involution-membership")


def _run_restricted_biconditional(n):
    """The restricted-twist theorem: under its standing assumptions,
    (11) and (12) hold exactly when the operators restrict to a residuated
    structure; also its pseudo-Kleene, embedding and membership claims.
    check_kleene_twist evaluates each case; cases whose assumptions fail
    count but claim nothing."""
    for s in enumerate_structures(n, "bounded-commutative-residuated-monoid"):
        for a in range(s.poset.n):
            try:
                items = check_kleene_twist(s, a).items
            except AssumptionError:
                yield None
                continue
            bad = [it for it in items
                   if it.check_id in _RESTRICTED_CLAIMS and not it.passed]
            if not bad:
                yield None
            else:
                yield "%s;a=%s :: %s" % (describe_structure(s),
                                         s.poset.names[a], bad[0].line())


def _run_cone_product(n):
    """The cone product law of the twist order (twist.cone_product_failure);
    full_twist builds the pair poset without re-checking it."""
    for p in enumerate_posets(n):
        w = cone_product_failure(p)
        if w is None:
            yield None
        else:
            names = pair_names(p)
            yield "poset %s :: cone product law broken at %s, %s" % (
                "".join(p.names), names[w[0]], names[w[1]])


def _run_restricted_pseudo_kleene(n):
    # swap is always a pseudo-Kleene involution on the restricted twist;
    # Kleene implies the base is distributive, and over BOUNDED bases the
    # two are equivalent.  Without bounds the backward direction genuinely
    # fails (2-antichain: base distributive, restricted twist is not).
    for p in enumerate_posets(n):
        base_dist = is_distributive(p).is_distributive
        bot, top = bounds(p)
        bounded = bot is not None and top is not None
        for a in range(p.n):
            rt = build_restricted_twist(p, a)
            pk = is_pseudo_kleene(rt.poset, rt.swap)
            if not pk.ok:
                yield "poset a=%s :: swap not pseudo-kleene (%s)" % (
                    p.names[a], pk.reason)
                continue
            kl = is_kleene(rt.poset, rt.swap)
            if kl.ok and not base_dist:
                yield ("a=%s :: restricted twist kleene but base not"
                       " distributive" % p.names[a])
            elif bounded and base_dist and not kl.ok:
                yield ("a=%s :: bounded distributive base but restricted"
                       " twist not kleene" % p.names[a])
            else:
                yield None


def _run_distributivity_agreement(n):
    """The two cone-distributivity identities agree on every poset;
    is_distributive evaluates only the first and relies on this."""
    for p in enumerate_posets(n):
        if (_lu_identity_failure(p, dual=False) is None) == \
                (_lu_identity_failure(p, dual=True) is None):
            yield None
        else:
            yield "poset :: cone distributivity identities disagree"


# Which structures each law of residuation.LAWS is swept over.
_LAW_KINDS = {
    "5-from-1-3": "residuated-pair",
    "7-from-comm-1-6-top": "unital-groupoid",
    "8-from-assoc-2-3": "residuated-pair",
    "2-from-3-6": "left-residuated-groupoid",
    "4-from-3-6": "left-residuated-groupoid",
    "9-from-3-6": "left-residuated-groupoid",
    "10-from-5-9-top": "unital-implication",
    "13-from-idempotent": "commutative-residuated-monoid",
}

for _law in LAWS:
    _kind = _LAW_KINDS[_law[0]]
    _register("law-" + _law[0], "lemmas", EnumerationSpec((1, 2, 3), _kind),
              _law_runner(_kind, _law))

_register("synthesis-adjunction", "lemmas",
          EnumerationSpec((1, 2, 3), "residuated-pair"),
          _run_synthesis)

_register("twist-lifting-first-projections", "theorems",
          EnumerationSpec((1, 2, 3), "residuated-pair"),
          _lifting_runner(True))
_register("twist-lifting-second-projections", "theorems",
          EnumerationSpec((1, 2, 3), "residuated-pair"),
          _lifting_runner(False))
_register("operator-twist-audit", "theorems",
          EnumerationSpec((1, 2, 3), "bounded-commutative-residuated-monoid"),
          _run_operator_audit)
_register("restricted-twist-biconditional", "theorems",
          EnumerationSpec((1, 2, 3), "bounded-commutative-residuated-monoid"),
          _run_restricted_biconditional)
_register("cone-product-law", "theorems",
          EnumerationSpec((1, 2, 3, 4), None),
          _run_cone_product)
_register("restricted-pseudo-kleene", "theorems",
          EnumerationSpec((1, 2, 3, 4), None),
          _run_restricted_pseudo_kleene)
_register("distributivity-identities-agree", "theorems",
          EnumerationSpec((1, 2, 3, 4, 5), None),
          _run_distributivity_agreement)


def suite_properties(suite):
    return tuple(p for p in PROPERTIES.values() if p.suite == suite)
