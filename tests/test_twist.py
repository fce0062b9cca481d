import collections
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from resposet import residuation, search, twist
from resposet.kleene_twist import build_restricted_twist, check_kleene_twist
from resposet.order import (antichain, bits, bounds, chain,
                            is_antitone_involution, is_kleene,
                            is_pseudo_kleene, poset_from_covers)
from resposet.residuation import (StructureError, classify, condition_holds,
                                  structure, synthesize_residuum)
from resposet.search import enumerate_posets, enumerate_structures
from resposet.twist import (build_operator_twist, check_embedding,
                            check_operator_residuated, check_twist_lifting,
                            full_twist, pair_names, pair_poset, projection,
                            twist_operations)
from test_kernels import operator_implication, operator_product


def test_full_twist_order(example1):
    tw = full_twist(example1.poset)
    p = example1.poset
    n = p.n
    assert tw.n == 100
    # (x,y) <= (z,v) iff x <= z and v <= y
    i1 = p.index("a") * n + p.index("h")
    i2 = p.index("b") * n + p.index("e")
    assert tw.leq(i1, i2)
    assert not tw.leq(i2, i1)


def test_pair_names_compressed(chain3):
    names = pair_names(chain3.poset)
    assert names[0] == "00"
    assert names[chain3.poset.n * 1 + 2] == "a1"


def test_pair_names_fallback_on_ambiguity():
    p = poset_from_covers(("x", "xx"), ((0, 1),))
    names = pair_names(p)
    assert names[1] == "(x,xx)"


def test_first_projection_lift_spot_values(example1):
    p = example1.poset
    n = p.n
    ts = twist_operations(example1, projection(n, "proj1"),
                          projection(n, "proj2"),
                          (example1.one, example1.one))
    names = pair_names(p)
    pi = p.index("b") * n + p.index("c")
    qi = p.index("d") * n + p.index("e")
    # (b,c) odot (d,e) = (b*d, e->c) = (0, h)
    assert names[ts.mul[pi][qi]] == "0h"
    # (b,c) => (d,e) = (b->d, e*c)
    want = p.index("h") * n + example1.mul[p.index("e")][p.index("c")]
    assert ts.imp[pi][qi] == want


def test_second_projection_lift_spot_value(example1):
    p = example1.poset
    n = p.n
    ts = twist_operations(example1, projection(n, "proj2"),
                          projection(n, "proj1"),
                          (example1.one, example1.one))
    pi = p.index("b") * n + p.index("c")
    qi = p.index("d") * n + p.index("e")
    # (b,c) odot (d,e) = (b*e, d->c)
    want = (example1.mul[p.index("b")][p.index("e")] * n
            + example1.imp[p.index("d")][p.index("c")])
    assert ts.mul[pi][qi] == want


def test_lifting_checks_pass_on_example1(example1):
    n = example1.poset.n
    for f, g in ((projection(n, "proj1"), projection(n, "proj2")),
                 (projection(n, "proj2"), projection(n, "proj1"))):
        ts, items = check_twist_lifting(example1, f, g,
                                        (example1.one, example1.one))
        assert all(it.passed for it in items), [it.line() for it in items]
        assert ts.poset.n == 100


def test_unit_transfer_uses_9_not_7():
    # a left-residuated groupoid that fails (7) still lifts to a twist
    # satisfying the unit law, because the transfer needs (6) and (9)
    found = False
    for s in enumerate_structures(2, "left-residuated-groupoid"):
        if condition_holds(s, 7)[0]:
            continue
        found = True
        ts, items = check_twist_lifting(s, projection(2, "proj1"),
                                        projection(2, "proj2"), (s.one, s.one))
        by_id = {it.check_id: it for it in items}
        assert by_id["unit-transfer"].passed
        assert by_id["lifting-biconditional"].passed
        assert condition_holds(ts, 6)[0]
    assert found


def test_pairmap_from_table_and_validation(chain3):
    n = chain3.poset.n
    table = tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
    assert table[0][2] == 2
    # constant map is not surjective
    bad = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    with pytest.raises(StructureError, match="surjective"):
        twist_operations(chain3, bad, projection(n, "proj2"), (2, 2))
    # const pair must be sent to the unit
    with pytest.raises(StructureError, match="unit"):
        twist_operations(chain3, projection(n, "proj1"),
                         projection(n, "proj2"), (0, 0))


def test_operator_tables_match_printed_example(bool2):
    ops = build_operator_twist(bool2)
    n = 2

    def cells(table):
        return [[tuple(divmod(m, n) for m in bits(table[i][j]))
                 for j in range(4)]
                for i in range(4)]

    assert cells(ops.odot) == [
        [((0, 1),), ((0, 1),), ((0, 0), (0, 1)), ((0, 0), (0, 1))],
        [((0, 1),), ((0, 1),), ((0, 1),), ((0, 1),)],
        [((0, 0), (0, 1)), ((0, 1),), ((1, 0),), ((1, 0), (1, 1))],
        [((0, 0), (0, 1)), ((0, 1),), ((1, 0), (1, 1)), ((1, 1),)],
    ]
    assert cells(ops.oimp) == [
        [((1, 0),), ((0, 0), (1, 0)), ((1, 0),), ((0, 0), (1, 0))],
        [((1, 0),), ((1, 0),), ((1, 0),), ((1, 0),)],
        [((0, 0), (1, 0)), ((0, 1),), ((1, 0),), ((0, 1), (1, 1))],
        [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0),), ((1, 1),)],
    ]


def test_operator_audit_passes(bool2, chain3, example1):
    for s in (bool2, chain3, example1):
        ops = build_operator_twist(s)
        items = check_operator_residuated(ops)
        assert [it.check_id for it in items] == [
            "op-bounded", "op-wellformed", "op-commutative",
            "op-associative", "op-adjunction"]
        assert all(it.passed for it in items)


def test_operator_twist_needs_bcrm():
    p = chain(2)
    s = structure(p, mul=((0, 1), (1, 1)), imp=((1, 1), (0, 1)), one=1)
    with pytest.raises(StructureError):
        build_operator_twist(s)


def _bases_lacking():
    """(base, the first BCRM property it lacks) for each property: a
    residuated pair that breaks x*1 = x, an enumerated commutative
    residuated monoid (no zero declared) and a left-residuated groupoid
    with its bounds declared, from the n <= 2 enumerations.  No bounded
    commutative left-residuated groupoid of at most 3 elements is
    non-associative, so the last base is the chain 0 < a < b < 1 with
    a*a = 0 and a*b = b*b = a: (a*b)*b = a but a*(b*b) = 0."""
    yield next(s for s in enumerate_structures(2, "residuated-pair")
               if not classify(s).left_residuated), "left-residuated"
    yield enumerate_structures(2, "commutative-residuated-monoid")[0], \
        "bounded"
    for s in enumerate_structures(2, "left-residuated-groupoid"):
        bot, top = bounds(s.poset)
        if bot is not None and top == s.one:
            s = structure(s.poset, s.mul, s.imp, s.one, zero=bot)
            if not classify(s).commutative:
                yield s, "commutative"
                break
    p = chain(4)
    mul = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 1, 2), (0, 1, 2, 3))
    yield structure(p, mul, synthesize_residuum(p, mul).imp, 3, 0), \
        "associative"


def test_twists_name_the_first_missing_bcrm_property():
    bases = list(_bases_lacking())
    assert [label for _, label in bases] == [
        "left-residuated", "bounded", "commutative", "associative"]
    for s, label in bases:
        for construction, build in (
                ("operator twist", build_operator_twist),
                ("restricted twist", lambda s: check_kleene_twist(s, s.one))):
            with pytest.raises(StructureError, match=re.escape(
                    "%s needs a bounded commutative residuated monoid: "
                    "base is not %s" % (construction, label)) + "$"):
                build(s)


def _unit_below_the_top():
    # the commutative residuated monoids of at most 3 elements that have
    # a bottom and whose unit is not the top, with the bottom as zero
    for n in (1, 2, 3):
        for s in enumerate_structures(n, "commutative-residuated-monoid"):
            bot, top = bounds(s.poset)
            if bot is not None and top != s.one:
                yield s._replace(zero=bot)


def test_bounded_means_zero_and_unit_are_the_bounds():
    monoids = list(_unit_below_the_top())
    assert len(monoids) == 6
    for s in monoids:
        assert not classify(s).bcrm
        for construction, build in (
                ("operator twist", build_operator_twist),
                *(("restricted twist",
                   lambda s, a=a: check_kleene_twist(s, a))
                  for a in range(s.poset.n))):
            with pytest.raises(StructureError, match=re.escape(
                    "%s needs a bounded commutative residuated monoid: "
                    "base is not bounded" % construction) + "$"):
                build(s)
    # the rule on every residuated pair of at most 2 elements, each
    # element or none declared as zero
    for n in (1, 2):
        for s in enumerate_structures(n, "residuated-pair"):
            for zero in (None, *range(n)):
                t = s._replace(zero=zero)
                assert classify(t).bounded == (
                    zero is not None and (zero, s.one) == bounds(s.poset))


def test_singleton_collapse(chain3):
    # image is a singleton exactly when both candidate second components
    # coincide
    s = chain3
    n = s.poset.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for v in range(n):
                    prod = operator_product(s, x, y, z, v)
                    assert (prod.bit_count() == 1) == \
                        (s.imp[x][v] == s.imp[z][y])
                    imp = operator_implication(s, x, y, z, v)
                    assert (imp.bit_count() == 1) == \
                        (s.imp[x][z] == s.imp[v][y])


def test_embedding(example1):
    tw = full_twist(example1.poset)
    n = example1.poset.n
    for a0 in range(n):
        assert check_embedding(example1.poset, tw, a0,
                               [x * n + a0 for x in range(n)]).passed


def test_embedding_detects_corruption():
    base = chain(2)
    wrong = antichain(4)  # same size as the twist carrier, wrong order
    item = check_embedding(base, wrong, 0, [0, 2])
    assert not item.passed


def test_embedding_witness_names_the_pair_then_each_side(chain3):
    # x maps to (2-x, a): order is reversed, so (0, a) is the first pair
    # whose base order the image does not keep
    n = chain3.poset.n
    item = check_embedding(chain3.poset, full_twist(chain3.poset), 1,
                           [(2 - x) * n + 1 for x in range(n)])
    assert item.line() == \
        "CHECK (embedding) FAIL witness x=0 y=a a0=a base=PASS twist=FAIL"


def test_check_embeddings_returns_the_first_failure(monkeypatch, chain3):
    # at a0 = a (index 1) the image is reversed, as in the test above,
    # and the scan stops there: a0 = 1 (index 2) is never tried
    tried = []
    real = twist.check_embedding

    def fake(base, poset, a0, image):
        tried.append(a0)
        return real(base, poset, a0, image[::-1] if a0 == 1 else image)

    monkeypatch.setattr(twist, "check_embedding", fake)
    assert twist.check_embeddings(chain3.poset).line() == \
        "CHECK (embedding) FAIL witness x=0 y=a a0=a base=PASS twist=FAIL"
    assert tried == [0, 1]


@pytest.mark.parametrize("missing", ["mul", "imp"])
def test_lift_needs_both_tables(chain3, missing):
    f, g = projection(3, "proj1"), projection(3, "proj2")
    s = chain3._replace(**{missing: None})
    for check in (twist_operations, check_twist_lifting):
        with pytest.raises(StructureError,
                           match="^twist lifting needs both operation tables$"):
            check(s, f, g, (s.one, s.one))


def test_lifting_witnesses_give_each_side(monkeypatch, chain3):
    # the base made to fail (6): the unit transfer and the biconditional
    # fail, and each witness lists its sides' verdicts in order
    real = twist.condition_holds
    monkeypatch.setattr(twist, "condition_holds", lambda s, k: (
        (False, None) if s is chain3 and k == 6 else real(s, k)))
    _, items = check_twist_lifting(chain3, projection(3, "proj1"),
                                   projection(3, "proj2"), (2, 2))
    assert [it.line() for it in items[2:]] == [
        "CHECK (adjunction-transfer) PASS",
        "CHECK (unit-transfer) FAIL witness base-6=FAIL base-9=PASS "
        "twist-6=PASS",
        "CHECK (lifting-biconditional) FAIL witness base=FAIL twist=PASS"]


# The lift memo against the lift written from its definition: the tables
# of (x,y)*(z,v) = (x*f(z,v), g(z,v)->y) and
# (x,y)->(z,v) = (f(x,y)->z, v*g(x,y)), and the five lifting items from
# the conditions of the base and of that reference lift.

def _reference_lift(s, f, g, const):
    n = s.poset.n
    m, i = s.mul, s.imp
    pairs = [(x, y) for x in range(n) for y in range(n)]
    omul = [[m[x][f[z][v]] * n + i[g[z][v]][y] for z, v in pairs]
            for x, y in pairs]
    oimp = [[i[f[x][y]][z] * n + m[v][g[x][y]] for z, v in pairs]
            for x, y in pairs]
    return structure(full_twist(s.poset), omul, oimp,
                     one=const[0] * n + const[1])


def _reference_verdicts(s, ts):
    b3, b6, b9 = (condition_holds(s, k)[0] for k in (3, 6, 9))
    t3, t6 = (condition_holds(ts, k)[0] for k in (3, 6))
    return [b3 and b6, t3 and t6, t3 == b3, t6 == (b6 and b9),
            (b3 and b6) == (t3 and t6)]


def _assert_lift_exact(s, f, g, const):
    ref = _reference_lift(s, f, g, const)
    assert twist_operations(s, f, g, const) == ref
    ts, items = check_twist_lifting(s, f, g, const)
    assert ts == ref
    assert [it.passed for it in items] == _reference_verdicts(s, ref)
    return items


def _surjective_maps(n, a, b, one):
    # every n x n table onto the carrier that sends (a, b) to one
    for cells in itertools.product(range(n), repeat=n * n):
        if len(set(cells)) == n and cells[a * n + b] == one:
            yield tuple(cells[x * n:x * n + n] for x in range(n))


def test_lift_memo_exact_on_all_pair_maps_up_to_2():
    cases = 0
    for n in (1, 2):
        for s in enumerate_structures(n, "residuated-pair"):
            for a, b in itertools.product(range(n), repeat=2):
                maps = list(_surjective_maps(n, a, b, s.one))
                for f, g in itertools.product(maps, repeat=2):
                    _assert_lift_exact(s, f, g, (a, b))
                    cases += 1
    assert cases == 1 + 24 * 4 * 7 * 7


def test_lift_memo_exact_on_projections_of_a_sample_at_3():
    rng = random.Random(14)
    first, second = projection(3, "proj1"), projection(3, "proj2")
    for s in rng.sample(enumerate_structures(3, "residuated-pair"), 300):
        for f, g in ((first, second), (second, first)):
            _assert_lift_exact(s, f, g, (s.one, s.one))


def test_lift_memo_exact_where_lifted_columns_fail(monkeypatch):
    # every (poset, unit, mul, imp) at n = 2, most of them not residuated,
    # in enumeration order through one memo: a table at unit 0 is a new
    # lift, and one that decides no new column takes every column, its
    # failing ones too, with its verdict from the memo
    decided = []
    real = twist.adjunction_failure
    monkeypatch.setattr(twist, "adjunction_failure",
                        lambda *args: decided.append(args) or real(*args))
    twist._lift_memo.cache_clear()
    first, second = projection(2, "proj1"), projection(2, "proj2")
    tables = [(cells[:2], cells[2:])
              for cells in itertools.product(range(2), repeat=4)]
    cases, failing, reused = 0, 0, 0
    for p in enumerate_posets(2):
        for one in range(2):
            for mul, imp in itertools.product(tables, repeat=2):
                s = structure(p, mul, imp, one=one)
                for f, g in ((first, second), (second, first)):
                    before = len(decided)
                    _assert_lift_exact(s, f, g, (one, one))
                    cases += 1
                    ref = _reference_lift(s, f, g, (one, one))
                    if not condition_holds(ref, 3)[0]:
                        failing += 1
                        reused += one == 0 and len(decided) == before
    # each poset's 16 (column of mul, row of imp) reads, once for base (3)
    # and paired every way for the lifted columns
    assert cases == 2 * 1536 and len(decided) == 3 * 16 + 3 * 16 ** 2
    assert failing > cases // 2 and reused > 1000, (failing, reused)


def test_a_lifting_sweep_decides_each_lifted_column_once(monkeypatch):
    # the one-process sweep scans adjunction once per distinct (poset,
    # column of mul, row of imp) for base (3), and once per distinct
    # lifted column of the poset: column q = (a, b) of a lift through the
    # projections reads columns a and b of mul and rows a and b of imp,
    # and nothing else
    calls = []
    for module in (residuation, twist):
        monkeypatch.setattr(module, "adjunction_failure", lambda *args,
                            real=module.adjunction_failure:
                            calls.append(args) or real(*args))
    monkeypatch.setattr(search, "_cpus", lambda: 1)
    twist._lift_memo.cache_clear()
    prop = search.PROPERTIES["twist-lifting-first-projections"]
    assert search.check_universal(prop.name) == (prop.name, 5191, None)
    bases, columns = set(), set()
    for n in prop.sizes:
        for s in enumerate_structures(n, prop.kind):
            reads = list(zip(zip(*s.mul), s.imp))
            bases.update((s.poset, read) for read in reads)
            columns.update((s.poset, ra, rb) for ra in reads for rb in reads)
    assert (len(bases), len(columns)) == (79, 343)
    assert len(calls) == 79 + 343


def test_every_lift_at_3_passes_the_validating_constructor():
    # the lift builds its record directly; it must be the record
    # structure() builds from its tables
    for n in (1, 2, 3):
        first, second = projection(n, "proj1"), projection(n, "proj2")
        for s in enumerate_structures(n, "residuated-pair"):
            for f, g in ((first, second), (second, first)):
                t = twist_operations(s, f, g, (s.one, s.one))
                assert t == structure(full_twist(s.poset), t.mul, t.imp,
                                      one=t.one)


def test_lift_memo_follows_the_base_poset(chain3):
    # the same tables over another order (A, B, A): a lift kept from the
    # other base would carry the wrong pair order and adjunction verdict
    other = structure(antichain(3), chain3.mul, chain3.imp, one=chain3.one)
    f, g = projection(3, "proj1"), projection(3, "proj2")
    const = (chain3.one, chain3.one)
    seen = [_assert_lift_exact(s, f, g, const)
            for s in (chain3, other, chain3)]
    assert seen[0] == seen[2] != seen[1]
    assert twist_operations(other, f, g, const).poset == \
        full_twist(antichain(3))


def test_lifting_case_reads_the_lift_once(monkeypatch, chain3):
    # one memo lookup per case: each builds the pair-map key anew
    calls = []
    real = twist._lift
    monkeypatch.setattr(twist, "_lift",
                        lambda *args: calls.append(args) or real(*args))
    f, g = projection(3, "proj1"), projection(3, "proj2")
    ts, _ = check_twist_lifting(chain3, f, g, (chain3.one, chain3.one))
    assert len(calls) == 1
    assert ts == twist_operations(chain3, f, g, (chain3.one, chain3.one))


def test_lift_memo_takes_list_pair_maps(example1):
    n = example1.poset.n
    f, g = projection(n, "proj1"), projection(n, "proj2")
    const = (example1.one, example1.one)
    want = check_twist_lifting(example1, f, g, const)
    lists = [list(map(list, f)), list(map(list, g))]
    assert check_twist_lifting(example1, *lists, const) == want
    assert twist_operations(example1, *lists, const) == want[0]


def test_lift_memo_keeps_the_bad_unit_error(bool2):
    # the const code -3 is no element; the pair maps check passes because
    # f[-2][1] is f[0][1]
    proj2 = projection(2, "proj2")
    for _ in range(2):
        with pytest.raises(StructureError, match="^unit element required$"):
            twist_operations(bool2, proj2, proj2, (-2, 1))
    twist_operations(bool2, proj2, proj2, (1, 1))
    with pytest.raises(StructureError, match="^unit element required$"):
        check_twist_lifting(bool2, proj2, proj2, (-2, 1))


def reference_pairmap_error(s, f, g, const):
    """The first pair-map error of a lift: f before g, and for each map
    its range, then surjectivity, then the unit pair; None when none."""
    n, names = s.poset.n, s.poset.names
    for table, label in ((f, "f"), (g, "g")):
        values = {table[x][y] for x in range(n) for y in range(n)}
        if not values <= set(range(n)):
            return label + " maps outside the carrier"
        if values != set(range(n)):
            return label + " is not surjective"
        a, b = const
        if table[a][b] != s.one:
            return "%s does not send the unit pair (%s,%s) to %s" % (
                label, names[a], names[b], names[s.one])
    return None


def test_pair_map_errors_come_in_the_reference_order(bool2):
    # every map on two elements (2 constant, 14 onto) and 8 with a value
    # outside the carrier, under every unit pair
    rng = random.Random(21)
    tables = [(cells[:2], cells[2:]) for cells in itertools.chain(
        itertools.product(range(2), repeat=4),
        (rng.sample((-1, 0, 1, 2), 4) for _ in range(8)))]
    errors = collections.Counter()
    for f, g in itertools.product(tables, repeat=2):
        for const in itertools.product(range(2), repeat=2):
            want = reference_pairmap_error(bool2, f, g, const)
            errors[want and want[:15]] += 1
            if want is None:
                check_twist_lifting(bool2, f, g, const)
                continue
            for check in (twist_operations, check_twist_lifting):
                with pytest.raises(StructureError,
                                   match="^%s$" % re.escape(want)):
                    check(bool2, f, g, const)
    assert len(errors) == 7 and min(errors.values()) > 10, errors


def test_pair_maps_are_validated_once_per_distinct_map():
    # a lifting sweep brings the two projections to every case: range and
    # surjectivity are checked once per map, label and size (one map at
    # n = 1, as both projections are the same table there); the
    # one-process share loop runs the whole range, so this cache sees it
    prop = search.PROPERTIES["twist-lifting-first-projections"]
    twist._validate_pairmap.cache_clear()
    result = search._sweep(prop, prop.sizes)
    info = twist._validate_pairmap.cache_info()
    assert (info.misses, info.hits) == (6, 2 * result.cases - 6)


@pytest.mark.parametrize("const", [(3, 0), (2, -1)])
def test_unit_pair_must_be_two_elements(chain3, const):
    # each component must be an element index: (3, 0) lies past the pair
    # maps, and (2, -1) would read f[2][-1] = f[2][2] and name pair 5, (a,1)
    f, g = projection(3, "proj1"), projection(3, "proj2")
    for check in (twist_operations, check_twist_lifting):
        with pytest.raises(StructureError, match="^unit element required$"):
            check(chain3, f, g, const)


PROJ1 = projection(3, "proj1")


@pytest.mark.parametrize("f, const, message", [
    # too few rows, too few columns and too many rows: each is read by
    # index, and an extra row would be ignored, so the shape is checked
    # before the range
    (PROJ1[:1], (2, 2), "f is not 3 x 3"),
    (tuple(row[:2] for row in PROJ1), (2, 2), "f is not 3 x 3"),
    (PROJ1 + ((0, 1, 2),), (2, 2), "f is not 3 x 3"),
    # a unit pair with one component
    (PROJ1, (2,), "unit element required"),
], ids=["one-row", "three-by-two", "four-rows", "one-component-unit"])
def test_pair_maps_and_unit_pair_must_have_their_shape(chain3, f, const,
                                                       message):
    g = projection(3, "proj2")
    for check in (twist_operations, check_twist_lifting):
        with pytest.raises(StructureError, match="^%s$" % message):
            check(chain3, f, g, const)


PROJ2 = projection(3, "proj2")


@pytest.mark.parametrize("f, g, const, message", [
    # a flat map has no rows to read
    ((0, 1, 2), PROJ2, (2, 2), "f is not 3 x 3"),
    (PROJ1, (0, 1, 2), (2, 2), "g is not 3 x 3"),
    (PROJ1[:2] + ((2, 2, "2"),), PROJ2, (2, 2), "f maps outside the carrier"),
    (PROJ1, PROJ2, (2.0, 2), "unit element required"),
    (PROJ1, PROJ2, ("2", 2), "unit element required"),
], ids=["flat-f", "flat-g", "string-entry", "float-unit", "string-unit"])
def test_lift_indices_must_be_ints(chain3, f, g, const, message):
    for check in (twist_operations, check_twist_lifting):
        with pytest.raises(StructureError, match="^%s$" % message):
            check(chain3, f, g, const)


def test_a_float_pair_map_lifts_as_the_int_map_it_equals(chain3):
    # 2.0 equals 2, so it passes the range, surjectivity and unit pair
    # tests on values, but it cannot index a column: a map first seen
    # with such an entry is refused, and one equal to a map already
    # validated lifts as that map
    floats = PROJ1[:2] + ((2, 2, 2.0),)
    const = (chain3.one, chain3.one)
    twist._validate_pairmap.cache_clear()
    for check in (twist_operations, check_twist_lifting):
        with pytest.raises(StructureError,
                           match="^f maps outside the carrier$"):
            check(chain3, floats, PROJ2, const)
    want = check_twist_lifting(chain3, PROJ1, PROJ2, const)
    twist._lift_memo.cache_clear()
    assert check_twist_lifting(chain3, floats, PROJ2, const) == want


def _restricted_order(base, members):
    # the twist order on members from its definition: (x,y) <= (z,v) when
    # x <= z and v <= y; names are the full twist's
    n, full = base.n, full_twist(base)
    up = tuple(sum(1 << j for j, (z, v) in enumerate(members)
                   if base.leq(x, z) and base.leq(v, y)) for x, y in members)
    down = tuple(sum(1 << j for j, (z, v) in enumerate(members)
                     if base.leq(z, x) and base.leq(y, v)) for x, y in members)
    return tuple(full.names[x * n + y] for x, y in members), up, down


def test_pair_poset_is_the_twist_order_on_every_subset_up_to_2():
    checked = 0
    for n in (1, 2):
        pairs = list(itertools.product(range(n), repeat=2))
        for p in enumerate_posets(n):
            for mask in range(1 << n * n):
                members = [pairs[i] for i in bits(mask)]
                assert tuple(pair_poset(p, members)) == \
                    _restricted_order(p, members), (p.up, members)
                checked += 1
    assert checked == 2 + 3 * 16


POSETS_3_4 = enumerate_posets(3) + enumerate_posets(4)


@given(st.data())
def test_pair_poset_is_the_twist_order_on_drawn_members(data):
    # any members in any order, not only a restricted carrier's
    p = data.draw(st.sampled_from(POSETS_3_4))
    pairs = list(itertools.product(range(p.n), repeat=2))
    members = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    assert tuple(pair_poset(p, members)) == _restricted_order(p, members)


def test_full_twist_is_the_pair_poset_on_every_pair(example1):
    p = example1.poset
    pairs = list(itertools.product(range(p.n), repeat=2))
    assert full_twist(p) == pair_poset(p, pairs)
    assert tuple(full_twist(p)) == _restricted_order(p, pairs)


def test_projection_knows_only_its_two_kinds():
    with pytest.raises(StructureError, match="^unknown projection 'bogus'$"):
        projection(2, "bogus")


_MUL3 = ((0, 0, 0), (0, 1, 1), (0, 1, 2))     # chain3's product
_JUNK_TABLES = [(0, 1, 2), 5, _MUL3[:2] + ((0, 1.5, 2),),
                _MUL3[:2] + ((0, "1", 2),)]
_JUNK_MAPPINGS = [((2,), (1,), (0,)), 5, (2, 1.0, 0), (2, "1", 0)]
_JUNK_ELEMENTS = [(0, 1), 5, 1.0, "1"]
_JUNK_IDS = ["shape", "int", "float", "string"]


def _junk_cases():
    c3, proj2 = chain(3), projection(3, "proj2")
    lift = residuation.ResStructure(c3, _MUL3, ((2, 2, 2), (0, 2, 2),
                                                (0, 1, 2)), 2)
    entries = {
        "structure-mul": (_JUNK_TABLES,
                          lambda t: structure(c3, mul=t, one=2)),
        "structure-imp": (_JUNK_TABLES,
                          lambda t: structure(c3, imp=t, one=2)),
        "synthesize_residuum": (_JUNK_TABLES,
                                lambda t: synthesize_residuum(c3, t)),
        "lift-f": (_JUNK_TABLES,
                   lambda t: check_twist_lifting(lift, t, proj2, (2, 2))),
        "lift-g": (_JUNK_TABLES, lambda t: check_twist_lifting(
            lift, projection(3, "proj1"), t, (2, 2))),
        "is_antitone_involution": (
            _JUNK_MAPPINGS, lambda m: is_antitone_involution(c3, m)),
        "is_pseudo_kleene": (_JUNK_MAPPINGS,
                             lambda m: is_pseudo_kleene(c3, m)),
        "is_kleene": (_JUNK_MAPPINGS, lambda m: is_kleene(c3, m)),
        "build_restricted_twist": (
            _JUNK_ELEMENTS, lambda a: build_restricted_twist(c3, a)),
        "projection": (_JUNK_ELEMENTS, lambda k: projection(3, k)),
    }
    for entry, (values, call) in entries.items():
        for label, value in zip(_JUNK_IDS, values):
            yield pytest.param(call, value, id="%s-%s" % (entry, label))


@pytest.mark.parametrize("call, value", _junk_cases())
def test_junk_input_is_refused_where_it_enters(call, value):
    # a wrong shape, a bare int, a float or a string index: a
    # StructureError or a failing verdict, never a TypeError or IndexError
    try:
        verdict = call(value)
    except StructureError:
        return
    assert not verdict.ok and verdict.reason.endswith("not a self-map")
