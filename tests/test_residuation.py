import itertools

import pytest

from resposet.order import (OrderError, Poset, antichain, chain,
                            poset_from_covers)
from resposet.residuation import (CONDITION_IDS, StructureError,
                                  check_condition, check_derived_laws,
                                  classify, condition_applicable,
                                  condition_holds, is_associative,
                                  is_commutative, residuum_row,
                                  structure, synthesize_residuum)
from resposet.search import enumerate_structures


def test_example1_satisfies_1_through_10(example1):
    for k in range(1, 11):
        ok, witness = condition_holds(example1, k)
        assert ok, (k, witness)


def test_example1_classification(example1):
    flags = classify(example1)
    assert flags.left_residuated
    assert flags.bounded
    assert flags.commutative
    assert flags.associative
    assert flags.crm and flags.bcrm
    assert flags.summary() == "bounded commutative residuated monoid"


def test_chain3_classification(chain3):
    assert classify(chain3).summary() == "bounded commutative residuated monoid"


def test_non_commutative_groupoid_classification():
    # x*y = x on the 2-antichain with unit 0: left-residuated by
    # y->z = z, but 1*0 = 1 and 0*1 = 0
    s = structure(antichain(2), mul=((0, 0), (1, 1)), imp=((0, 1), (0, 1)),
                  one=0)
    flags = classify(s)
    assert flags.left_residuated and flags.associative
    assert not flags.commutative
    assert flags.summary() == "left-residuated groupoid"


def test_condition_ids():
    assert CONDITION_IDS == tuple(range(1, 14))


def test_condition_6_failure_witness():
    # two-chain with a product that forgets its unit on one element
    p = chain(2)
    s = structure(p, mul=((0, 0), (0, 0)), imp=((1, 1), (0, 1)), one=1)
    ok, witness = condition_holds(s, 6)
    assert not ok
    assert witness == (1,)
    item = check_condition(s, 6)
    assert item.line() == "CHECK (6) FAIL witness x=1"


def test_condition_3_failure_witness():
    p = chain(2)
    # mul fine, imp constantly bottom: adjunction broken at (0, 0, 0)
    s = structure(p, mul=((0, 0), (0, 1)), imp=((0, 0), (0, 0)), one=1)
    ok, witness = condition_holds(s, 3)
    assert not ok
    assert witness == (1, 0, 0)


def test_condition_13_failure_witness():
    # the Lukasiewicz chain 0 < 1 < 2 at a = 1: x = y = 1 are above a,
    # but x*y = 0 is not
    p = chain(3)
    mul = ((0, 0, 0), (0, 0, 1), (0, 1, 2))
    s = structure(p, mul, synthesize_residuum(p, mul).imp, one=2, zero=0,
                  designated=1)
    assert condition_holds(s, 13) == (False, (1, 1))
    assert check_condition(s, 13).line() == "CHECK (13) FAIL witness x=1 y=1"


def test_condition_11_12_13_need_designated(chain3):
    for k in (11, 12, 13):
        assert not condition_applicable(chain3, k)
        with pytest.raises(StructureError):
            condition_holds(chain3, k)


def test_commutative_witness():
    p = chain(2)
    s = structure(p, mul=((0, 1), (0, 1)), imp=((1, 1), (0, 1)), one=1)
    comm, cw = is_commutative(s)
    assert not comm and cw == (0, 1)


def test_associative_witness():
    p = chain(2)
    s = structure(p, mul=((1, 0), (0, 0)), imp=None, one=1)
    assoc, aw = is_associative(s)
    assert not assoc and aw == (0, 0, 1)


def test_structure_validates_table_shape():
    p = chain(2)
    with pytest.raises(StructureError):
        structure(p, mul=((0,),), imp=None, one=1)
    with pytest.raises(StructureError):
        structure(p, mul=((0, 9), (0, 1)), imp=None, one=1)


def test_structure_validates_bounds():
    p = chain(2)
    with pytest.raises(StructureError, match="zero 1 is not the least"):
        structure(p, mul=((0, 0), (0, 1)), imp=None, one=1, zero=1)
    with pytest.raises(StructureError, match="unit 0 is not the greatest"):
        structure(p, mul=((0, 0), (0, 1)), imp=None, one=0, zero=0)


def test_structure_checks_the_zero_range_first():
    # an out-of-range zero must not index the names or pass as a bound
    for zero in (7, -1):
        with pytest.raises(StructureError, match="zero element out of range"):
            structure(chain(3), one=2, zero=zero)


@pytest.mark.parametrize("one", [None, 3, -1])
def test_structure_requires_a_unit_in_range(one):
    with pytest.raises(StructureError, match="^unit element required$"):
        structure(chain(3), one=one)


def test_structure_checks_the_element_names():
    # a Poset built directly skips the poset_from_* constructors' check
    p = Poset(("covers", "b"), (3, 2), (1, 3))
    with pytest.raises(OrderError, match="'covers' is empty, a section word"):
        structure(p, one=1)


def test_synthesis_reproduces_example1(example1):
    syn = synthesize_residuum(example1.poset, example1.mul)
    assert syn.ok
    matches = sum(1 for x in range(10) for y in range(10)
                  if syn.imp[x][y] == example1.imp[x][y])
    assert matches == 100


def test_synthesis_reproduces_chain3(chain3):
    syn = synthesize_residuum(chain3.poset, chain3.mul)
    assert syn.ok
    assert syn.imp == chain3.imp


def test_synthesis_not_principal():
    # solution set {x : x*1 <= 0} is {1}, whose maximum 1 does not
    # generate it as a down-set, so no residuum exists
    p = chain(2)
    syn = synthesize_residuum(p, ((0, 1), (1, 0)))
    assert not syn.ok
    assert syn.kind == "not-principal"


def test_synthesis_empty():
    p = chain(2)
    syn = synthesize_residuum(p, ((1, 1), (1, 1)))
    assert not syn.ok
    assert syn.kind == "empty"


def test_synthesis_no_maximum():
    p = antichain(2)
    syn = synthesize_residuum(p, ((0, 0), (0, 1)))
    assert not syn.ok
    assert syn.kind == "no-maximum"


def test_example1_laws_all_confirmed(example1):
    verdicts = check_derived_laws(example1)
    # 13 needs a designated element, so seven laws apply here
    assert len(verdicts) == 7
    assert all(v.status == "CONFIRMED" for v in verdicts)


def test_laws_vacuous_without_premises():
    # 2-antichain, unit not a top: the unit-is-top laws go vacuous
    p = antichain(2)
    s = structure(p, mul=((0, 1), (1, 0)), imp=((0, 1), (0, 0)), one=0)
    by_id = {v.law_id: v for v in check_derived_laws(s)}
    assert by_id["7-from-comm-1-6-top"].status == "VACUOUS"
    assert by_id["10-from-5-9-top"].status == "VACUOUS"


def test_law_13_with_designated(chain3):
    s = chain3._replace(designated=1)
    by_id = {v.law_id: v for v in check_derived_laws(s)}
    assert by_id["13-from-idempotent"].status == "CONFIRMED"


def _first_commutativity_failure(m):
    for x in range(len(m)):
        for y in range(len(m)):
            if m[x][y] != m[y][x]:
                return x, y
    return None


def _first_associativity_failure(m):
    for x in range(len(m)):
        for y in range(len(m)):
            for z in range(len(m)):
                if m[m[x][y]][z] != m[x][m[y][z]]:
                    return x, y, z
    return None


@pytest.mark.parametrize("kind", ["residuated-pair", "unital-groupoid"])
def test_commutative_and_associative_match_definitions(kind):
    # the first row-major witness of each law, on every small product table
    for n in (1, 2, 3):
        for s in enumerate_structures(n, kind):
            w = _first_commutativity_failure(s.mul)
            assert is_commutative(s) == (w is None, w)
            w = _first_associativity_failure(s.mul)
            assert is_associative(s) == (w is None, w)


def _columns_and_posets(example1):
    from resposet.search import enumerate_posets
    for n in (1, 2, 3):
        for p in enumerate_posets(n):
            yield p, list(itertools.product(range(n), repeat=n))
    p = example1.poset
    yield p, [tuple(r[y] for r in example1.mul) for y in range(p.n)]


def test_residuum_memo_is_exact(example1, monkeypatch):
    # residuum_row is memoized; residuable_columns fills the memo and
    # synthesize_residuum reads it
    from resposet import residuation
    from resposet.search import residuable_columns
    plain = residuum_row.__wrapped__
    checked = 0
    for p, cols in _columns_and_posets(example1):
        residuum_row.cache_clear()
        before = [residuum_row(p, col) for col in cols]
        residuum_row.cache_clear()
        if p.n <= 3:
            residuable_columns.__wrapped__(p)
        after = [residuum_row(p, col) for col in cols]
        assert before == after == [plain(p, col) for col in cols]
        for value in after:
            assert type(value) is tuple
            assert all(type(v) is tuple for v in value if v is not None)
        # each column as every column of a product table
        tables = [tuple((c,) * p.n for c in col) for col in cols]
        if p is example1.poset:
            tables.append(example1.mul)
        memo = [synthesize_residuum(p, t) for t in tables]
        with monkeypatch.context() as m:
            m.setattr(residuation, "residuum_row", plain)
            assert memo == [synthesize_residuum(p, t) for t in tables]
        checked += len(cols)
    assert checked == 1 + 3 * 4 + 19 * 27 + 10
