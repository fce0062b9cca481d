import collections
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from resposet.order import (OrderError, Poset, antichain, bits, bounds,
                            chain, check_names, is_antitone_involution,
                            is_distributive, is_kleene, is_lattice,
                            is_pseudo_kleene, lower_cone, mask_of,
                            maximal_elements, minimal_elements,
                            poset_from_covers, poset_from_leq,
                            poset_from_relation, set_leq, upper_cone)
from resposet.search import enumerate_posets


def test_bits_and_mask():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert mask_of([]) == 0


def test_reflexivity_validation():
    leq = [[False, False], [False, True]]
    with pytest.raises(OrderError, match="reflexivity fails at 0"):
        poset_from_leq(("0", "1"), leq)


def test_antisymmetry_validation():
    leq = [[True, True], [True, True]]
    with pytest.raises(OrderError, match=r"antisymmetry fails at pair \(0, 1\)"):
        poset_from_leq(("0", "1"), leq)


def test_transitivity_validation():
    leq = [[True, True, False],
           [False, True, True],
           [False, False, True]]
    with pytest.raises(OrderError, match=r"transitivity fails at \(0, 1, 2\)"):
        poset_from_leq(("0", "1", "2"), leq)


def test_cycle_in_covers_is_antisymmetry_error():
    with pytest.raises(OrderError, match="antisymmetry"):
        poset_from_covers(("a", "b"), ((0, 1), (1, 0)))


@pytest.mark.parametrize("names", [
    ("covers", "x"), ("optable", "x"), ("", "x"), ("a b", "x"), ("a#", "x"),
    ("x,y", "z"),
])
def test_unwritable_element_names_are_rejected_at_construction(names):
    # the structure file format would read each of these back as
    # something else, so no poset may carry them
    with pytest.raises(OrderError, match="element name"):
        poset_from_covers(names, ((0, 1),))


def test_relation_closure():
    # a < b declared, reflexive closure added automatically
    p = poset_from_relation(("a", "b"), ((0, 1),))
    assert p.leq(0, 1) and not p.leq(1, 0)


def test_chain_and_antichain():
    c = chain(4)
    assert c.leq(0, 3) and not c.leq(3, 0)
    a = antichain(3)
    assert not a.leq(0, 1) and a.leq(2, 2)


def test_example1_order_facts(example1):
    p = example1.poset
    assert p.n == 10
    assert not p.leq(p.index("b"), p.index("g"))
    m = mask_of([p.index("b"), p.index("c")])
    assert p.render_set(lower_cone(p, m)) == "{0,a}"
    assert p.render_set(upper_cone(p, m)) == "{e,f,h,1}"
    quad = mask_of([p.index(x) for x in "0abc"])
    assert p.render_set(maximal_elements(p, quad)) == "{b,c}"
    assert p.render_set(minimal_elements(p, quad)) == "{0}"
    assert bounds(p) == (p.index("0"), p.index("1"))


def test_empty_cone_is_full_carrier():
    p = chain(3)
    assert lower_cone(p, 0) == p.full
    assert upper_cone(p, 0) == p.full


def test_set_leq_vacuous_on_empty():
    p = antichain(2)
    assert set_leq(p, 0, p.full)
    assert set_leq(p, p.full, 0)
    assert not set_leq(p, p.full, p.full)


def test_example1_not_a_lattice(example1):
    v = is_lattice(example1.poset)
    assert not v.is_lattice
    assert v.kind == "join"
    p = example1.poset
    assert (p.names[v.x], p.names[v.y]) == ("b", "c")
    assert p.render_set(v.candidates) == "{e,f}"


def test_missing_meet_is_the_witness():
    # the bowtie c, d < a, b under a top: a and b have the join 1 but two
    # maximal lower bounds
    p = poset_from_covers(("a", "b", "c", "d", "1"),
                          ((2, 0), (2, 1), (3, 0), (3, 1), (0, 4), (1, 4)))
    v = is_lattice(p)
    assert (v.is_lattice, v.kind, v.x, v.y) == (False, "meet", 0, 1)
    assert p.render_set(v.candidates) == "{c,d}"


def test_chain_is_lattice():
    assert is_lattice(chain(5)).is_lattice


def test_diamond_is_lattice_and_distributive(diamond):
    assert is_lattice(diamond.poset).is_lattice
    assert is_distributive(diamond.poset).is_distributive


def test_example1_not_distributive(example1):
    v = is_distributive(example1.poset)
    assert not v.is_distributive
    assert v.witness is not None


def test_antichain_is_distributive():
    assert is_distributive(antichain(2)).is_distributive


def test_identity_on_chain_not_antitone():
    p = chain(2)
    v = is_antitone_involution(p, (0, 1))
    assert not v.ok
    assert v.reason == "not antitone"


def test_not_involution():
    p = antichain(3)
    v = is_antitone_involution(p, (1, 2, 0))
    assert not v.ok
    assert v.reason == "not an involution"


def test_not_self_map():
    p = chain(2)
    assert is_antitone_involution(p, (0, 5)).reason == "not a self-map"


def test_swap_on_antichain_is_kleene():
    p = antichain(2)
    v = is_pseudo_kleene(p, (1, 0))
    assert v.ok
    k = is_kleene(p, (1, 0))
    assert k.ok


def test_kleene_without_a_verdict_rejects_a_non_involution():
    p = antichain(3)
    v = is_kleene(p, (1, 2, 0))
    assert v == is_pseudo_kleene(p, (1, 2, 0))
    assert (v.ok, v.reason, v.witness) == (
        False, "not an antitone involution: not an involution", (0,))


def test_chain_flip_is_kleene():
    p = chain(3)
    flip = (2, 1, 0)
    assert is_pseudo_kleene(p, flip).ok
    assert is_kleene(p, flip).ok


def test_pseudo_kleene_normality_failure():
    # two disjoint 2-chains, each flipped in place: antitone involution
    # but L(x,x') and U(y,y') live in different components
    p = poset_from_covers(("a", "b", "c", "d"), ((0, 1), (2, 3)))
    inv = (1, 0, 3, 2)
    assert is_antitone_involution(p, inv).ok
    v = is_pseudo_kleene(p, inv)
    assert not v.ok
    assert v.reason == "normality fails"
    assert v.witness is not None


def test_cover_pairs_chain():
    assert chain(3).cover_pairs() == [(0, 1), (1, 2)]


def test_cover_pairs_have_nothing_between():
    # x < y with no z strictly between, x ascending, then y
    for n in range(1, 6):
        for p in enumerate_posets(n):
            want = [(x, y) for x in range(n) for y in range(n)
                    if p.lt(x, y) and not any(p.lt(x, z) and p.lt(z, y)
                                              for z in range(n))]
            assert p.cover_pairs() == want, (p.names, p.up)


posets4 = enumerate_posets(4)


@given(st.integers(0, len(posets4) - 1), st.integers(0, 15))
def test_cone_closure_property(i, m):
    # L(U(L(A))) = L(A) and U(L(U(A))) = U(A) on every 4-element poset
    p = posets4[i]
    lo = lower_cone(p, m)
    hi = upper_cone(p, m)
    assert lower_cone(p, upper_cone(p, lo)) == lo
    assert upper_cone(p, lower_cone(p, hi)) == hi


@given(st.integers(0, len(posets4) - 1), st.integers(0, 15), st.integers(0, 15))
def test_cone_antitone_property(i, a, b):
    # A subset of B implies L(B) subset of L(A)
    p = posets4[i]
    small, big = a & b, b
    assert lower_cone(p, big) & ~lower_cone(p, small) == 0
    assert upper_cone(p, big) & ~upper_cone(p, small) == 0


# The constructors against the order laws written on boolean matrices:
# the same (names, up, down), or the same OrderError text, whose witness
# is the first failure row-major.

def _reference_from_leq(names, leq):
    names = tuple(names)
    n = len(names)
    check_names(names)
    if len(set(names)) != n:
        raise OrderError("duplicate element names")
    for x in range(n):
        if not leq[x][x]:
            raise OrderError("reflexivity fails at %s" % names[x])
    for x, y in itertools.product(range(n), repeat=2):
        if x != y and leq[x][y] and leq[y][x]:
            raise OrderError(
                "antisymmetry fails at pair (%s, %s)" % (names[x], names[y]))
    for x, y, z in itertools.product(range(n), repeat=3):
        if leq[x][y] and leq[y][z] and not leq[x][z]:
            raise OrderError("transitivity fails at (%s, %s, %s)"
                             % (names[x], names[y], names[z]))
    up = tuple(sum(1 << y for y in range(n) if leq[x][y]) for x in range(n))
    down = tuple(sum(1 << y for y in range(n) if leq[y][x])
                 for x in range(n))
    return Poset(names, up, down)


def _reflexive(n, pairs):
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x, y in pairs:
        leq[x][y] = True
    return leq


def _closed(leq):
    n = len(leq)
    changed = True
    while changed:
        changed = False
        for x, y, z in itertools.product(range(n), repeat=3):
            if leq[x][y] and leq[y][z] and not leq[x][z]:
                leq[x][z] = True
                changed = True
    return leq


def _outcome(build, names, arg):
    try:
        p = build(names, arg)
    except OrderError as e:
        return str(e)
    return p.names, p.up, p.down


def _random_relation(rng):
    n = rng.randint(0, 6)
    names = [str(i) for i in range(n)]
    if n and rng.random() < 0.03:
        names[rng.randrange(n)] = rng.choice(("covers", "a b", "", "x#"))
    if n > 1 and rng.random() < 0.03:
        x, y = rng.sample(range(n), 2)
        names[x] = names[y]
    up_rate, down_rate = rng.random() * 0.6, rng.random() * 0.15
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y
             and rng.random() < (up_rate if x < y else down_rate)]
    rng.shuffle(pairs)
    return names, pairs


def test_constructors_match_boolean_definitions():
    rng = random.Random(4242)
    seen = collections.Counter()
    for _ in range(2000):
        names, pairs = _random_relation(rng)
        n = len(names)
        leq = _reflexive(n, pairs)
        if rng.random() < 0.5:
            leq = _closed(leq)
        if n and rng.random() < 0.1:
            x = rng.randrange(n)
            leq[x][x] = False
        want = {
            poset_from_leq: _outcome(_reference_from_leq, names, leq),
            poset_from_relation: _outcome(
                _reference_from_leq, names, _reflexive(n, pairs)),
            poset_from_covers: _outcome(
                _reference_from_leq, names, _closed(_reflexive(n, pairs))),
        }
        for build, arg in ((poset_from_leq, leq),
                           (poset_from_relation, pairs),
                           (poset_from_covers, pairs)):
            got = _outcome(build, names, arg)
            assert got == want[build], (build.__name__, names, pairs)
            seen[got.split(" ")[0] if isinstance(got, str) else "poset"] += 1
    assert set(seen) == {"poset", "element", "duplicate", "reflexivity",
                         "antisymmetry", "transitivity"}
    assert min(seen.values()) >= 20, seen
