import pytest
from hypothesis import given, strategies as st

from resposet.search import enumerate_structures
from resposet.structfile import (ParseError, data_path, emit_structure,
                                 emit_tables, load, parse)
from resposet.twist import check_operator_residuated

CHAIN3_MUL_IMP = """\
mul | 0 a 1
0   | 0 0 0
a   | 0 a a
1   | 0 a 1

imp | 0 a 1
0   | 1 1 1
a   | 0 1 1
1   | 0 a 1
"""


def test_fixture_round_trip_is_stable():
    for name in ("example1", "chain3"):
        sf = load(name)
        text = emit_structure(sf.structure)
        again = parse(text)
        assert again.structure == sf.structure
        assert emit_structure(again.structure) == text


def test_load_bare_name_matches_data_path():
    direct = load(str(data_path("chain3.struct")))
    assert direct.structure == load("chain3").structure


def test_load_missing_file():
    with pytest.raises(ParseError, match="no such structure file"):
        load("definitely-not-here")


def test_parse_requires_elements_first():
    with pytest.raises(ParseError, match="elements"):
        parse("covers\n0 < 1\n")


def test_parse_unknown_name_in_covers():
    with pytest.raises(ParseError, match="line 3"):
        parse("elements 0 1\ncovers\n0 < q\n")


def test_parse_short_table_row():
    text = "elements 0 1\ncovers\n0 < 1\ntable mul\n0\n0 1\nconst one = 1\n"
    with pytest.raises(ParseError, match="line 5"):
        parse(text)


def test_parse_requires_const_one():
    text = "elements 0 1\ncovers\n0 < 1\ntable mul\n0 0\n0 1\n"
    with pytest.raises(ParseError, match="one"):
        parse(text)


def test_parse_order_section():
    sf = parse("elements 0 1\norder\n0 <= 1\n"
               "table mul\n0 0\n0 1\nconst one = 1\n")
    assert sf.structure.poset.leq(0, 1)


def test_parse_covers_and_order_exclusive():
    with pytest.raises(ParseError):
        parse("elements 0 1\ncovers\n0 < 1\norder\n0 <= 1\n"
              "table mul\n0 0\n0 1\nconst one = 1\n")


def test_parse_designated():
    sf = parse("elements 0 a 1\ncovers\n0 < a\na < 1\n"
               "table mul\n0 0 0\n0 a a\n0 a 1\n"
               "table imp\n1 1 1\n0 1 1\n0 a 1\n"
               "const one = 1\nconst zero = 0\ndesignated = a\n")
    assert sf.structure.designated == 1


def test_parse_operator_file():
    text = """\
elements 0 1
covers
0 < 1
const one = 1
const zero = 0
optable odot
{0} {0}
{0} {0,1}
optable oimp
1 1
0,1 1
"""
    sf = parse(text)
    assert sf.structure is None
    ops = sf.operators
    assert ops is not None
    assert ops.odot[1][1] == (0, 1)
    assert ops.oimp[1][0] == (0, 1)
    items = check_operator_residuated(ops)
    assert [it.check_id for it in items] == [
        "op-bounded", "op-wellformed", "op-commutative",
        "op-associative", "op-adjunction"]


def test_parse_empty_operator_cell_rejected():
    text = ("elements 0 1\ncovers\n0 < 1\nconst one = 1\nconst zero = 0\n"
            "optable odot\n{} 0\n0 1\noptable oimp\n1 1\n1 1\n")
    with pytest.raises(ParseError):
        parse(text)


def test_parse_pairmap():
    text = """\
elements 0 1
covers
0 < 1
table mul
0 0
0 1
table imp
1 1
0 1
const one = 1
pairmap f
proj2
pairmap g
(0,0) -> 1
(0,1) -> 1
(1,0) -> 0
(1,1) -> 1
"""
    sf = parse(text)
    assert sf.pairmaps["f"].kind == "proj2"
    assert sf.pairmaps["g"](1, 0) == 0


def test_all_small_groupoids_round_trip():
    count = 0
    for n in (1, 2, 3):
        for s in enumerate_structures(n, "left-residuated-groupoid"):
            sf = parse(emit_structure(s))
            assert sf.structure == s
            count += 1
    assert count == 1003


def test_emit_tables_golden(chain3):
    assert emit_tables(chain3) == CHAIN3_MUL_IMP


name_strategy = st.lists(
    st.text(alphabet="abcxyz01", min_size=1, max_size=3),
    min_size=1, max_size=4, unique=True)


@given(name_strategy)
def test_emit_parse_chain_with_odd_names(names):
    # any chain over unique names round-trips
    from resposet.order import chain
    from resposet.residuation import structure
    n = len(names)
    p = chain(n)
    p = type(p)(tuple(names), p.up, p.down)
    mul = tuple(tuple(min(x, y) for y in range(n)) for x in range(n))
    s = structure(p, mul=mul, imp=None, one=n - 1)
    assert parse(emit_structure(s)).structure == s


@pytest.mark.parametrize("names, parse_error", [
    (("covers", "x"), "line 1: element name 'covers'"),
    (("order", "b"), "line 1: element name 'order'"),
    (("a#", "b"), "line 3"),   # '#' starts a comment on the elements line
])
def test_unwritable_element_names_are_rejected(names, parse_error):
    # "covers" used to parse back as a different structure (its cover
    # line read as a new section); "order" and "a#" made the emitted text
    # unparseable
    from resposet.order import chain
    from resposet.residuation import structure
    p = chain(2)
    p = type(p)(names, p.up, p.down)
    s = structure(p, mul=((0, 0), (0, 1)), imp=None, one=1)
    with pytest.raises(ParseError, match="element name"):
        emit_structure(s)
    text = ("elements {0} {1}\ncovers\n{0} < {1}\n"
            "table mul\n{0} {0}\n{0} {1}\nconst one = {1}\n").format(*names)
    with pytest.raises(ParseError, match=parse_error):
        parse(text)
