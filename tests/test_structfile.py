import random

import pytest
from hypothesis import given, strategies as st

from resposet.cli import run
from resposet.order import OrderError, check_names, poset_from_covers
from resposet.residuation import StructureError, structure
from resposet.search import enumerate_structures
from resposet.structfile import (ParseError, data_path, emit_structure,
                                 emit_tables, load, parse)
from resposet.twist import check_operator_residuated, projection

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
    assert ops.odot[1][1] == ops.oimp[1][0] == 0b11
    items = check_operator_residuated(ops)
    assert [it.check_id for it in items] == [
        "op-bounded", "op-wellformed", "op-commutative",
        "op-associative", "op-adjunction"]


def test_parse_empty_operator_cell_rejected():
    text = ("elements 0 1\ncovers\n0 < 1\nconst one = 1\nconst zero = 0\n"
            "optable odot\n{} 0\n0 1\noptable oimp\n1 1\n1 1\n")
    with pytest.raises(ParseError):
        parse(text)


_OPTABLE_HEAD = "elements 0 1\ncovers\n0 < 1\nconst one = 1\nconst zero = 0\n"


def test_operator_cell_members_may_hold_parentheses():
    # a cell splits at every ',': element names cannot hold one
    text = ("elements (a b)\ncovers\n(a < b)\nconst one = b)\n"
            "const zero = (a\noptable odot\n(a (a,b)\nb),(a b)\n"
            "optable oimp\nb) b)\n(a b)\n")
    odot = parse(text).operators.odot
    assert odot[0][1] == odot[1][0] == 0b11


def test_repeated_member_in_operator_cell_is_one_set(tmp_path, capsys):
    # "0,0" and "0" are both the set {0}, so odot is commutative
    text = _OPTABLE_HEAD + ("optable odot\n0 0,0\n0 1\n"
                            "optable oimp\n1 1\n0 1\n")
    assert parse(text).operators.odot[0][1] == 0b1
    f = tmp_path / "repeat.struct"
    f.write_text(text)
    run(["optwist", str(f), "--tables"])
    out = capsys.readouterr().out
    assert "CHECK (op-commutative) PASS\n" in out
    assert "odot | 0 1\n0    | 0 0\n1    | 0 1\n" in out


def test_designated_with_operator_tables_is_rejected(tmp_path, capsys):
    # the operator structure has no designated element to carry it
    text = _OPTABLE_HEAD + ("designated = 0\noptable odot\n0 0\n0 1\n"
                            "optable oimp\n1 1\n0 1\n")
    message = "optables cannot be combined with designated"
    with pytest.raises(ParseError, match="^%s$" % message):
        parse(text)
    f = tmp_path / "designated.struct"
    f.write_text(text)
    assert run(["optwist", str(f)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


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
    assert sf.pairmaps["f"] == projection(2, "proj2")
    assert sf.pairmaps["g"][1][0] == 0


_TWO_CHAIN = ("elements 0 1\ncovers\n0 < 1\n"
              "table mul\n0 0\n0 1\ntable imp\n1 1\n0 1\nconst one = 1\n")


@pytest.mark.parametrize("tail, message", [
    ("designated = 0\ndesignated = 1\n", "line 12: duplicate designated"),
    ("pairmap f\nproj1\npairmap g\nproj2\npairmap f\nproj2\n",
     "line 15: duplicate pairmap f"),
])
def test_parse_rejects_duplicate_sections(tmp_path, capsys, tail, message):
    with pytest.raises(ParseError, match="^%s$" % message):
        parse(_TWO_CHAIN + tail)
    f = tmp_path / "dup.struct"
    f.write_text(_TWO_CHAIN + tail)
    assert run(["check", str(f)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


_PAIRMAP_F = _TWO_CHAIN + "pairmap f\n"   # the pairmap header is line 11

_OPTABLES = ("optable odot\n0 0\n0 1\n"    # headers on lines 6 and 9
             "optable oimp\n1 1\n0 1\n")


@pytest.mark.parametrize("text, message", [
    ("", "empty input"),
    ("# a comment\n\n", "empty input"),
    ("covers\n0 < 1\n", "line 1: file must start with an elements line"),
    ("elements\n", "line 1: elements line declares no elements"),
    ("elements 0 1\n\nelements\n", "line 3: duplicate elements line"),
    ("elements 0 covers\n", "line 1: element name 'covers' is empty, a"
     " section word, or contains whitespace, '#', ',', '{' or '}'"),
    # an optable cell strips one pair of braces, so '{a}' would read as a
    ("elements a {a}\n", "line 1: element name '{a}' is empty, a section"
     " word, or contains whitespace, '#', ',', '{' or '}'"),
    ("elements a b}\n", "line 1: element name 'b}' is empty, a section"
     " word, or contains whitespace, '#', ',', '{' or '}'"),
    ("elements 0 1 0\n", "line 1: duplicate element names"),
    ("elements 0 1\ntabel mul\n", "line 2: unknown section 'tabel'"),
    ("elements 0 1\n0 < 1\ncovers\n", "line 2: unknown section '0'"),
    (_TWO_CHAIN + "elements 0 1\n", "line 11: duplicate elements line"),
    ("elements 0 1\ncovers 0 < 1\n",
     "line 2: expected 'covers' on its own line"),
    ("elements 0 1\norder 0 <= 1\n",
     "line 2: expected 'order' on its own line"),
    ("elements 0 1\ncovers\n0 1\n", "line 3: expected '<x> < <y>'"),
    ("elements 0 1\norder\n0 >= 1\n", "line 3: expected '<x> < <y>'"),
    ("elements 0 1\ncovers\n0 < 1 < 1\n", "line 3: expected '<x> < <y>'"),
    ("elements 0 1\norder\nq <= 1\n", "line 3: unknown element name 'q'"),
    (_TWO_CHAIN + "covers\n0 < 1\norder\n0 <= 1\n",
     "both covers and order sections given"),
    ("elements 0 1\ntable mul\n0 0\n0 1\nconst one = 1\n",
     "no order information (covers or order section)"),
    ("elements 0 1\ncovers\n0 < 1\ntable\n",
     "line 4: expected 'table mul' or 'table imp'"),
    ("elements 0 1\ncovers\n0 < 1\ntable mul imp\n",
     "line 4: expected 'table mul' or 'table imp'"),
    ("elements 0 1\ncovers\n0 < 1\ntable odot\n",
     "line 4: expected 'table mul' or 'table imp'"),
    (_TWO_CHAIN + "table imp\n1 1\n0 1\n", "line 11: duplicate table imp"),
    ("elements 0 1\ncovers\n0 < 1\ntable mul\n0 0\n",
     "line 4: table mul ends early"),
    (_TWO_CHAIN.replace("0 1\ntable imp", "table imp"),
     "line 4: table mul ends early"),
    ("elements 0 1\ncovers\n0 < 1\ntable mul\n0\n0 1\n",
     "line 5: expected 2 entries"),
    ("elements 0 1\ncovers\n0 < 1\ntable mul\n0 0\n0 1 1\n",
     "line 6: expected 2 entries"),
    ("elements 0 1\ncovers\n0 < 1\ntable imp\n1 1\n0 x\n",
     "line 6: unknown element name 'x'"),
    (_TWO_CHAIN.replace("const one = 1\n", "0 1\nconst one = 1\n"),
     "line 10: unknown section '0'"),
    ("elements 0 1\ncovers\n0 < 1\nconst one 1\n",
     "line 4: expected 'const one = <name>' or 'const zero = <name>'"),
    ("elements 0 1\ncovers\n0 < 1\nconst two = 1\n",
     "line 4: expected 'const one = <name>' or 'const zero = <name>'"),
    ("elements 0 1\ncovers\n0 < 1\nconst one = 1 0\n",
     "line 4: expected 'const one = <name>' or 'const zero = <name>'"),
    ("elements 0 1\ncovers\n0 < 1\nconst zero = q\n",
     "line 4: unknown element name 'q'"),
    (_TWO_CHAIN + "const one = 0\n", "line 11: duplicate const one"),
    (_TWO_CHAIN + "0 1\n", "line 11: unknown section '0'"),
    ("elements 0 1\ncovers\n0 < 1\n", "const one is required"),
    (_TWO_CHAIN + "designated 0\n",
     "line 11: expected 'designated = <name>'"),
    (_TWO_CHAIN + "designated = q\n", "line 11: unknown element name 'q'"),
    (_TWO_CHAIN + "designated = 0\n= 0\n", "line 12: unknown section '='"),
    (_TWO_CHAIN + "pairmap h\n",
     "line 11: expected 'pairmap f' or 'pairmap g'"),
    (_TWO_CHAIN + "pairmap\n", "line 11: expected 'pairmap f' or 'pairmap g'"),
    (_PAIRMAP_F, "line 11: pairmap f has no body"),
    (_PAIRMAP_F + "pairmap g\nproj1\n", "line 11: pairmap f has no body"),
    (_PAIRMAP_F + "proj1\nproj2\n", "line 13: unknown section 'proj2'"),
    (_PAIRMAP_F + "proj2 proj1\n", "line 12: expected '(<x>,<y>) -> <z>'"),
    (_PAIRMAP_F + "(0,0) 1\n", "line 12: expected '(<x>,<y>) -> <z>'"),
    (_PAIRMAP_F + "0,0 -> 1\n", "line 12: expected '(<x>,<y>) -> <z>'"),
    (_PAIRMAP_F + "(0) -> 1\n", "line 12: expected '(<x>,<y>) -> <z>'"),
    (_PAIRMAP_F + "(0,0,1) -> 1\n", "line 12: expected '(<x>,<y>) -> <z>'"),
    (_PAIRMAP_F + "(0,0) -> 1\nproj1\n",
     "line 13: expected '(<x>,<y>) -> <z>'"),
    (_PAIRMAP_F + "(0,q) -> 1\n", "line 12: unknown element name 'q'"),
    (_PAIRMAP_F + "(0,0) -> 2\n", "line 12: unknown element name '2'"),
    (_PAIRMAP_F + "(0,0) -> 1\n(0,0) -> 0\n",
     "line 13: duplicate pairmap entry"),
    (_PAIRMAP_F + "(0,0) -> 1\n(0,1) -> 1\n(1,0) -> 0\n",
     "line 14: pairmap f has 3 of 4 entries"),
    (_PAIRMAP_F + "(0,0) -> 1\n(0,1) -> 1\npairmap g\nproj1\n",
     "line 13: pairmap f has 2 of 4 entries"),
    (_OPTABLE_HEAD + "optable\n",
     "line 6: expected 'optable odot' or 'optable oimp'"),
    (_OPTABLE_HEAD + "optable mul\n",
     "line 6: expected 'optable odot' or 'optable oimp'"),
    (_OPTABLE_HEAD + _OPTABLES + "optable oimp\n1 1\n0 1\n",
     "line 12: duplicate optable oimp"),
    (_OPTABLE_HEAD + "optable odot\n0 0\n", "line 6: optable odot ends early"),
    (_OPTABLE_HEAD + "optable odot\n0 0\noptable oimp\n1 1\n0 1\n",
     "line 6: optable odot ends early"),
    (_OPTABLE_HEAD + "optable odot\n0 0 0\n", "line 7: expected 2 entries"),
    (_OPTABLE_HEAD + "optable odot\n0 {0\n",
     "line 7: unbalanced braces in '{0'"),
    (_OPTABLE_HEAD + "optable odot\n0 {}\n", "line 7: empty operator image"),
    (_OPTABLE_HEAD + "optable odot\n0 0,\n",
     "line 7: malformed image cell '0,'"),
    (_OPTABLE_HEAD + "optable odot\n0 {,1}\n",
     "line 7: malformed image cell ',1'"),
    (_OPTABLE_HEAD + "optable odot\n0 0,,1\n",
     "line 7: malformed image cell '0,,1'"),
    (_OPTABLE_HEAD + "optable odot\n0 {0,q}\n",
     "line 7: unknown element name 'q'"),
    (_OPTABLE_HEAD + _OPTABLES + "0 1\n", "line 12: unknown section '0'"),
    (_OPTABLE_HEAD + _OPTABLES + "table mul\n0 0\n0 1\n",
     "optables cannot be combined with tables"),
    (_OPTABLE_HEAD + "optable odot\n0 0\n0 1\n",
     "optables need both odot and oimp"),
    (_OPTABLE_HEAD.replace("const zero = 0\n", "") + _OPTABLES,
     "operator tables need const one and const zero"),
])
def test_parse_error_messages(tmp_path, capsys, text, message):
    # each message of parse, with its line; the file exits 2 with it
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
    f = tmp_path / "bad.struct"
    f.write_text(text)
    assert run(["check", str(f)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


_PAIRMAP_FILE = _PAIRMAP_F + ("proj2\npairmap g\n(0,0) -> 1\n(0,1) -> 1\n"
                              "(1,0) -> 0\n(1,1) -> 1\n")


def _mutants(seed, count):
    # each valid file with one line deleted, duplicated, replaced by a
    # line of any of the files, or with one word replaced by any word
    texts = [data_path(name).read_text() for name in
             ("example1.struct", "chain3.struct")]
    texts += [_PAIRMAP_FILE, _OPTABLE_HEAD + _OPTABLES]
    pool = [line for t in texts for line in t.splitlines()]
    words = sorted({w for line in pool for w in line.split()})
    rng = random.Random(seed)
    for _ in range(count):
        lines = rng.choice(texts).splitlines()
        k = rng.randrange(len(lines))
        kind = rng.randrange(4)
        if kind == 0:
            del lines[k]
        elif kind == 1:
            lines.insert(k, lines[k])
        elif kind == 2:
            lines.insert(k, rng.choice(pool))
        else:
            line = lines[k].split() or [""]
            line[rng.randrange(len(line))] = rng.choice(words)
            lines[k] = " ".join(line)
        yield "\n".join(lines) + "\n"


def test_mutated_files_fail_cleanly(tmp_path, capsys):
    # a bad file is an error with a message (exit 2), never a traceback;
    # run turns each of these three errors into exit 2, so only a file
    # that parses can reach code past parse
    f = tmp_path / "mutant.struct"
    for text in _mutants(13, 2500):
        try:
            parse(text)
        except (ParseError, OrderError, StructureError):
            continue
        f.write_text(text)
        assert run(["check", str(f)]) in (0, 1, 2), text
        capsys.readouterr()


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
    (("x,y", "z"), "line 1: element name 'x,y'"),
])
def test_unwritable_element_names_are_rejected(names, parse_error):
    # "covers" used to parse back as a different structure (its cover
    # line read as a new section); "order" and "a#" made the emitted text
    # unparseable; "x,y" loaded, but could not be written in an optable
    # cell, a pairmap pair or twist --const, which split on ','
    from resposet.order import chain
    from resposet.residuation import ResStructure
    p = chain(2)
    p = type(p)(names, p.up, p.down)
    with pytest.raises(OrderError, match="element name"):
        structure(p, mul=((0, 0), (0, 1)), imp=None, one=1)
    # a record built directly skips that check; emitting it still fails
    s = ResStructure(p, ((0, 0), (0, 1)), None, 1)
    with pytest.raises(ParseError, match="element name"):
        emit_structure(s)
    text = ("elements {0} {1}\ncovers\n{0} < {1}\n"
            "table mul\n{0} {0}\n{0} {1}\nconst one = {1}\n").format(*names)
    with pytest.raises(ParseError, match=parse_error):
        parse(text)


def _writable(name):
    try:
        check_names((name,))
    except OrderError:
        return False
    return True


writable_names = st.lists(
    st.text(alphabet="ab01#() ,{}<=-", min_size=1, max_size=4).filter(
        _writable),
    min_size=1, max_size=5, unique=True)


@st.composite
def small_structures(draw):
    names = draw(writable_names)
    n = len(names)
    covers = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1))
                           .filter(lambda c: c[0] < c[1])))
    p = poset_from_covers(names, covers)
    cell = st.integers(0, n - 1)
    table = st.lists(st.lists(cell, min_size=n, max_size=n),
                     min_size=n, max_size=n)
    return structure(p, draw(st.none() | table), draw(st.none() | table),
                     one=draw(cell), designated=draw(st.none() | cell))


@given(small_structures())
def test_emit_parse_round_trips_any_order(s):
    # any writable names over any order given by upward cover pairs
    assert parse(emit_structure(s)).structure == s
