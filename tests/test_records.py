"""The result records: one sample of each, with its repr, immutability,
equality and hash pinned, so that a change in how the records are
declared leaves what they print and how they compare as it was."""

import importlib
import pkgutil
import typing

import pytest

import resposet
from resposet import (PROPERTIES, build_operator_twist,
                      build_restricted_twist, check_kleene_twist,
                      check_restriction_assumptions, check_universal,
                      classify, is_antitone_involution, is_distributive,
                      is_lattice, load, poset_from_covers, structure,
                      synthesize_residuum)
from resposet.order import (DistributivityVerdict, InvolutionVerdict,
                            LatticeVerdict)
from resposet.report import CheckItem
from resposet.residuation import (LawVerdict, ResStructure, SynthesisResult,
                                  check_derived_laws)
from resposet.structfile import StructureFile

FIELDS = {
    "Poset": ("names", "up", "down"),
    "LatticeVerdict": ("is_lattice", "kind", "x", "y", "candidates"),
    "DistributivityVerdict": ("is_distributive", "witness"),
    "InvolutionVerdict": ("ok", "reason", "witness"),
    "CheckItem": ("check_id", "passed", "witness", "gating"),
    "ResStructure": ("poset", "mul", "imp", "one", "zero", "designated"),
    "Classification": ("left_residuated", "bounded", "commutative",
                       "associative"),
    "SynthesisResult": ("ok", "imp", "kind", "at", "candidates"),
    "LawVerdict": ("law_id", "status", "witness"),
    "OperatorStructure": ("poset", "odot", "oimp", "zero", "one"),
    "RestrictedTwist": ("base", "a", "members", "poset", "swap", "index"),
    "KleeneTwistReport": ("rt", "assumptions", "items", "audit",
                          "operators"),
    "Property": ("name", "suite", "sizes", "kind", "check"),
    "UniversalResult": ("name", "cases", "witness"),
    "StructureFile": ("structure", "operators", "pairmaps"),
}

_CHAIN3 = ("ResStructure(poset=Poset(names=('0', 'a', '1'), up=(7, 6, 4), "
           "down=(1, 3, 7)), mul=((0, 0, 0), (0, 1, 1), (0, 1, 2)), "
           "imp=((2, 2, 2), (0, 2, 2), (0, 1, 2)), one=2, zero=0, "
           "designated=None)")
_DIAMOND_RT = (
    "RestrictedTwist(base=Poset(names=('0', 'x', 'y', '1'), "
    "up=(15, 10, 12, 8), down=(1, 3, 5, 15)), a=1, "
    "members=((0, 1), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1), "
    "(3, 0), (3, 1)), "
    "poset=Poset(names=('0x', '01', 'x0', 'xx', 'xy', 'x1', 'yx', '10', "
    "'1x'), up=(461, 511, 132, 396, 148, 444, 448, 128, 384), "
    "down=(3, 2, 63, 43, 50, 34, 67, 511, 363)), "
    "swap=(2, 7, 0, 3, 6, 8, 4, 1, 5), "
    "index={1: 0, 3: 1, 4: 2, 5: 3, 6: 4, 7: 5, 9: 6, 12: 7, 13: 8})")
_COMPARABILITY = ("CheckItem(check_id='assumption-comparability', "
                  "passed=False, witness=(('p', 'xy'),), gating=True)")

REPRS = {
    "Poset": "Poset(names=('0', 'a', '1'), up=(7, 6, 4), down=(1, 3, 7))",
    "LatticeVerdict": ("LatticeVerdict(is_lattice=False, kind='join', "
                       "x=2, y=3, candidates=96)"),
    "DistributivityVerdict": ("DistributivityVerdict(is_distributive=False,"
                              " witness=(2, 4, 3))"),
    "InvolutionVerdict": ("InvolutionVerdict(ok=False, reason='not "
                          "antitone', witness=(0, 1))"),
    "CheckItem": _COMPARABILITY,
    "ResStructure": _CHAIN3,
    "Classification": ("Classification(left_residuated=True, bounded=True, "
                       "commutative=True, associative=True)"),
    "SynthesisResult": ("SynthesisResult(ok=False, imp=None, kind='empty', "
                        "at=(0, 0), candidates=0)"),
    "LawVerdict": ("LawVerdict(law_id='5-from-1-3', status='CONFIRMED', "
                   "witness=())"),
    "OperatorStructure": (
        "OperatorStructure(poset=Poset(names=('00', '01', '10', '11'), "
        "up=(5, 15, 4, 12), down=(3, 2, 15, 10)), "
        "odot=((2, 2, 3, 3), (2, 2, 2, 2), (3, 2, 4, 12), (3, 2, 12, 8)), "
        "oimp=((4, 5, 4, 5), (4, 4, 4, 4), (5, 2, 4, 10), (5, 10, 4, 8)), "
        "zero=1, one=2)"),
    "RestrictedTwist": _DIAMOND_RT,
    "KleeneTwistReport": (
        "KleeneTwistReport(rt=" + _DIAMOND_RT + ", assumptions=["
        "CheckItem(check_id='assumption-idempotence', passed=True, "
        "witness=(), gating=True), " + _COMPARABILITY + "], items=[], "
        "audit=[], operators=None)"),
    # the check function's own repr carries its address
    "Property": ("Property(name='law-5-from-1-3', suite='lemmas', "
                 "sizes=(1, 2, 3), kind='residuated-pair', check=%r)"),
    "UniversalResult": ("UniversalResult(name='law-5-from-1-3', cases=25, "
                        "witness=None)"),
    "StructureFile": ("StructureFile(structure=" + _CHAIN3
                      + ", operators=None, pairmaps={})"),
}

# a record holding a list or a dict cannot be hashed
UNHASHABLE = {"RestrictedTwist", "KleeneTwistReport", "StructureFile"}


@pytest.fixture(scope="module")
def samples():
    chain3 = load("chain3")
    c3 = chain3.structure
    e1 = load("example1").structure
    p2 = poset_from_covers(("0", "1"), ((0, 1),))
    bool2 = structure(p2, mul=((0, 0), (0, 1)), imp=((1, 1), (0, 1)),
                      one=1, zero=0)
    p4 = poset_from_covers(("0", "x", "y", "1"),
                           ((0, 1), (0, 2), (1, 3), (2, 3)))
    mul = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))
    diamond = structure(p4, mul=mul, imp=synthesize_residuum(p4, mul).imp,
                        one=3, zero=0)
    report = check_kleene_twist(diamond, 1)
    return {
        "Poset": c3.poset,
        "LatticeVerdict": is_lattice(e1.poset),
        "DistributivityVerdict": is_distributive(e1.poset),
        "InvolutionVerdict": is_antitone_involution(c3.poset, (0, 1, 2)),
        "CheckItem": check_restriction_assumptions(diamond, report.rt)[1],
        "ResStructure": c3,
        "Classification": classify(c3),
        "SynthesisResult": synthesize_residuum(p2, ((1, 1), (1, 1))),
        "LawVerdict": check_derived_laws(c3)[0],
        "OperatorStructure": build_operator_twist(bool2),
        "RestrictedTwist": build_restricted_twist(p4, 1),
        "KleeneTwistReport": report,
        "Property": PROPERTIES["law-5-from-1-3"],
        "UniversalResult": check_universal("law-5-from-1-3", (1, 2)),
        "StructureFile": chain3,
    }


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr_is_pinned(samples, name):
    x = samples[name]
    assert type(x).__name__ == name
    expected = REPRS[name]
    if name == "Property":
        expected %= (x.check,)
    assert repr(x) == expected


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_assigned(samples, name):
    x = samples[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_copy_is_equal_with_the_same_hash(samples, name):
    x = samples[name]
    values = tuple(getattr(x, field) for field in FIELDS[name])
    copy = type(x)(**dict(zip(FIELDS[name], values)))
    assert copy is not x
    assert copy == x
    if name not in UNHASHABLE:
        # the hash of the field tuple keeps set order and cache keys
        assert hash(copy) == hash(x) == hash(values)


def test_defaults_are_pinned():
    p = poset_from_covers(("0",), ())
    assert [repr(x) for x in (
        LatticeVerdict(True), DistributivityVerdict(True),
        InvolutionVerdict(True), CheckItem("1", True), SynthesisResult(True),
        LawVerdict("5-from-1-3", "VACUOUS"),
        ResStructure(p, None, None, 0), StructureFile())] == [
        "LatticeVerdict(is_lattice=True, kind='', x=-1, y=-1, candidates=0)",
        "DistributivityVerdict(is_distributive=True, witness=None)",
        "InvolutionVerdict(ok=True, reason='', witness=())",
        "CheckItem(check_id='1', passed=True, witness=(), gating=True)",
        "SynthesisResult(ok=True, imp=None, kind='', at=None, candidates=0)",
        "LawVerdict(law_id='5-from-1-3', status='VACUOUS', witness=())",
        "ResStructure(poset=Poset(names=('0',), up=(1,), down=(1,)), "
        "mul=None, imp=None, one=0, zero=None, designated=None)",
        "StructureFile(structure=None, operators=None, pairmaps=None)",
    ]


def test_every_record_type_hint_resolves():
    # the hints are strings (postponed evaluation), resolved against the
    # globals of the record's own module
    records = {}
    for info in pkgutil.iter_modules(resposet.__path__):
        module = importlib.import_module("resposet." + info.name)
        records.update((name, cls) for name, cls in vars(module).items()
                       if isinstance(cls, type) and issubclass(cls, tuple)
                       and hasattr(cls, "_fields")
                       and cls.__module__ == module.__name__)
    assert set(FIELDS) < set(records)
    for name, cls in records.items():
        assert tuple(typing.get_type_hints(cls)) == cls._fields, name
