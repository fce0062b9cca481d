import os
import re

import pytest

from resposet import residuation, search
from resposet.kleene_twist import build_restricted_twist
from resposet.order import (InvolutionVerdict, bounds, lowest, mask_of,
                            maximal_elements)
from resposet.residuation import (LAWS, classify, condition_applicable,
                                  condition_holds, condition_needs,
                                  evaluate_law, structure)
from resposet.search import (POSET_CAP, STRUCTURE_CAP, EnumerationError,
                             PROPERTIES, STRUCTURE_KINDS, check_universal,
                             describe_poset, describe_structure,
                             enumerate_posets, enumerate_structures,
                             residuable_columns, suite_properties)


def test_poset_counts():
    assert [len(enumerate_posets(n)) for n in (1, 2, 3, 4, 5)] == [
        1, 3, 19, 219, 4231]


def test_poset_cap():
    with pytest.raises(EnumerationError):
        enumerate_posets(7)


def test_structure_counts():
    counts = {}
    for kind in ("residuated-pair", "left-residuated-groupoid",
                 "commutative-residuated-monoid",
                 "bounded-commutative-residuated-monoid"):
        counts[kind] = [len(enumerate_structures(n, kind)) for n in (2, 3)]
    assert counts["residuated-pair"] == [24, 5166]
    assert counts["left-residuated-groupoid"] == [12, 990]
    assert counts["commutative-residuated-monoid"] == [4, 27]
    assert counts["bounded-commutative-residuated-monoid"] == [2, 12]


def test_lrg_condition_failure_counts():
    # how many left-residuated groupoids break isotony or integrality
    for n, fail1, fail7 in ((2, 2, 10), (3, 624, 972)):
        structs = enumerate_structures(n, "left-residuated-groupoid")
        assert sum(1 for s in structs
                   if not condition_holds(s, 1)[0]) == fail1
        assert sum(1 for s in structs
                   if not condition_holds(s, 7)[0]) == fail7


def test_enumeration_is_deterministic():
    # each call builds its structures afresh: nothing is cached to agree
    first = enumerate_structures(2, "left-residuated-groupoid")
    enumerate_posets.cache_clear()
    second = enumerate_structures(2, "left-residuated-groupoid")
    assert first is not second
    assert [describe_structure(s) for s in first] == [
        describe_structure(s) for s in second]


def test_check_universal_streams_its_structures(monkeypatch):
    # the sweep draws each table of a block just before checking its
    # structure, so the generator never runs more than one item ahead of
    # the checks; the one-process share loop runs the whole range, as
    # check_universal's share 0 and workers run their slices, so the
    # lists see every case.  The check carries no decided hook, so no
    # block is skipped.
    name, kind = "law-7-from-comm-1-6-top", "unital-groupoid"
    prop, (real, rows) = PROPERTIES[name], search._KINDS[kind]
    drawn, checked = [], []

    def drawing(tables):
        for t in tables:
            drawn.append(t)
            yield t

    def generator(posets):
        for base, tables in real(posets):
            yield base, drawing(tables)

    def check(s):
        assert drawn[-1] == (s.mul, s.imp)
        assert len(drawn) == len(checked) + 1
        checked.append(s)
        yield from prop.check(s)

    monkeypatch.setitem(search._KINDS, kind, (generator, rows))
    result = search._sweep(prop._replace(check=check), (1, 2))
    assert result.ok
    # one table at n = 1; 3 posets x 2 units x 2 ** 2 tables at n = 2
    assert result.cases == len(checked) == len(drawn) == 1 + 3 * 2 * 2 ** 2


def test_boolean_structure_is_enumerated(bool2):
    stream = [describe_structure(s) for s in
              enumerate_structures(2, "bounded-commutative-residuated-monoid")]
    assert describe_structure(bool2) in stream


def test_enumerated_bcrms_classify():
    for s in enumerate_structures(3, "bounded-commutative-residuated-monoid"):
        flags = classify(s)
        assert flags.bcrm


@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
def test_generated_records_pass_the_validating_constructor(kind):
    # the enumerations build their records directly; each must be the
    # record structure() builds from its own fields
    for n in (1, 2, 3):
        for s in enumerate_structures(n, kind):
            assert s == structure(s.poset, s.mul, s.imp, one=s.one,
                                  zero=s.zero)


def test_residuable_columns_satisfy_adjunction():
    checked = 0
    for p in enumerate_posets(3):
        for col, row in residuable_columns(p).items():
            # row[z] is the greatest x with col[x] <= z, and the solution
            # set is exactly its down-set
            for z in range(p.n):
                for x in range(p.n):
                    assert p.leq(col[x], z) == p.leq(x, row[z])
            checked += 1
    assert checked > 0


def test_structure_kinds_exposed():
    assert "left-residuated-groupoid" in STRUCTURE_KINDS
    assert "unital-groupoid" in STRUCTURE_KINDS


def test_suite_partition():
    lem = suite_properties("lemmas")
    thm = suite_properties("theorems")
    assert len(lem) == 9
    assert len(thm) == 7
    assert {p.name for p in lem} | {p.name for p in thm} == set(PROPERTIES)
    for prop in PROPERTIES.values():
        assert prop.kind == "poset" or prop.kind in STRUCTURE_KINDS, prop.name
        cap = POSET_CAP if prop.kind == "poset" else STRUCTURE_CAP
        assert all(1 <= n <= cap for n in prop.sizes), prop.name


EXPECTED_CASES = {
    "law-5-from-1-3": 5191,
    "law-7-from-comm-1-6-top": 41578,
    "law-8-from-assoc-2-3": 5191,
    "law-2-from-3-6": 1003,
    "law-4-from-3-6": 1003,
    "law-9-from-3-6": 1003,
    "law-10-from-5-9-top": 41578,
    "law-13-from-idempotent": 90,
    "synthesis-adjunction": 5191,
    "twist-lifting-first-projections": 5191,
    "twist-lifting-second-projections": 5191,
    "operator-twist-audit": 15,
    "restricted-twist-biconditional": 41,
    "cone-product-law": 242,
    "restricted-pseudo-kleene": 940,
    "distributivity-identities-agree": 4473,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_CASES))
def test_universal_property(name):
    result = check_universal(name)
    assert result.ok, result.witness
    assert result.cases == EXPECTED_CASES[name]


# CONFIRMED (premises held) cases of each law sweep: a premise wired to
# the wrong condition changes these without changing a case count
NON_VACUOUS = {
    "5-from-1-3": 1821,
    "7-from-comm-1-6-top": 15,
    "8-from-assoc-2-3": 535,
    "2-from-3-6": 1003,
    "4-from-3-6": 1003,
    "9-from-3-6": 1003,
    "10-from-5-9-top": 161,
    "13-from-idempotent": 70,
}


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law[0])
def test_law_sweep_non_vacuous_count(law):
    prop = PROPERTIES["law-" + law[0]]
    confirmed = 0
    for n in prop.sizes:
        for s in enumerate_structures(n, prop.kind):
            for a in range(n) if "designated" in law.needs else (None,):
                t = s if a is None else s._replace(designated=a)
                confirmed += evaluate_law(t, law)[0] == "CONFIRMED"
    assert confirmed == NON_VACUOUS[law[0]]


def test_check_universal_size_override():
    result = check_universal("law-5-from-1-3", sizes=(1, 2))
    assert result.ok
    assert result.cases == 25


@pytest.mark.parametrize("name", sorted(EXPECTED_CASES))
def test_share_counts_sum_to_the_sweep(name):
    # a 3-way split, each share run in this process: the shares partition
    # the cases, and each share passes
    prop = PROPERTIES[name]
    results = [search._sweep(prop, prop.sizes, k, 3) for k in range(3)]
    assert all(r.ok for r in results)
    assert sum(r.cases for r in results) == EXPECTED_CASES[name]


# enumerate_posets(3)[4] is in share 1 of a 3-way split, run by a worker
FORKED = enumerate_posets(3)[4]


def _raise_at(poset, real, log):
    def fake(p):
        if p == poset:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write("%d\n" % os.getpid())
            raise ValueError("forced at " + describe_poset(p))
        return real(p)
    return fake


@pytest.fixture
def three_shares(monkeypatch):
    # three shares on any machine, so two of them run in forked workers
    monkeypatch.setattr(search, "_cpus", lambda: 3)


def test_exception_in_a_forked_share_reaches_the_caller(monkeypatch, tmp_path,
                                                        three_shares):
    log = tmp_path / "pids"
    monkeypatch.setattr(search, "cone_product_failure", _raise_at(
        FORKED, search.cone_product_failure, log))
    with pytest.raises(ValueError, match="^forced at %s$"
                       % re.escape(describe_poset(FORKED))):
        check_universal("cone-product-law")
    # a worker raised first, then the one-process sweep raised here
    worker, caller = map(int, log.read_text(encoding="utf-8").split())
    assert worker != os.getpid() == caller


def test_exception_in_the_calling_share_reaches_the_caller(
        monkeypatch, tmp_path, three_shares):
    # enumerate_posets(3)[0] is in share 0, which this process runs: it
    # raises there, the workers are stopped and reaped, and the
    # one-process sweep raises it again here
    first = enumerate_posets(3)[0]
    log = tmp_path / "pids"
    monkeypatch.setattr(search, "cone_product_failure", _raise_at(
        first, search.cone_product_failure, log))
    with pytest.raises(ValueError, match="^forced at %s$"
                       % re.escape(describe_poset(first))):
        check_universal("cone-product-law")
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failure_in_a_forked_share_gives_the_one_process_witness(
        monkeypatch, three_shares):
    real = search.cone_product_failure
    monkeypatch.setattr(search, "cone_product_failure",
                        lambda p: (0, 1) if p == FORKED else real(p))
    prop = PROPERTIES["cone-product-law"]
    result = check_universal(prop.name)
    assert not result.ok
    assert result == search._sweep(prop, prop.sizes)
    assert result.witness.startswith(describe_poset(FORKED) + " :: ")


@pytest.mark.parametrize("outcome", ["pass", "fail", "raise"])
def test_no_worker_outlives_the_sweep(monkeypatch, tmp_path, three_shares,
                                      outcome):
    real = search.cone_product_failure
    if outcome == "fail":
        monkeypatch.setattr(search, "cone_product_failure",
                            lambda p: (0, 1) if p == FORKED else real(p))
    if outcome == "raise":
        monkeypatch.setattr(search, "cone_product_failure",
                            _raise_at(FORKED, real, tmp_path / "pids"))
    try:
        result = check_universal("cone-product-law")
        assert result.ok == (outcome == "pass")
    except ValueError:
        assert outcome == "raise"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_cpu_runs_without_forking(monkeypatch):
    forks = []

    def fork():
        forks.append(1)
        raise OSError("forked on one CPU")

    monkeypatch.setattr(search, "_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", fork)
    result = check_universal("cone-product-law")
    assert result.ok and result.cases == EXPECTED_CASES["cone-product-law"]
    assert forks == []


def test_no_fork_means_one_share(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert search._cpus() == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to list open descriptors")
def test_a_failed_fork_closes_its_pipe_and_sweeps_here(monkeypatch,
                                                       three_shares):
    forks = []

    def fork():
        forks.append(1)
        raise OSError("fork failed")

    monkeypatch.setattr(os, "fork", fork)
    before = sorted(os.listdir("/proc/self/fd"))
    assert check_universal("cone-product-law") == (
        "cone-product-law", 242, None)
    assert forks == [1]
    assert sorted(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("call, message", [
    (lambda: enumerate_posets(0), "poset size must be positive"),
    (lambda: enumerate_structures(2, "lattice"),
     "unknown structure kind 'lattice'"),
    (lambda: enumerate_structures(0), "structure size must be positive"),
    (lambda: check_universal("law-0"), "unknown property 'law-0'"),
], ids=["poset-size", "structure-kind", "structure-size", "property"])
def test_enumeration_errors_name_the_bad_input(call, message):
    with pytest.raises(EnumerationError, match="^%s$" % re.escape(message)):
        call()


def test_size_errors_raise_before_any_sweep(monkeypatch):
    # a bad size late in the range raises before the first case runs
    def check(s):
        raise AssertionError("swept before the sizes were checked")

    monkeypatch.setitem(PROPERTIES, "law-5-from-1-3", PROPERTIES[
        "law-5-from-1-3"]._replace(check=check))
    with pytest.raises(EnumerationError, match="^structure size 4 above cap"):
        check_universal("law-5-from-1-3", (1, 2, 4))


CHAIN3 = enumerate_posets(3)[18]        # 0 < 1 < 2
CHAIN3_TWIST_AT_1 = build_restricted_twist(CHAIN3, 1).poset


def _fail_cone_product(real):
    return lambda p: (0, 1) if p == CHAIN3 else real(p)


def _fail_first_identity(real):
    return lambda p, dual: ((0, 0, 0) if p == CHAIN3 and not dual
                            else real(p, dual=dual))


def _fail_pseudo_kleene(real):
    return lambda q, m: (InvolutionVerdict(False, "forced")
                         if q == CHAIN3_TWIST_AT_1 else real(q, m))


@pytest.mark.parametrize("name, predicate, fake, reason", [
    ("cone-product-law", "cone_product_failure", _fail_cone_product,
     "cone product law broken at 00, 01"),
    ("distributivity-identities-agree", "_lu_identity_failure",
     _fail_first_identity, "cone distributivity identities disagree"),
    ("restricted-pseudo-kleene", "is_pseudo_kleene", _fail_pseudo_kleene,
     "a=1 :: swap not pseudo-kleene (forced)"),
])
def test_poset_sweep_witness_names_its_poset(monkeypatch, name, predicate,
                                             fake, reason):
    monkeypatch.setattr(search, predicate, fake(getattr(search, predicate)))
    result = check_universal(name)
    assert not result.ok
    assert describe_poset(CHAIN3) == "elements=012;covers=0<1,1<2"
    assert result.witness == describe_poset(CHAIN3) + " :: " + reason


def test_structure_sweep_witness_starts_with_its_structure(monkeypatch):
    target = enumerate_structures(2, "commutative-residuated-monoid")[1]
    real = search.evaluate_law

    def fake(t, law):
        if t == target._replace(designated=1):
            return "REFUTED", (0, 1)
        return real(t, law)

    monkeypatch.setattr(search, "evaluate_law", fake)
    result = check_universal("law-13-from-idempotent")
    assert not result.ok
    assert result.witness.startswith(describe_structure(target) + " :: ")
    assert result.witness == "%s :: a=%s :: condition 13 fails at %s,%s" % (
        describe_structure(target), *(target.names[i] for i in (1, 0, 1)))


def _tamper(table, cells):
    rows = [list(row) for row in table]
    for (p, q), image in cells.items():
        rows[p][q] = image
    return tuple(map(tuple, rows))


def test_operator_audit_reports_first_cardinality_failure(monkeypatch):
    # two singleton images made two-element: the implication cell at
    # (00, 00) comes before the product cell at (01, 01) in row-major order
    kind = "bounded-commutative-residuated-monoid"
    target = enumerate_structures(2, kind)[0]
    real = search.build_operator_twist

    def fake(s):
        ops = real(s)
        if s != target:
            return ops
        assert ops.odot[1][1].bit_count() == ops.oimp[0][0].bit_count() == 1
        return ops._replace(
            odot=_tamper(ops.odot, {(1, 1): 0b11}),
            oimp=_tamper(ops.oimp, {(0, 0): 0b11}))

    monkeypatch.setattr(search, "build_operator_twist", fake)
    result = check_universal("operator-twist-audit")
    assert not result.ok
    assert result.witness == describe_structure(target) + (
        " :: implication image cardinality law fails at 00, 00")


def _audit_first_failure(real):
    # an empty product image at (00, 01) of the first two-element monoid
    target = enumerate_structures(
        2, "bounded-commutative-residuated-monoid")[0]

    def fake(s):
        ops = real(s)
        return ops if s != target else ops._replace(
            odot=_tamper(ops.odot, {(0, 1): 0}))
    return fake


_ONE_POINT = "elements=0;covers=none"
_BCRM_2 = "elements=01;covers=1<0;one=0;zero=1;mul=01.11;imp=01.00"


@pytest.mark.parametrize("name, predicate, fake, cases, witness", [
    ("synthesis-adjunction", "synthesize_residuum",
     lambda real: lambda p, mul: real(p, mul)._replace(ok=False), 1,
     _ONE_POINT + ";one=0;mul=0;imp=0 :: synthesized residuum mismatch"),
    ("operator-twist-audit", "build_operator_twist", _audit_first_failure, 2,
     _BCRM_2 + " :: CHECK (op-wellformed) FAIL witness op=odot x=00 y=01"),
    ("restricted-pseudo-kleene", "is_distributive",
     lambda real: lambda p: real(p)._replace(is_distributive=False), 1,
     _ONE_POINT + " :: a=0 :: restricted twist kleene but base not"
     " distributive"),
    ("restricted-pseudo-kleene", "is_kleene",
     lambda real: lambda q, m, pk: InvolutionVerdict(False, "forced"), 1,
     _ONE_POINT + " :: a=0 :: bounded distributive base but restricted"
     " twist not kleene"),
], ids=["synthesis-mismatch", "audit-item", "kleene-not-distributive",
        "distributive-not-kleene"])
def test_forced_failures_give_their_reasons(monkeypatch, name, predicate,
                                            fake, cases, witness):
    monkeypatch.setattr(search, predicate, fake(getattr(search, predicate)))
    assert check_universal(name) == (name, cases, witness)


def _residuum_row_without_principal_test(p, col):
    # residuation.residuum_row that keeps a unique maximal solution even
    # when the solution set is not its whole down-set
    row = []
    for z in range(p.n):
        sol = mask_of(x for x in range(p.n) if p.down[z] >> col[x] & 1)
        tops = maximal_elements(p, sol)
        if tops.bit_count() != 1:
            return None, ("no-maximum", z, tops)
        row.append(lowest(tops))
    return tuple(row), None


@pytest.fixture
def fresh_columns():
    # the structure enumerations hold nothing; only the columns are cached
    residuable_columns.cache_clear()
    yield
    residuable_columns.cache_clear()


def test_synthesis_sweep_runs_the_adjunction_scan(monkeypatch,
                                                  fresh_columns):
    # the residuated pairs take their implications from residuum_row, and
    # synthesize_residuum recovers them the same way, so a faulty recovery
    # agrees with itself: only the (3) scan can catch it
    real = {p: set(residuable_columns(p)) for p in enumerate_posets(2)}
    residuable_columns.cache_clear()
    for module in (residuation, search):
        monkeypatch.setattr(module, "residuum_row",
                            _residuum_row_without_principal_test)
    extra = sum(len(set(residuable_columns(p)) - real[p])
                for p in enumerate_posets(2))
    assert extra == 2
    result = check_universal("synthesis-adjunction", (2,))
    assert not result.ok
    assert " :: synthesized residuum fails condition 3 at " in result.witness


# The condition table records which rows read the unit ("one" among a
# row's ingredients); the sweeps rely on it to decide a row once per
# table of a poset, or once per (poset, unit) block.

UNIT_FREE_ROWS = [k for k in residuation._CONDITIONS
                  if "one" not in condition_needs(k)]
UNIT_ONLY_ROWS = [k for k in residuation._CONDITIONS
                  if set(condition_needs(k)) <= {"one"}]


def test_the_rows_that_read_the_unit():
    assert [k for k in residuation._CONDITIONS
            if k not in UNIT_FREE_ROWS] == [6, 9, "unit-top"]
    assert UNIT_ONLY_ROWS == ["unit-top"]
    assert [law.law_id for law in LAWS if "one" not in law.needs] == [
        "5-from-1-3", "8-from-assoc-2-3", "13-from-idempotent"]


@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
def test_rows_without_the_unit_give_one_verdict_for_every_unit(kind):
    # every structure of kind at n <= 3 under every unit, and at every
    # designation for the rows that read one; a poset's tables come once,
    # whichever unit brings them.  The structures of a kind share their
    # ingredients, so the rows that apply to one apply to all; they run
    # bare, as condition_holds adds only that ingredient check.
    first = enumerate_structures(1, kind)[0]._replace(designated=0)
    rows = [(residuation._CONDITIONS[k][0], "designated" in condition_needs(k))
            for k in UNIT_FREE_ROWS if condition_applicable(first, k)]
    seen = set()
    for n in range(1, STRUCTURE_CAP + 1):
        for s in enumerate_structures(n, kind):
            if (s.poset, s.mul, s.imp) in seen:
                continue
            seen.add((s.poset, s.mul, s.imp))
            units = [s._replace(one=u) for u in range(n)]
            at = [[t._replace(designated=a) for t in units] for a in range(n)]
            for row, designated in rows:
                for variants in at if designated else (units,):
                    assert len({row(t) for t in variants}) == 1, (
                        row, describe_structure(variants[0]))


@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
def test_rows_of_the_unit_alone_give_one_verdict_per_block(kind):
    for n in range(1, STRUCTURE_CAP + 1):
        generator, rows = search._KINDS[kind]
        for base, tables in generator(enumerate_posets(n)):
            want = {k: condition_holds(base, k) for k in UNIT_ONLY_ROWS}
            for s in search._structures(base, tables, rows):
                for k in UNIT_ONLY_ROWS:
                    assert condition_holds(s, k) == want[k], (
                        k, describe_structure(s))


@pytest.mark.parametrize("name, row", [
    ("law-5-from-1-3", 5), ("law-8-from-assoc-2-3", 8),
    ("synthesis-adjunction", 3)])
def test_a_failure_on_a_shared_table_names_its_unit_0_case(
        monkeypatch, three_shares, name, row):
    # a row that reads no unit fails on one table of the last 3-element
    # poset, whichever unit brings it; the sweeps count the cases of the
    # poset's later units as passes, yet the witness and count are those
    # of a per-item scan, which meets the table first at unit 0.  The same
    # tables come with an earlier poset, where the row holds, so counting
    # them as passes across posets would miss the failure.
    prop = PROPERTIES[name]
    law = next((law for law in LAWS if "law-" + law.law_id == name), None)
    stream = enumerate_structures(3, prop.kind)
    first_poset = {}
    for s in stream:
        first_poset.setdefault(s[1:3], s.poset)
    target = [s for s in stream if s.one == 2
              and first_poset[s[1:3]] != s.poset
              and all(condition_holds(s, k)[0]
                      for k in (law.premises if law else ()))][-1]
    assert target.poset == enumerate_posets(3)[-1]
    real, names = residuation._CONDITIONS[row][:2]

    def fake(s):
        return (0,) * len(names) if s[:3] == target[:3] else real(s)

    monkeypatch.setitem(residuation._CONDITIONS, row,
                        (fake,) + residuation._CONDITIONS[row][1:])
    scan = [s for n in prop.sizes for s in enumerate_structures(n, prop.kind)]
    first = next(i for i, s in enumerate(scan) if s[:3] == target[:3])
    assert scan[first] == target._replace(one=0)
    reason = ("synthesized residuum fails condition 3 at 0,0,0" if law is None
              else "condition %d fails at 0,0,0" % row)
    assert check_universal(name) == (
        name, first + 1, describe_structure(scan[first]) + " :: " + reason)


def _built_by_passing_sweep(monkeypatch, prop):
    """The structures with tables that a one-process sweep of prop builds,
    in order; the sweep passes with its EXPECTED_CASES."""
    built, real = [], search.ResStructure

    def recording(*fields):
        s = real(*fields)
        if s.mul is not None or s.imp is not None:
            built.append(s)
        return s

    monkeypatch.setattr(search, "ResStructure", recording)
    assert search._sweep(prop, prop.sizes) == (
        prop.name, EXPECTED_CASES[prop.name], None)
    return built


@pytest.mark.parametrize("name", ["law-7-from-comm-1-6-top",
                                  "law-10-from-5-9-top"])
def test_a_vacuous_block_builds_no_structures(monkeypatch, name):
    # unit-top fails on every (poset, unit) block whose unit is not the
    # top: the sweep counts those cases as passes and builds only the
    # structures of the other blocks, in enumeration order
    prop = PROPERTIES[name]
    checked = [s for n in prop.sizes
               for s in enumerate_structures(n, prop.kind)
               if condition_holds(s, "unit-top")[0]]
    built = _built_by_passing_sweep(monkeypatch, prop)
    # the 9 posets with a top at n = 3, 2 at n = 2 and 1 at n = 1, each
    # with the free cells of one table
    assert built == checked and len(checked) == 9 * 3 ** 6 + 2 * 2 ** 2 + 1


@pytest.mark.parametrize("name", ["law-5-from-1-3", "law-8-from-assoc-2-3",
                                  "synthesis-adjunction"])
def test_a_repeated_block_builds_no_structures(monkeypatch, name):
    # the check reads no unit, and a residuated pair's poset brings the
    # same tables at every unit: the sweep builds the structures of unit
    # 0 only, in enumeration order, and counts the later units' cases as
    # the passes they were at unit 0
    prop = PROPERTIES[name]
    unit_0 = [s for n in prop.sizes
              for s in enumerate_structures(n, prop.kind) if s.one == 0]
    assert _built_by_passing_sweep(monkeypatch, prop) == unit_0


@pytest.mark.parametrize("name, built", [
    ("law-13-from-idempotent", 5191), ("law-2-from-3-6", 5191),
    ("operator-twist-audit", 1305)])
def test_a_filtered_kind_builds_each_candidate_once(monkeypatch, name,
                                                    built):
    # a kind with rows builds each residuated pair it reads once, tests
    # its rows on that structure and checks the same structure: the 5,191
    # residuated pairs at n <= 3, or the 1,305 of the posets with both
    # bounds at the top unit
    prop = PROPERTIES[name]
    pairs = [s for n in prop.sizes
             for s in enumerate_structures(n, "residuated-pair")]
    assert len(pairs) == 5191
    assert 1305 == sum(1 for s in pairs
                       if bounds(s.poset)[1] == s.one
                       and bounds(s.poset)[0] is not None)
    assert len(_built_by_passing_sweep(monkeypatch, prop)) == built


def test_a_decided_block_counts_only_the_structures_its_kind_keeps():
    # no hook settles a block of a kind with rows in the registered
    # sweeps; one that settles every block of law 13's commutative
    # monoids, each case at every designated element, must count the
    # sweep's cases, not the residuated pairs its blocks hold
    prop = PROPERTIES["law-13-from-idempotent"]

    def check(s):
        raise AssertionError("a decided block checks no structure")
        yield

    check.decided = lambda base: base.poset.n
    assert search._sweep(prop._replace(check=check), prop.sizes) == (
        prop.name, EXPECTED_CASES[prop.name], None)


def test_no_commutative_monoid_table_recurs_across_units():
    # commutativity makes the unit unique, so law 13's sweep meets each
    # (poset, mul, imp) at one unit only, and its hook settles no block
    prop = PROPERTIES["law-13-from-idempotent"]
    for n in range(1, STRUCTURE_CAP + 1):
        monoids = enumerate_structures(n, prop.kind)
        assert len({s[:3] for s in monoids}) == len(monoids)
        assert not any(prop.check.decided(base) for base, _ in
                       search._KINDS[prop.kind][0](enumerate_posets(n)))


@pytest.mark.parametrize("name", ["law-5-from-1-3",
                                  "law-7-from-comm-1-6-top"])
def test_columns_are_filled_before_the_sweep_forks(three_shares,
                                                   fresh_columns, name):
    # the workers inherit every poset's columns rather than each
    # computing its own share's, whatever the structure kind
    assert check_universal(name).ok
    assert residuable_columns.cache_info().currsize == 1 + 3 + 19
