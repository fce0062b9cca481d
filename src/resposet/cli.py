"""Command line interface.

Exit codes: 0 when every gating check passes, 1 when a check fails
(witnesses go to stdout), 2 for input or usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .kleene_twist import AssumptionError, check_kleene_twist
from .order import OrderError, is_distributive, is_lattice
from .report import CheckItem, exit_code, render
from .residuation import (StructureError, check_condition, check_derived_laws,
                          classify, is_associative, is_commutative)
from .search import (EnumerationError, check_universal, enumerate_posets,
                     enumerate_structures, suite_properties, STRUCTURE_KINDS)
from .structfile import ParseError, emit_tables, load
from .twist import (PairMap, build_operator_twist, check_embeddings,
                    check_operator_residuated, check_twist_lifting, pair_name)


def _load_structure(path):
    sf = load(path)
    if sf.structure is None:
        raise StructureError("%s does not define operation tables" % path)
    return sf


def _emit_output(args, text):
    print(text, end="")
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args):
    sf = _load_structure(args.file)
    s = sf.structure
    if s.mul is None or s.imp is None:
        raise StructureError("check needs both a mul and an imp table")
    flags = classify(s)
    print("structure: %d elements" % s.poset.n)
    print("classification: " + flags.summary())
    items = []
    for k in range(1, 11):
        items.append(_ungated(check_condition(s, k)))
    if s.designated is not None:
        if s.zero is not None:
            items.append(_ungated(check_condition(s, 11)))
        items.append(_ungated(check_condition(s, 12)))
        items.append(_ungated(check_condition(s, 13)))
    items.append(CheckItem("left-residuated-groupoid", flags.left_residuated))
    items.append(CheckItem("bounded", flags.bounded, gating=False))
    comm, cw = is_commutative(s)
    items.append(CheckItem("commutative", comm,
                           _names(s, ("x", "y"), cw), gating=False))
    assoc, aw = is_associative(s)
    items.append(CheckItem("associative", assoc,
                           _names(s, ("x", "y", "z"), aw), gating=False))
    laws = check_derived_laws(s)
    refuted = [lv for lv in laws if lv.status == "REFUTED"]
    for lv in laws:
        items.append(CheckItem("law-" + lv.law_id, lv.status != "REFUTED",
                               lv.witness))
    lat = is_lattice(s.poset)
    wit = ()
    if not lat.is_lattice:
        cand = "mub" if lat.kind == "join" else "mlb"
        wit = (("kind", lat.kind), ("x", s.poset.names[lat.x]),
               ("y", s.poset.names[lat.y]),
               (cand, s.poset.render_set(lat.candidates)))
    items.append(CheckItem("lattice", lat.is_lattice, wit, gating=False))
    dist = is_distributive(s.poset)
    items.append(CheckItem(
        "distributive", dist.is_distributive,
        _names(s, ("x", "y", "z"), dist.witness), gating=False))
    print(render(items))
    confirmed = sum(1 for lv in laws if lv.status == "CONFIRMED")
    vacuous = sum(1 for lv in laws if lv.status == "VACUOUS")
    print("laws: %d confirmed, %d vacuous, %d refuted"
          % (confirmed, vacuous, len(refuted)))
    if refuted:
        print("DERIVED LAW REFUTED: " + ", ".join(lv.law_id for lv in refuted))
    return exit_code(items)


def _ungated(item):
    return CheckItem(item.check_id, item.passed, item.witness, gating=False)


def _names(s, varnames, witness):
    if witness is None:
        return ()
    return tuple((v, s.poset.names[i]) for v, i in zip(varnames, witness))


def _pairmap_arg(value, sf, label):
    if value is None:
        if sf.pairmaps and label in sf.pairmaps:
            return sf.pairmaps[label]
        return PairMap.proj1() if label == "f" else PairMap.proj2()
    if value in ("proj1", "proj2"):
        return PairMap(value)
    raise StructureError(
        "--%s must be proj1 or proj2 (or declare a pairmap %s section)"
        % (label, label))


def _cmd_twist(args):
    sf = _load_structure(args.file)
    s = sf.structure
    f = _pairmap_arg(args.f, sf, "f")
    g = _pairmap_arg(args.g, sf, "g")
    if args.const:
        parts = args.const.split(",")
        if len(parts) != 2:
            raise StructureError("--const wants two comma-separated names")
        const = (s.poset.index(parts[0]), s.poset.index(parts[1]))
    else:
        const = (s.one, s.one)
    ts, items = check_twist_lifting(s, f, g, const)
    print("twist carrier: %d pairs" % ts.poset.n)
    print(render(items))
    if args.tables or args.out:
        _emit_output(args, emit_tables(ts, style=args.style))
    return exit_code(items)


def _cmd_optwist(args):
    sf = load(args.file)
    if sf.operators is not None:
        ops = sf.operators
        items = check_operator_residuated(ops)
    else:
        if sf.structure is None:
            raise StructureError(
                "%s does not define operation tables" % args.file)
        s = sf.structure
        ops = build_operator_twist(s)
        items = check_operator_residuated(ops) + [check_embeddings(s.poset)]
    print(render(items))
    if args.tables or args.out:
        _emit_output(args, emit_tables(ops, style=args.style))
    return exit_code(items)


def _cmd_pa(args):
    s = _load_structure(args.file).structure
    if args.a is not None:
        a = s.poset.index(args.a)
    elif s.designated is not None:
        a = s.designated
    else:
        raise StructureError("no designated element: pass --a")
    try:
        report = check_kleene_twist(s, a)
        rt, assumptions = report.rt, report.assumptions
    except AssumptionError as e:
        report, rt, assumptions = None, e.rt, e.items
    print("carrier: " + " ".join(rt.poset.names))
    for x, y in rt.poset.cover_pairs():
        print("cover %s < %s" % (rt.poset.names[x], rt.poset.names[y]))
    print(render(assumptions))
    if report is None:
        print("ASSUMPTION-FAIL: restricted twist verdict withheld")
        return 1
    for item in report.items:
        print(item.line())
        if item.check_id == "closure" and item.passed:
            print(render(report.audit))
    if report.operators is not None:
        names = None
        if args.style == "long":
            names = tuple(pair_name(rt.base, m, long=True) for m in rt.members)
        print()
        _emit_output(args, emit_tables(report.operators, style=args.style,
                                       names=names))
    return exit_code(assumptions + report.items)


def _cmd_enumerate(args):
    if args.filter == "poset":
        count = len(enumerate_posets(args.size))
    else:
        count = len(enumerate_structures(args.size, args.filter))
    print("count = %d" % count)
    return 0


def _cmd_verify(args):
    total = 0
    names = []
    for prop in suite_properties(args.suite):
        sizes = None
        if args.max_size is not None:
            sizes = tuple(x for x in prop.spec.sizes if x <= args.max_size)
        result = check_universal(prop.name, sizes)
        total += result.cases
        names.append(prop.name)
        if result.ok:
            print("CHECK (%s) PASS" % prop.name)
        else:
            print("CHECK (%s) FAIL" % prop.name)
            print("UNIVERSAL PROPERTY REFUTED: %s" % prop.name)
            print("  " + result.witness)
            return 1
    print("suite %s: %d properties, %d cases, all passed"
          % (args.suite, len(names), total))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resposet",
        description="Exact checks for finite residuated order structures "
                    "and their twist constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_flags(p):
        p.add_argument("--style", choices=("compressed", "long"),
                       default="compressed")
        p.add_argument("--tables", action="store_true",
                       help="print operation tables")
        p.add_argument("--out", help="also write tables to this path")

    p = sub.add_parser("check", help="conditions, classification and laws")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("twist", help="lift the operations to the pair poset")
    p.add_argument("file")
    p.add_argument("--f", dest="f")
    p.add_argument("--g", dest="g")
    p.add_argument("--const", help="unit pair, as 'x,y'")
    add_table_flags(p)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("optwist",
                       help="set-valued operator twist and its audit")
    p.add_argument("file")
    add_table_flags(p)
    p.set_defaults(func=_cmd_optwist)

    p = sub.add_parser("pa", help="restricted twist around an element")
    p.add_argument("file")
    p.add_argument("--a", dest="a", help="designated element name")
    add_table_flags(p)
    p.set_defaults(func=_cmd_pa)

    p = sub.add_parser("enumerate", help="count small posets or structures")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--filter", default="poset",
                   choices=("poset",) + STRUCTURE_KINDS)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="universal property sweeps")
    p.add_argument("--suite", choices=("lemmas", "theorems"), required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, StructureError, OrderError, EnumerationError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
