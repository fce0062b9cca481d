"""Command line interface.

Exit codes: 0 when every gating check passes, 1 when a check fails
(witnesses go to stdout), 2 for input or usage errors, 3 when an operator
escape matches no closure case (EscapeCaseError; its witness goes to stdout).
"""

from __future__ import annotations

import re
import sys
import types

from .kleene_twist import EscapeCaseError, check_kleene_twist
from .order import OrderError, is_distributive, is_lattice
from .report import CheckItem, all_pass, exit_code, render
from .residuation import (CONDITION_IDS, Classification, StructureError,
                          Verdicts, check_condition, check_derived_laws,
                          condition_applicable, named_witness)
from .search import (EnumerationError, check_universal, enumerate_posets,
                     enumerate_structures, suite_properties, STRUCTURE_KINDS)
from .structfile import ParseError, emit_tables, load
from .twist import (build_operator_twist, check_embeddings,
                    check_operator_residuated, check_twist_lifting, pair_name,
                    projection)


def _tables(sf, path):
    """The structure of file sf, which must have a mul and an imp table."""
    s = sf.structure
    if s is None or s.mul is None or s.imp is None:
        raise StructureError(
            "%s does not define both a mul and an imp table" % path)
    return s


def _emit_output(args, text):
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args):
    s = _tables(load(args.file), args.file)
    # one condition table for the listing, the classification and the laws
    verdicts = Verdicts(s)
    flags = Classification.of(verdicts)
    print("structure: %d elements" % s.poset.n)
    print("classification: " + flags.summary())
    items = [check_condition(s, k, verdicts)._replace(gating=False)
             for k in CONDITION_IDS if condition_applicable(s, k)]
    items.append(CheckItem("left-residuated-groupoid", flags.left_residuated))
    items.append(CheckItem("bounded", flags.bounded, gating=False))
    items += [check_condition(s, k, verdicts)._replace(gating=False)
              for k in ("commutative", "associative")]
    laws = check_derived_laws(s, verdicts)
    refuted = [lv for lv in laws if lv.status == "REFUTED"]
    for lv in laws:
        items.append(CheckItem("law-" + lv.law_id, lv.status != "REFUTED",
                               lv.witness))
    lat = is_lattice(s.poset)
    wit = ()
    if not lat.is_lattice:
        cand = "mub" if lat.kind == "join" else "mlb"
        wit = ((("kind", lat.kind),)
               + named_witness(s.names, ("x", "y"), (lat.x, lat.y))
               + ((cand, s.poset.render_set(lat.candidates)),))
    items.append(CheckItem("lattice", lat.is_lattice, wit, gating=False))
    dist = is_distributive(s.poset)
    items.append(CheckItem(
        "distributive", dist.is_distributive,
        named_witness(s.names, ("x", "y", "z"), dist.witness), gating=False))
    print(render(items))
    confirmed = sum(1 for lv in laws if lv.status == "CONFIRMED")
    vacuous = sum(1 for lv in laws if lv.status == "VACUOUS")
    print("laws: %d confirmed, %d vacuous, %d refuted"
          % (confirmed, vacuous, len(refuted)))
    if refuted:
        print("DERIVED LAW REFUTED: " + ", ".join(lv.law_id for lv in refuted))
    return exit_code(items)


def _pairmap_arg(value, sf, label):
    if value is None:
        if sf.pairmaps and label in sf.pairmaps:
            return sf.pairmaps[label]
        value = "proj1" if label == "f" else "proj2"
    if value in ("proj1", "proj2"):
        return projection(sf.structure.poset.n, value)
    raise StructureError(
        "--%s must be proj1 or proj2 (or declare a pairmap %s section)"
        % (label, label))


def _cmd_twist(args):
    sf = load(args.file)
    s = _tables(sf, args.file)
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
        s = _tables(sf, args.file)
        ops = build_operator_twist(s)
        items = check_operator_residuated(ops) + [check_embeddings(s.poset)]
    print(render(items))
    if args.tables or args.out:
        _emit_output(args, emit_tables(ops, style=args.style))
    return exit_code(items)


def _cmd_pa(args):
    s = _tables(load(args.file), args.file)
    if args.a is not None:
        a = s.poset.index(args.a)
    elif s.designated is not None:
        a = s.designated
    else:
        raise StructureError("no designated element: pass --a")
    report = check_kleene_twist(s, a)
    rt, assumptions = report.rt, report.assumptions
    print("carrier: " + " ".join(rt.poset.names))
    for x, y in rt.poset.cover_pairs():
        print("cover %s < %s" % (rt.poset.names[x], rt.poset.names[y]))
    print(render(assumptions))
    if not all_pass(assumptions):
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
    if args.max_size is not None and args.max_size < 1:
        raise EnumerationError("--max-size must be positive")
    total = 0
    names = []
    for prop in suite_properties(args.suite):
        sizes = None
        if args.max_size is not None:
            sizes = tuple(x for x in prop.sizes if x <= args.max_size)
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


REQUIRED = object()
_TABLE_OPTIONS = (("style", ("compressed", "long"), "compressed"),
                  ("tables", bool, False), ("out", "PATH", None))
# command -> (help, positionals, options); an option is (name, kind,
# default), kind being int, bool for a flag, the tuple of allowed values or
# the metavar of any other value.  Command c runs _cmd_c(args).
COMMANDS = {
    "check": ("conditions, classification and laws", ("file",), ()),
    "twist": ("lift the operations to the pair poset", ("file",), (
        ("f", "{proj1,proj2}", None), ("g", "{proj1,proj2}", None),
        ("const", "X,Y", None)) + _TABLE_OPTIONS),
    "optwist": ("set-valued operator twist and its audit", ("file",),
                _TABLE_OPTIONS),
    "pa": ("restricted twist around an element", ("file",),
           (("a", "ELEMENT", None),) + _TABLE_OPTIONS),
    "enumerate": ("count small posets or structures", (), (
        ("size", int, REQUIRED),
        ("filter", ("poset",) + STRUCTURE_KINDS, "poset"))),
    "verify": ("universal property sweeps", (), (
        ("suite", ("lemmas", "theorems"), REQUIRED), ("max-size", int, None))),
}
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")   # a value, not an option


def _usage(command):
    if not command:
        return "[-h] {%s} ..." % ",".join(COMMANDS)
    _, positionals, options = COMMANDS[command]
    words = [command, "[-h]"]
    for name, kind, default in options:
        if isinstance(kind, tuple):
            name += " {%s}" % ",".join(kind)
        elif kind is not bool:
            name += " N" if kind is int else " " + kind
        words.append("--" + name if default is REQUIRED else "[--%s]" % name)
    return " ".join(words + list(positionals))


def _exit(command, error=None):
    """Print the usage, then the error (exit 2) or the help (exit 0)."""
    print("usage: resposet " + _usage(command),
          file=sys.stderr if error else None)
    if error:
        print("resposet: error: " + error, file=sys.stderr)
        sys.exit(2)
    if command:
        print("\n" + COMMANDS[command][0])
    else:
        print("\nExact checks for finite residuated order structures.\n")
        for name, entry in COMMANDS.items():
            print("  %-10s %s" % (name, entry[0]))
    sys.exit(0)


def _option(arg, names):
    """(option, its '=' value or None), (arg, None) for an unknown or
    ambiguous option or (None, arg) for a value; a unique prefix of a long
    option names it, and -h<text> is --help with the value <text>."""
    if arg[:2] == "-h":
        return "--help", arg[2:] or None
    flag, eq, value = arg.partition("=")
    if arg[:2] == "--" and arg != "--":
        found = [n for n in names if n == flag] or \
            [n for n in names if n.startswith(flag)]
        if len(found) == 1:
            return found[0], value if eq else None
    if arg[:1] != "-" or len(arg) == 1 or " " in arg or _NUMBER.match(arg):
        return None, arg
    return arg, None


def parse_args(argv):
    """Read argv as (command, fields).  A usage error prints the usage and
    exits 2; -h or --help prints help and exits 0."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        if _option(command, ["--help"]) == ("--help", None):
            _exit("")
        _exit("", "unknown command %r" % command if command else "no command")
    _, positionals, options = COMMANDS[command]
    kinds = dict([("--help", bool)] + [("--" + n, k) for n, k, _ in options])
    fields = {name: default for name, _, default in options}
    free, extra, rest, bordered = [], [], iter(argv[1:]), False
    for arg in rest:
        if arg == "--":   # it counts only beside a positional
            if bordered or len(free) < len(positionals):
                free += rest
            else:
                extra += [arg, *rest]
            break
        name, value = _option(arg, kinds)
        bordered, kind = name is None, kinds.get(name)
        if kind is None:
            (free if bordered else extra).append(arg)
            continue
        if kind is bool and value is not None:
            _exit(command, "argument %s: ignored explicit argument %r"
                  % (name, value))
        if name == "--help":
            _exit(command)
        if kind is bool:
            value = True
        elif value is None:
            value = next(rest, "--")
            if value == "--" or _option(value, kinds)[0]:
                _exit(command, "argument %s: expected one argument" % name)
        try:
            value = int(value) if kind is int else value
        except ValueError:
            _exit(command, "argument %s: invalid int value: %r"
                  % (name, value))
        if isinstance(kind, tuple) and value not in kind:
            _exit(command, "argument %s: invalid choice: %r" % (name, value))
        fields[name[2:]] = value
    missing = list(positionals[len(free):]) + [
        "--" + name for name, value in fields.items() if value is REQUIRED]
    if missing:
        _exit(command, "the following arguments are required: "
              + ", ".join(missing))
    extra = free[len(positionals):] + extra
    if extra:
        _exit(command, "unrecognized arguments: " + " ".join(extra))
    fields.update(zip(positionals, free))
    return command, types.SimpleNamespace(
        **{name.replace("-", "_"): value for name, value in fields.items()})


def run(argv=None):
    command, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return globals()["_cmd_" + command](args)
    except (ParseError, StructureError, OrderError, EnumerationError,
            OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except EscapeCaseError as e:
        print(e)
        return 3


def main():
    # a reader that closes the pipe early (resposet ... | head) ends the
    # command as it ends other filters, not as an input error
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
