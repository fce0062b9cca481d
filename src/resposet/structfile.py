"""The line-oriented text format for structures.

'#' starts a comment; blank lines are ignored.  The first line is
'elements' and the n element names.  After it, a line whose first word
is a section word opens a section, and its body runs to the next one:

  covers | order       one 'x < y' (or 'x <= y') line per pair: the
                       generating covers, or the full order relation
  table mul | imp      exactly n rows of n names
  optable odot | oimp  exactly n rows of n cells, each its ','-separated
                       members, optionally in braces, read as their mask
                       (a repeated member counts once)
  const one | zero = x and designated = x have no body
  pairmap f | g        'proj1' or 'proj2', or n*n '(x,y) -> z' lines

A body line that its section does not use is an error.  The order is one
covers or order section; optables replace the tables and allow no
designated element.
"""

from __future__ import annotations

import importlib.resources
import os
from typing import NamedTuple

from .order import (SECTION_WORDS, OrderError, bits, check_names, mask_of,
                    poset_from_covers, poset_from_relation)
from .residuation import ResStructure, structure
from .twist import OperatorStructure, projection


class ParseError(ValueError):
    pass


class StructureFile(NamedTuple):
    structure: ResStructure | None = None
    operators: OperatorStructure | None = None
    pairmaps: dict | None = None


def _check_names(names, where=""):
    """order.check_names, failing as a ParseError prefixed with where."""
    try:
        check_names(names)
    except OrderError as e:
        raise ParseError(where + str(e)) from None


def _fail(lineno, msg):
    raise ParseError("line %d: %s" % (lineno, msg))


def _sections(entries):
    """The lines after the elements line as (lineno, header words, body):
    a line whose first word is a section word opens a section, and every
    other line joins the body of the section above as (lineno, words)."""
    sections = []
    for lineno, line in entries:
        words = line.split()
        if words[0] in SECTION_WORDS:
            sections.append((lineno, words, []))
        elif sections:
            sections[-1][2].append((lineno, words))
        else:
            _fail(lineno, "unknown section %r" % words[0])
    return sections


def parse(text):
    """Parse the text format into a structure file bundle."""
    orders = {}
    tables = {}   # by label: mul and imp, or the optables odot and oimp
    consts = {}
    designated = None
    pairmaps = {}

    entries = [(k, line) for k, raw in enumerate(text.splitlines(), 1)
               if (line := raw.split("#", 1)[0].strip())]
    if not entries:
        raise ParseError("empty input")
    lineno, line = entries[0]
    parts = line.split()
    if parts[0] != "elements":
        _fail(lineno, "file must start with an elements line")
    names = tuple(parts[1:])
    if not names:
        _fail(lineno, "elements line declares no elements")
    _check_names(names, "line %d: " % lineno)
    if len(set(names)) != len(names):
        _fail(lineno, "duplicate element names")
    index = {nm: k for k, nm in enumerate(names)}
    n = len(names)

    def lookup(lineno, token):
        if token not in index:
            _fail(lineno, "unknown element name %r" % token)
        return index[token]

    for lineno, parts, body in _sections(entries[1:]):
        word = parts[0]
        used = len(body)

        if word in ("covers", "order"):
            if len(parts) != 1:
                _fail(lineno, "expected %r on its own line" % word)
            pairs = orders.setdefault(word, [])
            for lno, words in body:
                if len(words) != 3 or words[1] not in ("<", "<="):
                    _fail(lno, "expected '<x> < <y>'")
                pairs.append((lookup(lno, words[0]), lookup(lno, words[2])))

        elif word in ("table", "optable"):
            labels = ("mul", "imp") if word == "table" else ("odot", "oimp")
            if len(parts) != 2 or parts[1] not in labels:
                _fail(lineno, "expected '%s %s' or '%s %s'"
                      % (word, labels[0], word, labels[1]))
            label = parts[1]
            if label in tables:
                _fail(lineno, "duplicate %s %s" % (word, label))
            used = n
            rows = []
            for lno, cells in body[:n]:
                if len(cells) != n:
                    _fail(lno, "expected %d entries" % n)
                rows.append(tuple(
                    lookup(lno, c) if word == "table" else
                    mask_of(lookup(lno, m) for m in _split_cell(lno, c))
                    for c in cells))
            if len(rows) < n:
                _fail(lineno, "%s %s ends early" % (word, label))
            tables[label] = tuple(rows)

        elif word == "const":
            if len(parts) != 4 or parts[2] != "=" or parts[1] not in ("one", "zero"):
                _fail(lineno, "expected 'const one = <name>' or 'const zero = <name>'")
            if parts[1] in consts:
                _fail(lineno, "duplicate const %s" % parts[1])
            consts[parts[1]] = lookup(lineno, parts[3])
            used = 0

        elif word == "designated":
            if len(parts) != 3 or parts[1] != "=":
                _fail(lineno, "expected 'designated = <name>'")
            if designated is not None:
                _fail(lineno, "duplicate designated")
            designated = lookup(lineno, parts[2])
            used = 0

        elif word == "pairmap":
            if len(parts) != 2 or parts[1] not in ("f", "g"):
                _fail(lineno, "expected 'pairmap f' or 'pairmap g'")
            label = parts[1]
            if label in pairmaps:
                _fail(lineno, "duplicate pairmap %s" % label)
            if not body:
                _fail(lineno, "pairmap %s has no body" % label)
            if body[0][1] in (["proj1"], ["proj2"]):
                pairmaps[label] = projection(n, body[0][1][0])
                used = 1
            else:
                rows = [[None] * n for _ in range(n)]
                for lno, words in body:
                    inner = words[0][1:-1].split(",")
                    if (len(words) != 3 or words[1] != "->" or len(inner) != 2
                            or (words[0][0], words[0][-1]) != ("(", ")")):
                        _fail(lno, "expected '(<x>,<y>) -> <z>'")
                    x, y = (lookup(lno, v) for v in inner)
                    if rows[x][y] is not None:
                        _fail(lno, "duplicate pairmap entry")
                    rows[x][y] = lookup(lno, words[2])
                if len(body) != n * n:
                    _fail(lno, "pairmap %s has %d of %d entries"
                          % (label, len(body), n * n))
                pairmaps[label] = tuple(map(tuple, rows))

        else:   # elements, the one section word left
            _fail(lineno, "duplicate elements line")

        for lno, words in body[used:]:
            _fail(lno, "unknown section %r" % words[0])

    if len(orders) != 1:
        raise ParseError("both covers and order sections given" if orders
                         else "no order information (covers or order section)")
    (word, pairs), = orders.items()
    poset = (poset_from_covers if word == "covers"
             else poset_from_relation)(names, pairs)

    if "odot" in tables or "oimp" in tables:
        if "mul" in tables or "imp" in tables:
            raise ParseError("optables cannot be combined with tables")
        if designated is not None:
            raise ParseError("optables cannot be combined with designated")
        if "odot" not in tables or "oimp" not in tables:
            raise ParseError("optables need both odot and oimp")
        if "one" not in consts or "zero" not in consts:
            raise ParseError("operator tables need const one and const zero")
        return StructureFile(operators=OperatorStructure(
            poset, tables["odot"], tables["oimp"],
            zero=consts["zero"], one=consts["one"]), pairmaps=pairmaps)

    if "one" not in consts:
        raise ParseError("const one is required")
    return StructureFile(structure(
        poset, tables.get("mul"), tables.get("imp"), one=consts["one"],
        zero=consts.get("zero"), designated=designated), pairmaps=pairmaps)


def _split_cell(lineno, cell):
    if cell.startswith("{"):
        if not cell.endswith("}"):
            _fail(lineno, "unbalanced braces in %r" % cell)
        cell = cell[1:-1]
    if not cell:
        _fail(lineno, "empty operator image")
    members = cell.split(",")
    if not all(members):
        _fail(lineno, "malformed image cell %r" % cell)
    return members


def data_path(name):
    return importlib.resources.files("resposet") / "data" / name


def load(path):
    """Read a structure file from the filesystem; bare names with no
    path separator fall back to the packaged data directory."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    if os.sep not in str(path) and "/" not in str(path):
        for name in (str(path), str(path) + ".struct"):
            candidate = data_path(name)
            if candidate.is_file():
                return parse(candidate.read_text(encoding="utf-8"))
    raise ParseError("no such structure file: %s" % path)


def emit_structure(s):
    """Canonical text for a structure; parse(emit_structure(s)) rebuilds
    an equal structure; names the format cannot hold are a ParseError."""
    p = s.poset
    _check_names(p.names)
    out = ["elements " + " ".join(p.names), ""]
    covers = p.cover_pairs()
    if covers:
        out.append("covers")
        for x, y in covers:
            out.append("%s < %s" % (p.names[x], p.names[y]))
        out.append("")
    else:
        out.append("order")
        for x in range(p.n):
            out.append("%s <= %s" % (p.names[x], p.names[x]))
        out.append("")
    for label, table in (("mul", s.mul), ("imp", s.imp)):
        if table is None:
            continue
        out.append("table " + label)
        for row in table:
            out.append(" ".join(p.names[v] for v in row))
        out.append("")
    out.append("const one = " + p.names[s.one])
    if s.zero is not None:
        out.append("const zero = " + p.names[s.zero])
    if s.designated is not None:
        out.append("designated = " + p.names[s.designated])
    return "\n".join(out) + "\n"


def _cell_text(names, value, style, is_set):
    if not is_set:
        return names[value]
    body = ",".join(names[u] for u in bits(value))
    return "{" + body + "}" if style == "long" else body


def emit_tables(obj, style="compressed", names=None):
    """Aligned text tables for either a single-valued structure (mul and
    imp) or an operator structure (odot and oimp, whose cells are masks
    rendered as their members, ascending).  The long style wraps set cells
    in braces; compressed joins members with commas."""
    poset = obj.poset
    is_set = isinstance(obj, OperatorStructure)
    if is_set:
        labeled = (("odot", obj.odot), ("oimp", obj.oimp))
    else:
        labeled = tuple((lab, t) for lab, t in
                        (("mul", obj.mul), ("imp", obj.imp)) if t is not None)
    if names is None:
        names = poset.names
    blocks = []
    for label, table in labeled:
        text = {v: _cell_text(names, v, style, is_set)
                for v in set().union(*table)}
        rows = [(label, *names)] + [(names[x], *map(text.__getitem__, row))
                                    for x, row in enumerate(table)]
        widths = [max(map(len, col)) for col in zip(*rows)]
        first = "%%-%ds" % widths[0]
        rest = " ".join("%%-%ds" % w for w in widths[1:])
        lines = []
        for r in rows:
            cells = (rest % r[1:]).rstrip()
            lines.append((first % r[0] + " | " + cells).rstrip() if cells
                         else r[0].rstrip())
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
