"""The line-oriented text format for structures.

A file declares its elements, the order (either generating covers or the
full relation), optional operation tables, constants, a designated
element, optional pair maps for the lifting construction, and optionally
a pair of set-valued operator tables instead of the single-valued ones.
'#' starts a comment; blank lines are ignored.
"""

from __future__ import annotations

import importlib.resources
import os
from dataclasses import dataclass

from .order import poset_from_covers, poset_from_relation
from .residuation import ResStructure, structure
from .twist import OperatorStructure, PairMap


class ParseError(ValueError):
    pass


@dataclass
class StructureFile:
    structure: ResStructure | None = None
    operators: OperatorStructure | None = None
    pairmaps: dict | None = None


_SECTION_WORDS = {"elements", "covers", "order", "table", "const",
                  "designated", "pairmap", "optable"}


def _check_names(names, where=""):
    """The format's one rule for element names: none may be empty, hold
    whitespace or '#', or be a section word, since each of those reads
    back as something else."""
    for name in names:
        if (not name or name in _SECTION_WORDS
                or any(c == "#" or c.isspace() for c in name)):
            raise ParseError(
                "%selement name %r is empty, a section word, or contains"
                " whitespace or '#'" % (where, name))


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _fail(lineno, msg):
    raise ParseError("line %d: %s" % (lineno, msg))


def parse(text):
    """Parse the text format into a structure file bundle."""
    names = None
    cover_pairs = []
    order_pairs = []
    saw_covers = saw_order = False
    tables = {}
    optables = {}
    consts = {}
    designated = None
    pairmaps = {}

    entries = list(_lines(text))

    def lookup(lineno, name_to_index, token):
        if token not in name_to_index:
            _fail(lineno, "unknown element name %r" % token)
        return name_to_index[token]

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

    i = 1
    while i < len(entries):
        lineno, line = entries[i]
        parts = line.split()
        word = parts[0]

        if word in ("covers", "order"):
            if word == "covers":
                saw_covers = True
            else:
                saw_order = True
            i += 1
            while i < len(entries):
                lno, body = entries[i]
                bparts = body.split()
                if bparts[0] in _SECTION_WORDS:
                    break
                if len(bparts) != 3 or bparts[1] not in ("<", "<="):
                    _fail(lno, "expected '<x> < <y>'")
                pair = (lookup(lno, index, bparts[0]),
                        lookup(lno, index, bparts[2]))
                (cover_pairs if word == "covers" else order_pairs).append(pair)
                i += 1
            continue

        if word in ("table", "optable"):
            labels = ("mul", "imp") if word == "table" else ("odot", "oimp")
            if len(parts) != 2 or parts[1] not in labels:
                _fail(lineno, "expected '%s %s' or '%s %s'"
                      % (word, labels[0], word, labels[1]))
            label = parts[1]
            found = tables if word == "table" else optables
            if label in found:
                _fail(lineno, "duplicate %s %s" % (word, label))
            rows = []
            i += 1
            for _ in range(n):
                if i >= len(entries):
                    _fail(lineno, "%s %s ends early" % (word, label))
                lno, body = entries[i]
                cells = body.split()
                if len(cells) != n:
                    _fail(lno, "expected %d entries" % n)
                if word == "table":
                    rows.append(tuple(lookup(lno, index, c) for c in cells))
                else:
                    rows.append(tuple(
                        tuple(sorted(lookup(lno, index, m)
                                     for m in _split_cell(lno, c)))
                        for c in cells))
                i += 1
            found[label] = tuple(rows)
            continue

        if word == "const":
            if len(parts) != 4 or parts[2] != "=" or parts[1] not in ("one", "zero"):
                _fail(lineno, "expected 'const one = <name>' or 'const zero = <name>'")
            if parts[1] in consts:
                _fail(lineno, "duplicate const %s" % parts[1])
            consts[parts[1]] = lookup(lineno, index, parts[3])
            i += 1
            continue

        if word == "designated":
            if len(parts) != 3 or parts[1] != "=":
                _fail(lineno, "expected 'designated = <name>'")
            designated = lookup(lineno, index, parts[2])
            i += 1
            continue

        if word == "pairmap":
            if len(parts) != 2 or parts[1] not in ("f", "g"):
                _fail(lineno, "expected 'pairmap f' or 'pairmap g'")
            label = parts[1]
            i += 1
            if i >= len(entries):
                _fail(lineno, "pairmap %s has no body" % label)
            lno, body = entries[i]
            if body in ("proj1", "proj2"):
                pairmaps[label] = PairMap(body)
                i += 1
                continue
            rows = [[None] * n for _ in range(n)]
            count = 0
            while i < len(entries):
                lno, body = entries[i]
                bparts = body.split()
                if bparts[0] in _SECTION_WORDS:
                    break
                ok = (len(bparts) == 3 and bparts[1] == "->"
                      and bparts[0].startswith("(") and bparts[0].endswith(")"))
                if not ok:
                    _fail(lno, "expected '(<x>,<y>) -> <z>'")
                inner = bparts[0][1:-1].split(",")
                if len(inner) != 2:
                    _fail(lno, "expected '(<x>,<y>) -> <z>'")
                x = lookup(lno, index, inner[0])
                y = lookup(lno, index, inner[1])
                if rows[x][y] is not None:
                    _fail(lno, "duplicate pairmap entry")
                rows[x][y] = lookup(lno, index, bparts[2])
                count += 1
                i += 1
            if count != n * n:
                _fail(lno, "pairmap %s has %d of %d entries" % (label, count, n * n))
            pairmaps[label] = PairMap.from_table(rows)
            continue

        if word == "elements":
            _fail(lineno, "duplicate elements line")
        _fail(lineno, "unknown section %r" % word)

    if saw_covers and saw_order:
        raise ParseError("both covers and order sections given")
    if not saw_covers and not saw_order:
        raise ParseError("no order information (covers or order section)")
    if saw_covers:
        poset = poset_from_covers(names, cover_pairs)
    else:
        poset = poset_from_relation(names, order_pairs)

    out = StructureFile(pairmaps=pairmaps)

    if optables:
        if tables:
            raise ParseError("optables cannot be combined with tables")
        if "odot" not in optables or "oimp" not in optables:
            raise ParseError("optables need both odot and oimp")
        if "one" not in consts or "zero" not in consts:
            raise ParseError("operator tables need const one and const zero")
        out.operators = OperatorStructure(
            poset, optables["odot"], optables["oimp"],
            zero=consts["zero"], one=consts["one"])
        return out

    if "one" not in consts:
        raise ParseError("const one is required")
    out.structure = structure(
        poset, tables.get("mul"), tables.get("imp"), one=consts["one"],
        zero=consts.get("zero"), designated=designated)
    return out


def _split_cell(lineno, cell):
    if cell.startswith("{"):
        if not cell.endswith("}"):
            _fail(lineno, "unbalanced braces in %r" % cell)
        cell = cell[1:-1]
    if not cell:
        _fail(lineno, "empty operator image")
    members = []
    depth = 0
    current = []
    for ch in cell:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            members.append("".join(current))
            current = []
        else:
            current.append(ch)
    members.append("".join(current))
    if any(not m for m in members):
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


def _cell_text(names, value, style):
    if isinstance(value, tuple):
        body = ",".join(names[u] for u in value)
        return "{" + body + "}" if style == "long" else body
    return names[value]


def emit_tables(obj, style="compressed", names=None):
    """Aligned text tables for either a single-valued structure (mul and
    imp) or an operator structure (odot and oimp).  The long style wraps
    set cells in braces; compressed joins members with commas."""
    if isinstance(obj, OperatorStructure):
        labeled = (("odot", obj.odot), ("oimp", obj.oimp))
        poset = obj.poset
    else:
        labeled = tuple((lab, t) for lab, t in
                        (("mul", obj.mul), ("imp", obj.imp)) if t is not None)
        poset = obj.poset
    if names is None:
        names = poset.names
    blocks = []
    for label, table in labeled:
        rows = [[label] + list(names)]
        for x in range(poset.n):
            rows.append([names[x]] +
                        [_cell_text(names, table[x][y], style)
                         for y in range(poset.n)])
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines = []
        for r in rows:
            cells = [r[c].ljust(widths[c]) for c in range(len(r))]
            first = cells[0]
            rest = " ".join(cells[1:]).rstrip()
            lines.append((first + " | " + rest).rstrip() if rest
                         else first.rstrip())
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
