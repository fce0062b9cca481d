"""Spans around the public functions of each resposet module.

`install()` wraps every function named in LAYERS and rebinds the wrapper
in every `resposet.*` namespace that holds the original, because modules
import functions by name (`search` calls its own `is_distributive`
binding, not `order.is_distributive`).  Each call records a span: name,
start, end and the span that was open when it started.  Spans stay in
memory; `Tracer.summary()` turns them into per-function calls, inclusive
and self time, and `Tracer.dump()` writes them out.
"""

from __future__ import annotations

import sys
import time
from array import array

# The layers are the modules; these are their public functions that the
# benchmark times.
LAYERS = {
    "order": ("is_distributive", "is_pseudo_kleene", "is_kleene",
              "is_lattice", "poset_from_leq", "poset_from_covers"),
    "residuation": ("structure", "condition_holds", "check_condition",
                    "is_associative", "synthesize_residuum",
                    "check_derived_laws", "classify"),
    "twist": ("full_twist", "build_operator_twist", "check_embedding",
              "check_operator_residuated", "twist_operations",
              "check_twist_lifting"),
    "kleene_twist": ("build_restricted_twist",
                     "check_restriction_assumptions",
                     "check_restricted_closure",
                     "build_restricted_operators", "check_kleene_twist"),
    "search": ("enumerate_posets", "residuable_columns",
               "enumerate_structures", "check_universal"),
    "structfile": ("parse", "emit_tables"),
    "report": ("render",),
    "cli": ("run",),
}

KIND_ALIAS = {
    "residuated-pair": "rp",
    "left-residuated-groupoid": "lrg",
    "commutative-residuated-monoid": "crm",
    "bounded-commutative-residuated-monoid": "bcrm",
    "unital-groupoid": "ug",
    "unital-implication": "ui",
}


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _span_name(qual, args, kwargs):
    """Sweeps and enumerations are split by property and by kind."""
    if qual == "search.check_universal":
        return qual + "." + _arg(args, kwargs, 0, "name")
    if qual == "search.enumerate_structures":
        kind = _arg(args, kwargs, 1, "kind", "left-residuated-groupoid")
        return qual + "." + KIND_ALIAS.get(kind, kind)
    return qual


def _counters(qual, args, kwargs, result, missed):
    """Work counts measured at the call, as (counter, value, how)."""
    if qual == "search.enumerate_posets" and missed:
        return (("posets", len(result), "sum"),)
    if qual == "search.residuable_columns" and missed:
        n = args[0].n
        return (("kept", len(result), "sum"), ("tried", n ** n, "sum"))
    if qual == "search.enumerate_structures" and missed:
        return (("count", len(result), "sum"),)
    if qual == "search.check_universal":
        return (("cases", result.cases, "sum"),)
    if qual == "twist.check_operator_residuated":
        return (("max_carrier", args[0].poset.n, "max"),)
    if qual == "kleene_twist.build_restricted_twist":
        return (("carrier_sum", result.poset.n, "sum"),)
    if qual == "structfile.parse":
        return (("bytes", len(args[0].encode()), "sum"),)
    if qual == "structfile.emit_tables":
        return (("bytes", len(result.encode()), "sum"),)
    return ()


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.sid = array("i")         # name index of each span
        self.parent = array("i")      # enclosing span, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {}              # (name, counter) -> [value, how]

    def _id(self, name):
        i = self.name_id.get(name)
        if i is None:
            i = self.name_id[name] = len(self.names)
            self.names.append(name)
        return i

    def _count(self, name, counter, value, how):
        slot = self.counts.setdefault((name, counter), [0, how])
        slot[0] = max(slot[0], value) if how == "max" else slot[0] + value

    def wrap(self, qual, fn):
        cache_info = getattr(fn, "cache_info", None)
        perf = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            name = _span_name(qual, args, kwargs)
            k = len(self.start)
            self.sid.append(self._id(name))
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            before = cache_info() if cache_info else None
            stack.append(k)
            t = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[k] = perf()
                self.start[k] = t
                stack.pop()
            missed = True
            if before is not None:
                after = cache_info()
                missed = after.misses > before.misses
                self._count(name, "hits", after.hits - before.hits, "sum")
            for counter, value, how in _counters(qual, args, kwargs, result,
                                                 missed):
                self._count(name, counter, value, how)
            if qual == "residuation.structure" and stack:
                # structures built directly inside an enumeration are the
                # candidates its filter tried
                outer = self.names[self.sid[stack[-1]]]
                if outer.startswith("search.enumerate_structures."):
                    self._count(outer, "generated", 1, "sum")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap LAYERS and rebind each wrapper wherever the original is
        bound inside the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "resposet" or name.startswith("resposet.")]
        for layer, fns in LAYERS.items():
            home = sys.modules["resposet." + layer]
            for fn_name in fns:
                qual = layer + "." + fn_name
                orig = getattr(home, fn_name)
                wrapper = self.wrap(qual, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                if getattr(home, fn_name) is not wrapper:
                    raise RuntimeError("could not rebind " + qual)

    def summary(self):
        """Per span name: calls, inclusive and self seconds, counters; and
        the inclusive time of root spans, which the self times of all
        spans must add up to."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        stats = {}
        root = 0.0
        for k in range(n):
            dur = self.end[k] - self.start[k]
            st = stats.setdefault(self.names[self.sid[k]],
                                  {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - child[k]
            if self.parent[k] < 0:
                root += dur
        for (name, counter), (value, how) in self.counts.items():
            stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            stats[name][counter] = value
        return {"functions": stats, "root_s": root, "spans": n}

    def dump(self, path):
        """Write the spans as tab-separated rows:
        span, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart\tend\n")
            for k in range(len(self.start)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    k, self.parent[k], self.names[self.sid[k]],
                    self.start[k], self.end[k]))
