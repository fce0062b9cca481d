"""Uniform check reporting.

Every verifiable claim in the package renders as one line
    CHECK (<id>) PASS|FAIL [witness <name>=<value> ...]
where the witness is the first counterexample in scan order.  Items can be
marked non-gating: those are reported but never turn the exit code red.
"""

from __future__ import annotations

from typing import NamedTuple


class CheckItem(NamedTuple):
    check_id: str
    passed: bool
    witness: tuple[tuple[str, str], ...] = ()
    gating: bool = True

    def line(self):
        out = "CHECK (%s) %s" % (self.check_id, _verdict(self.passed))
        if self.witness:
            out += " witness " + " ".join("%s=%s" % kv for kv in self.witness)
        return out


def agreement(check_id, ok, sides, witness=()):
    """A pass when ok; else a failure witnessed by witness, then by each
    (name, verdict) of sides, as name=PASS or name=FAIL."""
    return CheckItem(check_id, ok, () if ok else tuple(witness) + tuple(
        (name, _verdict(v)) for name, v in sides))


def _verdict(passed):
    return "PASS" if passed else "FAIL"


def render(items):
    return "\n".join(item.line() for item in items)


def all_pass(items):
    return all(item.passed for item in items)


def exit_code(items):
    return 0 if all(item.passed or not item.gating for item in items) else 1
