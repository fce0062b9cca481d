"""The resposet benchmark.

    python3 perfbench/run.py --workload sweep|pairs|small --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.
Every command runs in a fresh interpreter (see child.py), one after the
other (a closed loop with one caller).  A run repeats passes over the
workload's commands for about S seconds and checks every verdict against
oracle.py.  The last line of stdout is one JSON object; with --trace 0 it
holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics, measured from spans around each layer's functions
(tracer.py).  The lines before it describe the machine and break the
numbers down further.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import inputs
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEADLINE_S = 150        # stop starting commands after this; exit by 180 s
COMMAND_TIMEOUT_S = 60
SMALL_DRAWS = 24        # random <= 3-element structures in a small pass


@dataclass
class Command:
    label: str              # family, e.g. "pa"; "lemmas" for a suite
    spec: dict              # {"argv": [...]} or {"suite": [[name, sizes]]}
    verify: Callable        # (report) -> bool


def cli_command(label, argv, expect):
    def verify(rep):
        return rep["rc"] is not None and expect(rep["out"], rep["err"],
                                                rep["rc"])
    return Command(label, {"argv": argv}, verify)


def suite_command(suite):
    def verify(rep):
        return rep["rc"] == 0 and oracle.check_sweep(suite, rep["results"])
    spec = {"suite": [[name, list(sizes)]
                      for name, sizes, _ in oracle.SUITES[suite]]}
    return Command(suite, spec, verify)


class Inputs:
    """Writes generated files under perfbench/out and hands back paths
    relative to the checkout root."""

    def __init__(self, workload, seed):
        self.dir = os.path.join(OUT, "inputs-%s-%d" % (workload, seed))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def write(self, name, text):
        path = os.path.join(self.dir, name + ".struct")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return os.path.relpath(path, ROOT)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# --- workloads ---------------------------------------------------------

def check_cmd(m, path):
    return cli_command("check", ["check", path], oracle.expect_check(m))


def twist_cmd(m, path):
    return cli_command("twist", ["twist", path, "--tables"],
                       oracle.expect_twist(m))


def optwist_cmd(m, path):
    return cli_command("optwist", ["optwist", path], oracle.expect_optwist(m))


def pa_cmd(m, path, a):
    return cli_command("pa", ["pa", path, "--a", m.names[a]],
                       oracle.expect_pa(m, a))


def sweep_pass(rng, files):
    """Both universal suites at today's sizes; the seed changes nothing,
    because a sweep has no input other than its size."""
    return [suite_command("lemmas"), suite_command("theorems")]


def pairs_pass(rng, files):
    """Pair-carrier scaling: four bases, relabelled by the seed, through
    optwist, pa at chosen ranks and twist --tables."""
    bases = {}
    for key, model in (("g8", inputs.godel(8)), ("g10", inputs.godel(10)),
                       ("l10", inputs.lukasiewicz(10)),
                       ("e1", inputs.example1())):
        m, new_of = inputs.relabel(model, rng)
        bases[key] = (m, new_of, files.write(key, inputs.struct_text(m, rng)))

    def pa(key, old):
        m, new_of, path = bases[key]
        return pa_cmd(m, path, new_of[old])

    cmds = [optwist_cmd(m, path) for m, _, path in bases.values()]
    cmds += [pa("g8", rank) for rank in range(8)]
    cmds += [pa("g10", 5), pa("l10", 1), pa("e1", 0)]
    cmds += [twist_cmd(bases[key][0], bases[key][2]) for key in ("g10", "e1")]
    return cmds


def small_pass(rng, files):
    """One block of distinct small inputs, repeated each pass."""
    chain3, example1 = inputs.chain3(), inputs.example1()
    cmds = [check_cmd(chain3, "chain3"), check_cmd(example1, "example1"),
            twist_cmd(chain3, "chain3"), optwist_cmd(chain3, "chain3"),
            pa_cmd(chain3, "chain3", 1)]
    for i in range(SMALL_DRAWS):
        m = inputs.random_lrg(rng, rng.choice((1, 2, 3, 3, 3, 3)))
        if i % 2:
            m = inputs.perturb(m, rng)
        path = files.write("d%d" % i, inputs.struct_text(m, rng))
        cmds += [check_cmd(m, path), twist_cmd(m, path)]
    for i, base in enumerate(inputs.bcrm_bases()):
        m, _ = inputs.relabel(base, rng)
        path = files.write("m%d" % i, inputs.struct_text(m, rng))
        cmds += [check_cmd(m, path), twist_cmd(m, path), optwist_cmd(m, path)]
        cmds += [pa_cmd(m, path, a) for a in range(m.n)]
    for i, kind in enumerate(inputs.MALFORMED_KINDS):
        text = inputs.malformed(inputs.random_lrg(rng, 3), rng, kind)
        sub = ("check", "twist", "optwist", "pa")[i % 4]
        cmds.append(cli_command("malformed", [sub, files.write("x%d" % i, text)],
                                oracle.expect_usage_error()))
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {"sweep": sweep_pass, "pairs": pairs_pass, "small": small_pass}


# --- running commands --------------------------------------------------

class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setup = []             # seconds, one per fresh process
        self.maxrss_kb = 0
        self.resposet_file = None

    def run(self, cmd, trace=False, spans=None):
        """Run one command in a fresh process and check its verdict.
        Returns the timing record, or None when no verdict came back."""
        spec = dict(cmd.spec, trace=trace, spans=spans)
        argv = [sys.executable, "-I", os.path.join(HERE, "child.py"), SRC,
                json.dumps(spec)]
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter())
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(timeout, 0.1))
        except subprocess.TimeoutExpired:
            return self._fail(cmd, "timeout")
        wall = time.perf_counter() - t0
        try:
            rep = json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])
        except ValueError:
            return self._fail(cmd, "no report, exit %s: %s" % (
                proc.returncode, proc.stderr.strip()[-300:]))
        self.resposet_file = rep["resposet"]
        if rep["crash"]:
            return self._fail(cmd, "crash: " + rep["crash"][-300:])
        self.setup.append(rep["t_ready"] - t0)
        self.maxrss_kb = max(self.maxrss_kb, rep["maxrss_kb"])
        record = {"label": cmd.label, "verdict_s": rep["t2"] - rep["t1"],
                  "wall_s": wall, "trace": rep.get("trace"),
                  "results": rep["results"]}
        if not cmd.verify(rep):
            self._fail(cmd, "wrong verdict: exit %s, output %r" % (
                rep["rc"], (rep["results"] or rep["out"] + rep["err"])))
        return record

    def _fail(self, cmd, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append("%s %s: %s" % (
                cmd.label, " ".join(cmd.spec.get("argv", [])), why[:400]))
        return None


# --- metrics -----------------------------------------------------------

def quantile(values, q):
    """Linear-interpolation quantile of the sorted samples."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n):
    """The highest of p50/p90/p95/p99/p99.9 with at least ten samples
    beyond it, or None."""
    best = None
    for q in (0.5, 0.9, 0.95, 0.99, 0.999):
        if n * (1 - q) >= 10:
            best = q
    return best


def slot_medians(passes, key):
    """Every pass runs the same commands in the same order; each
    command's median over the passes damps the machine's noise."""
    return [statistics.median(p[i][key] for p in passes)
            for i in range(len(passes[0]))]


def end_to_end(runner, passes):
    verdicts = slot_medians(passes, "verdict_s")
    return {
        "setup_s": statistics.median(runner.setup),
        "pass_s": sum(verdicts),
        "cmd_p50_ms": 1000 * statistics.median(verdicts),
        "cmds_per_s": len(verdicts) / sum(slot_medians(passes, "wall_s")),
        "peak_rss_mb": runner.maxrss_kb / 1024,
    }


# Functions that every workload calls: their time is reported per pass.
TIMED = (
    "order.is_distributive", "order.is_pseudo_kleene", "order.is_kleene",
    "residuation.structure", "residuation.condition_holds",
    "residuation.check_condition", "residuation.is_associative",
    "residuation.classify", "twist.full_twist", "twist.build_operator_twist",
    "twist.check_embedding", "twist.check_operator_residuated",
    "twist.twist_operations", "twist.check_twist_lifting",
    "kleene_twist.build_restricted_twist",
    "kleene_twist.check_restriction_assumptions",
    "kleene_twist.check_restricted_closure",
    "kleene_twist.build_restricted_operators",
    "kleene_twist.check_kleene_twist",
)
# Self time where the wrapped function has wrapped children of its own.
SELF_TIMED = ("order.is_kleene", "twist.check_twist_lifting",
              "kleene_twist.check_kleene_twist")
# Functions that only some workloads call: counted, not timed, so that no
# time metric reads zero on the workloads that bypass them.
COUNTED = (
    "order.is_lattice", "order.poset_from_leq", "order.poset_from_covers",
    "residuation.synthesize_residuum", "residuation.check_derived_laws",
    "search.enumerate_posets", "search.residuable_columns",
    "structfile.parse", "structfile.emit_tables", "report.render", "cli.run",
)
COUNTERS = (
    ("residuation.classify", "hits"), ("twist.full_twist", "hits"),
    ("twist.check_operator_residuated", "max_carrier"),
    ("kleene_twist.build_restricted_twist", "carrier_sum"),
    ("structfile.parse", "bytes"), ("structfile.emit_tables", "bytes"),
    ("search.enumerate_posets", "posets"),
    ("search.residuable_columns", "kept"),
    ("search.residuable_columns", "tried"),
    ("search.enumerate_structures.bcrm", "generated"),
) + tuple(("search.enumerate_structures." + k, "count")
          for k in ("rp", "lrg", "crm", "bcrm", "ug", "ui")) + tuple(
    ("search.check_universal." + name, "cases")
    for suite in oracle.SUITES.values() for name, _, _ in suite)
LAYER_SELF = ("order", "residuation", "twist", "kleene_twist")


def pass_profile(records):
    """Merge the span summaries of one pass's processes."""
    merged = {}
    root = verdict = 0.0
    for r in records:
        tr = r["trace"]
        root += tr["root_s"]
        verdict += r["verdict_s"]
        for name, st in tr["functions"].items():
            acc = merged.setdefault(name, {})
            for key, value in st.items():
                if key == "max_carrier":
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
    return merged, root, verdict


def per_layer(untraced, traced):
    """Per-pass medians over the traced passes, and the tracing overhead
    against the untraced run of the same pass."""
    profiles = [pass_profile(p) for p in traced]
    metrics = {}

    def median_of(fn):
        return statistics.median(fn(prof) for prof, _, _ in profiles)

    def stat(name, key):
        return lambda prof: prof.get(name, {}).get(key, 0)

    for name in TIMED:
        metrics[name + ".calls"] = median_of(stat(name, "calls"))
        metrics[name + ".s"] = median_of(stat(name, "s"))
    for name in SELF_TIMED:
        metrics[name + ".self_s"] = median_of(stat(name, "self_s"))
    for name in COUNTED:
        metrics[name + ".calls"] = median_of(stat(name, "calls"))
    for name, key in COUNTERS:
        metrics[name + "." + key] = median_of(stat(name, key))
    for layer in LAYER_SELF:
        metrics[layer + ".self_s"] = median_of(lambda prof: sum(
            st["self_s"] for name, st in prof.items()
            if name.startswith(layer + ".")))
    metrics["trace.coverage"] = statistics.median(
        root / verdict for _, root, verdict in profiles)
    metrics["trace.overhead_pct"] = 100 * statistics.median(
        sum(r["verdict_s"] for r in t) / sum(r["verdict_s"] for r in u) - 1
        for u, t in zip(untraced, traced))
    return metrics, profiles


def spans_consistent(records):
    """Within each process the self times of all spans add up to the
    time of the root spans, and the root spans cover the timed call."""
    for r in records:
        tr = r["trace"]
        total_self = sum(st["self_s"] for st in tr["functions"].values())
        if abs(total_self - tr["root_s"]) > 1e-6 * tr["root_s"] + 1e-7:
            return False
        if not 0.5 * r["verdict_s"] <= tr["root_s"] <= r["verdict_s"]:
            return False
    return True


# --- reporting ---------------------------------------------------------

def machine():
    sha = "unavailable"          # a checkout need not be a git repository
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if got.returncode == 0:
                sha = got.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "resposet"))):
        for f in sorted(files):
            if f.endswith((".py", ".struct")):
                with open(os.path.join(base, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def breakdown(workload, passes):
    """Workload-specific figures for the lines before the result."""
    verdicts = slot_medians(passes, "verdict_s")
    out = {}
    for fam in sorted({r["label"] for r in passes[0]}):
        out[fam + "_s"] = sum(v for r, v in zip(passes[0], verdicts)
                              if r["label"] == fam)
    if workload == "sweep":
        out["sweep_cases_per_s"] = oracle.SWEEP_CASES / sum(verdicts)
        for r in passes[0]:
            for name, _, cases, _ in r["results"]:
                out["check_universal." + name] = {
                    "cases": cases, "s": statistics.median(
                        res[3] for p in passes for q in p
                        for res in q["results"] if res[0] == name)}
    samples = [1000 * r["verdict_s"] for p in passes for r in p]
    q = tail_quantile(len(samples))
    out["cmd_samples"] = len(samples)
    if q is not None:
        out["cmd_p%g_ms" % (100 * q)] = quantile(samples, q)
    return out


def load_metric_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


UNITS = {"setup_s": "s", "pass_s": "s", "cmd_p50_ms": "ms",
         "cmds_per_s": "1/s", "peak_rss_mb": "MB",
         "trace.coverage": "ratio", "trace.overhead_pct": "%"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def select(values, wanted):
    """Exactly the metrics BENCHMARK.json lists, with their units."""
    out = {}
    for m in wanted:
        if m["name"] not in values or m["unit"] != unit_of(m["name"]):
            raise SystemExit("metric %s is not measured in %s"
                             % (m["name"], m["unit"]))
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


# --- main ----------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "resposet", "__init__.py")):
        print("error: no program source at src/resposet; run from the root"
              " of a resposet checkout", file=sys.stderr)
        return 2
    e2e_spec, layer_spec = load_metric_spec()
    start = time.perf_counter()
    runner = Runner(start + DEADLINE_S)
    files = Inputs(args.workload, args.seed)
    spans_dir = os.path.join(OUT, "spans", args.workload)
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    try:
        # Warm-up: byte-compiles the package in a fresh checkout and
        # proves the import resolves to this checkout's src.
        warm = Runner(start + DEADLINE_S)
        warm.run(cli_command("check", ["check", "chain3"],
                             oracle.expect_check(inputs.chain3())))
        if warm.failed or not os.path.realpath(warm.resposet_file).startswith(
                os.path.realpath(SRC) + os.sep):
            print("error: warm-up failed: %s" % (
                warm.failures or ["resposet imported from outside src/"]),
                file=sys.stderr)
            return 2
        passes, traced = [], []
        cmds = WORKLOADS[args.workload](random.Random(args.seed), files)
        t_loop = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            plain = [runner.run(c) for c in cmds]
            if args.trace:
                spans = [os.path.join(spans_dir, "%02d-%s.tsv" % (i, c.label))
                         for i, c in enumerate(cmds)]
                deep = [runner.run(c, trace=True, spans=s)
                        for c, s in zip(cmds, spans)]
            if None in plain or (args.trace and None in deep):
                break           # crash or timeout: the pass is incomplete
            passes.append(plain)
            if args.trace:
                traced.append(deep)
            now = time.perf_counter()
            if now - t_loop + (now - t_pass) > args.seconds:
                break
    finally:
        files.close()

    info = dict(machine(), workload=args.workload, seed=args.seed,
                trace=args.trace, passes=len(passes),
                resposet=warm.resposet_file)
    print("machine " + json.dumps(info))
    for line in runner.failures:
        print("failure " + line)
    correct = runner.failed == 0 and bool(passes)
    metrics = {}
    if passes:
        print("breakdown " + json.dumps(breakdown(args.workload, passes)))
        if args.trace:
            values, profiles = per_layer(passes, traced)
            if not all(spans_consistent(p) for p in traced):
                print("failure span self times do not add up to the pass")
                correct = False
            print("profile " + json.dumps(profiles[-1][0], sort_keys=True))
            metrics = select(values, layer_spec)
        else:
            metrics = select(end_to_end(runner, passes), e2e_spec)
    print("verdict_error_rate %.6f (%d of %d)" % (
        runner.failed / max(runner.attempted, 1), runner.failed,
        runner.attempted))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
