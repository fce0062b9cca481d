"""Run one command of the benchmark in this fresh interpreter.

Usage: python -I perfbench/child.py <src directory> '<json spec>'

The spec holds either a command line
(`"argv"`, run through `resposet.cli.run`) or a suite of universal
properties (`"suite"`, a list of [name, sizes] run through
`check_universal`).  The clock reading right after `import resposet` lets
the parent split set-up from time to verdict; both processes read the
same monotonic clock.  The last line of stdout is one JSON object.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import resposet.cli  # noqa: E402

t_ready = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_suite(suite):
    from resposet.search import check_universal
    results = []
    for name, sizes in suite:
        t = time.perf_counter()
        r = check_universal(name, tuple(sizes))
        results.append([name, r.ok, r.cases, time.perf_counter() - t])
    return results


def main():
    spec = json.loads(sys.argv[2])
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    report = {"t_ready": t_ready, "resposet": resposet.__file__,
              "rc": None, "crash": None, "results": None}
    t1 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "suite" in spec:
                report["results"] = run_suite(spec["suite"])
                report["rc"] = 0
            else:
                report["rc"] = resposet.cli.run(spec["argv"])
    except SystemExit as e:                  # argparse usage errors
        report["rc"] = e.code
    except Exception:                        # a crash is a wrong verdict
        report["crash"] = traceback.format_exc(limit=-3)
    t2 = time.perf_counter()
    report.update(t1=t1, t2=t2, out=out.getvalue(), err=err.getvalue(),
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        report["trace"] = tracer.summary()
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    sys.stdout.write("\n" + json.dumps(report) + "\n")


main()
