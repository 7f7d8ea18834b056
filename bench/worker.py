"""One iteration of one workload in a fresh interpreter; prints one JSON line.

run.py starts this with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS/OpenMP thread variables already set. Only the standard library is loaded
before the set-up clock starts, so ``setup_s`` is the cold import of the
package (numpy, scipy and jsonschema included) and nothing else.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time


def _versions() -> dict:
    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "blas": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return env


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import jsonschema  # noqa: F401  (every CLI run validates its config with it)
    import thermoform.beta  # noqa: F401
    import thermoform.cli  # noqa: F401
    import thermoform.dimension  # noqa: F401
    import thermoform.gdms  # noqa: F401
    import thermoform.shifts  # noqa: F401
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "env": _versions(),
                          "package": thermoform.__file__}))
        return 0

    import tracing
    import workloads

    make_inputs, make_tasks, make_checks = workloads.WORKLOADS[args.workload]
    inp = make_inputs(args.seed, workloads.SIZES[args.size][args.workload], args.tmp)
    tasks = make_tasks(inp)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    results: dict = {}
    task_s: dict = {}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for name, fn in tasks:
        t = time.perf_counter()
        try:
            results[name] = fn()
        except Exception as exc:  # a failing task is a failed check, not a crash
            results[name] = exc
        task_s[name] = time.perf_counter() - t
    wall_s = time.perf_counter() - start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    checks, reported = make_checks(inp, results)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "task_s": task_s,
        "checks": [c.evaluate(results) for c in checks],
        "reported": reported,
        "digests": workloads.report_digests(results),
        "layers": tracer.summary() if tracer else None,
    }
    if tracer and args.spans_out:
        tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
