"""thermoform benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload {symbolic,walks,clouds,interval}
                         --seed N --seconds S --trace {0,1}

Run from a source checkout: the package is imported from ``src/`` beside this
directory, never from an installed copy. Each iteration of the workload runs
in a fresh interpreter (``worker.py``) with the BLAS/OpenMP thread variables
set to THREADS; iterations repeat, one after another, while the next one is
expected to end within ``--seconds``. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (medians over iterations). With ``--trace 1``
untraced and traced iterations alternate, and the metrics are the per-layer
ones, medians over the traced iterations; ``trace.overhead_s`` is the traced
minus the untraced median wall time. Lines before the JSON give the machine
record, every check with its tolerance, tails and the numbers reported but
not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("symbolic", "walks", "clouds", "interval")
THREADS = 1  # BLAS/OpenMP threads per worker; must not exceed nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5  # fresh imports per run, so setup_s is a median of at least this
DEADLINE_S = 150.0  # stop starting iterations after this, whatever --seconds says

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_FN_METRICS = {
    "shifts.rpf_eigendata": ("busy_s", "calls", "states", "nnz", "matvecs"),
    "shifts.pressure": ("busy_s", "levels"),
    "shifts.gibbs_measure": ("busy_s",),
    "shifts.gibbs_audit": ("busy_s", "cylinders"),
    "shifts.sample_forward": ("busy_s", "letters"),
    "shifts.summability_report": ("busy_s",),
    "gdms.coding_point": ("busy_s", "calls"),
    "gdms.geometric_potential": ("calls",),
    "dimension.temperature": ("busy_s", "self_s", "calls"),
    "dimension.lyapunov_birkhoff": ("busy_s", "walker_steps", "ns_per_walker_step"),
    "dimension.ChainOrbit": ("busy_s", "peak_mb"),
    "dimension.fiber_cloud": ("busy_s", "peak_mb"),
    "dimension.joint_cloud": ("busy_s", "peak_mb"),
    "dimension.cloud": ("points",),
    "dimension.local_dimension": ("busy_s", "centers_used"),
    "dimension.induced_cell_chain": ("busy_s",),
    "beta.analyze": ("busy_s",),
    "beta.identity_check": ("busy_s", "samples", "max_dev"),
    "cli.main": ("self_s", "calls"),
    **{mod: ("busy_s", "self_s") for mod in MODULES},
}
_UNIT_OF = {"busy_s": "s", "self_s": "s", "peak_mb": "MB", "ns_per_walker_step": "ns",
            "max_dev": "1"}
LAYER_UNITS = {
    f"{fn}.{m}": _UNIT_OF.get(m, "count") for fn, ms in _FN_METRICS.items() for m in ms
}
# accuracy numbers the workloads report: never gated, two of them known defects
LAYER_UNITS.update({
    "shifts.pressure.abs_err": "nat",
    "shifts.rpf_eigendata.abs_err": "nat",
    "dimension.hd_limit_set.e2_m8.abs_err": "1",
    "dimension.hd_limit_set.e2_m10.abs_err": "1",
    "dimension.hd_limit_set.gauss60.t": "1",
    "cli.report_bytes": "B",
    "process.cpu_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
})
KNOWN_DEFECTS = {
    "shifts.pressure.abs_err": "level sums extrapolated by Aitken on levels that converge like C/n",
    "dimension.hd_limit_set.gauss60.t": "memory-2 root for gauss_cf at N=60 lies above the ambient dimension 1",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit() -> str:
    # read .git directly: the checkout may not be a repository, and a git
    # subprocess would search parent directories outside it
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def _worker(args, tmp: str, *, traced: bool = False, setup_only: bool = False,
            spans_out: str | None = None, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--tmp", tmp,
           "--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=str(ROOT), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.perf_counter() - t0
    return out


def _tail(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail: needs >= 11 samples, have {n}"
    j = n - 11
    return f"p{100.0 * (j + 1) / n:.0f} {sorted(values)[j]:.6g} (10 samples beyond)"


def _median_of(dicts: list, key: str) -> float:
    return statistics.median(d.get(key, 0.0) for d in dicts)


def measure(args) -> dict:
    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=str(ROOT))
    spans_out = None
    if args.trace:
        out_dir = ROOT / ".bench-out"
        out_dir.mkdir(exist_ok=True)
        spans_out = str(out_dir / f"spans-{args.workload}.jsonl")
    try:
        probe = _worker(args, tmp, setup_only=True, timeout=60)
        if not Path(probe["package"]).resolve().is_relative_to(ROOT / "src"):
            raise HarnessError(f"thermoform imported from {probe['package']}, not {ROOT / 'src'}")
        setups = [probe["setup_s"]]
        iters: list = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(iters) % 2 == 1
            elapsed = time.perf_counter() - start
            it = _worker(args, tmp, traced=traced, spans_out=spans_out if traced else None,
                         timeout=170 - elapsed)
            it["traced"] = traced
            iters.append(it)
            setups.append(it["setup_s"])
            elapsed = time.perf_counter() - start
            need = 2 if args.trace else 1
            typical = statistics.median(i["elapsed_s"] for i in iters)
            if len(iters) >= need and (elapsed + typical > args.seconds or elapsed > DEADLINE_S):
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(_worker(args, tmp, setup_only=True, timeout=60)["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"env": probe["env"], "setups": setups, "iters": iters}


def summarize(args, run: dict) -> dict:
    iters, setups = run["iters"], run["setups"]
    plain = [i for i in iters if not i["traced"]]
    traced = [i for i in iters if i["traced"]]
    # byte identity of --stable reports across every iteration of this seed
    digests: dict = {}
    for i in iters:
        for task, d in i["digests"].items():
            digests.setdefault(task, []).append(d["sha256"])
    determinism = [
        [f"determinism.{task}", len(set(shas)) == 1,
         f"{len(shas)} --stable reports, {len(set(shas))} distinct sha256"]
        for task, shas in digests.items() if len(shas) >= 2
    ]
    checks = [c for i in iters for c in i["checks"]] + determinism
    failed = [c for c in checks if not c[1]]
    lines = [f"check {'ok' if ok else 'FAIL'} {name}: {detail}"
             for name, ok, detail in iters[0]["checks"] + determinism]
    lines += [f"failed {name}: {detail}" for name, _, detail in failed]

    walls = [i["wall_s"] for i in plain]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _median_of(plain, "peak_rss_mb"),
    }
    lines.append(f"wall_s {e2e['wall_s']:.6g} s  median of {len(walls)} untraced "
                 f"iterations, closed loop, 1 client; {_tail(walls)}")
    lines.append("samples wall_s " + " ".join(f"{w:.4f}" for w in walls))
    if traced:
        lines.append("samples traced wall_s " + " ".join(f"{i['wall_s']:.4f}" for i in traced))
    lines.append(f"setup_s {e2e['setup_s']:.6g} s  median of {len(setups)} cold imports; "
                 f"{_tail(setups)}")
    lines.append(f"peak_rss_mb {e2e['peak_rss_mb']:.6g} MB  median of {len(plain)} "
                 f"worker processes (ru_maxrss)")
    lines.append(f"fail_frac {len(failed)}/{len(checks)} ratio  "
                 f"(= {len(failed) / len(checks):.4g}) failed checks over checks attempted")
    for task in iters[0]["task_s"]:
        lines.append(f"task {task} {_median_of([i['task_s'] for i in plain], task):.4g} s median")

    reported = {}
    for key in {k for i in iters for k in i["reported"]}:
        reported[key] = _median_of([i["reported"] for i in iters], key)
        note = f"  known defect, not gated: {KNOWN_DEFECTS[key]}" if key in KNOWN_DEFECTS else ""
        lines.append(f"reported {key} {reported[key]:.6g} {LAYER_UNITS[key]}{note}")

    if args.trace:
        layer_keys = LAYER_UNITS.keys() - reported.keys()
        metrics = {k: _median_of([i["layers"] for i in traced], k) for k in layer_keys}
        metrics.update(reported)
        metrics["cli.report_bytes"] = statistics.median(
            sum(d["bytes"] for d in i["digests"].values()) for i in iters)
        metrics["process.cpu_s"] = _median_of(plain, "cpu_s")
        traced_wall = statistics.median(i["wall_s"] for i in traced)
        metrics["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        for mod in MODULES:
            share = metrics[f"{mod}.busy_s"] / traced_wall
            lines.append(f"layer share {mod} {share:.1%} of traced wall_s {traced_wall:.4g} s")
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS
    return {
        "lines": lines,
        "result": {
            "correct": not failed,
            "attempted": len(checks),
            "failed": len(failed),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the self-test; never for measurement")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # subprocess.run reaps the worker

    if not (ROOT / "src" / "thermoform" / "__init__.py").is_file():
        print(f"bench: no thermoform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = _nproc()
    if THREADS > nproc:
        print(f"bench: THREADS={THREADS} exceeds nproc={nproc}", file=sys.stderr)
        return 2
    try:
        run = measure(args)
        summary = summarize(args, run)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    record = {**run["env"], "nproc": nproc, "threads": THREADS,
              "thread_vars": list(THREAD_VARS), "commit": _git_commit(),
              "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size}
    print("machine " + json.dumps(record, sort_keys=True))
    for line in summary["lines"]:
        print(line)
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
