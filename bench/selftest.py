"""Smoke test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload once untraced and once traced with ``--size tiny`` and
asserts that the result line carries every metric BENCHMARK.json names, with
its unit, and that every answer check passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in wanted.items():
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                                  timeout=180)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fails = [ln for ln in proc.stdout.splitlines() if ln.startswith("failed ")]
                problems.append(f"{tag}: {result['failed']}/{result['attempted']} failed: {fails}")
            got = result["metrics"]
            if set(got) != {m["name"] for m in metrics}:
                problems.append(f"{tag}: metric names differ: "
                                f"{sorted(set(got) ^ {m['name'] for m in metrics})}")
            for m in metrics:
                entry = got.get(m["name"], {})
                if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{tag}: {m['name']} emitted as {entry}, wants unit {m['unit']}")
            print(f"{tag}: {len(got)} metrics, {result['failed']}/{result['attempted']} failed")
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
