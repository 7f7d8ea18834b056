"""The benchmark's tracer wraps names that the package still binds, and its
workloads import nothing, scipy least of all, while they are timed."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist():
    tracing = _tracing()
    names = [(mod, attr) for mod, attr, _ in tracing.TARGETS]
    names += [tuple(name.split(".", 1)) for name in tracing.PEAK_SPANS]
    assert names
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(f"thermoform.{mod}"), attr)]
    assert missing == []


WORKER_IMPORTS = ("jsonschema", "thermoform.beta", "thermoform.cli", "thermoform.dimension",
                  "thermoform.gdms", "thermoform.shifts")

# the worker's set-up imports, then one workload's tiny inputs and tasks; the
# last line is the modules first imported by the tasks and every scipy module
# loaded by then
GUARD = """
import importlib, importlib.util, json, sys, tempfile
from pathlib import Path
for name in sys.argv[3:]:
    importlib.import_module(name)
bench = Path(sys.argv[1])
mods = {}
for name in ("tracing", "workloads"):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", bench / f"{name}.py")
    mods[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mods[name])
workloads, workload = mods["workloads"], sys.argv[2]
make_inputs, make_tasks, _ = workloads.WORKLOADS[workload]
with tempfile.TemporaryDirectory() as tmp:
    tasks = make_tasks(make_inputs(1, workloads.SIZES["tiny"][workload], tmp))
    before = set(sys.modules)
    for _, fn in tasks:
        fn()
    new = sorted(set(sys.modules) - before)
print(json.dumps({"new": new,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


@pytest.mark.parametrize("workload", ["symbolic", "walks", "clouds", "interval"])
def test_workload_tasks_import_nothing_and_no_scipy(workload):
    # a module first imported inside the tasks would be timed as wall_s, not
    # setup_s; scipy is imported only by the tests, as their reference
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, str(TRACING.parent), workload, *WORKER_IMPORTS],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"new": [], "scipy": []}
