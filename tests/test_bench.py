"""The benchmark's tracer wraps names that the package still binds."""

import importlib
import importlib.util
from pathlib import Path

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
