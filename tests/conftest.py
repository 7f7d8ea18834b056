"""Subprocess runs of ``python -m thermoform`` import the package from src/,
like the test process itself (``pythonpath`` in pyproject.toml)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
