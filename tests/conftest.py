"""Subprocess runs of ``python -m thermoform`` import the package from src/,
like the test process itself (``pythonpath`` in pyproject.toml)."""

import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def no_scipy(monkeypatch):
    """Make every import of scipy fail, of a scipy module already loaded too."""
    for name in [n for n in sys.modules if n.split(".")[0] == "scipy"] + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
