"""Deterministic random streams.

Every stochastic routine takes an integer seed and draws from the stream
that seed names, so a run is reproducible given its seed.
"""

from __future__ import annotations

import numpy as np


def task_rng(seed: int) -> np.random.Generator:
    """Generator for the stream of seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
