"""Deterministic random streams.

Every stochastic routine takes an integer seed and draws from the stream
that seed names, so a run is reproducible given its seed.
"""

from __future__ import annotations

from numpy.random import Generator, SeedSequence, default_rng


def task_rng(seed: int) -> Generator:
    """Generator for the stream of seed."""
    return default_rng(SeedSequence(entropy=int(seed)))
