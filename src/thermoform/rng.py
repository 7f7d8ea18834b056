"""Deterministic random streams.

Every stochastic routine takes an integer seed and draws from the stream
that seed names, so a run is reproducible given its seed.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng


def task_rng(seed: int) -> Generator:
    """Generator for the stream of seed."""
    return default_rng(SeedSequence(entropy=int(seed)))


class Columns:
    """Columns c0..c1-1 of the step-major stream rng.random((r, width)).

    random((r, c1 - c0)) equals rng.random((r, width))[:, c0:c1], read from
    rng's state when the stream was made; rng itself does not move (see
    skip). Each row draws its own doubles and jumps over the width - (c1 - c0)
    others with the bit generator's advance, which PCG64 does in O(log n)
    (O'Neill 2014), so a stream costs its own draws and a jump per row.
    """

    def __init__(self, rng: Generator, c0: int, c1: int, width: int):
        parent = rng.bit_generator
        self._bits = type(parent)()
        self._bits.state = parent.state
        self._bits.advance(c0)
        self._draw = Generator(self._bits).random
        self._gap = width - (c1 - c0)

    def random(self, shape: tuple[int, int]) -> np.ndarray:
        out = np.empty(shape)
        for row in out:
            self._draw(out=row)
            self._bits.advance(self._gap)
        return out


def skip(rng: Generator, n: int) -> None:
    """Move rng on by n doubles, to where rng.random(n) would leave it.

    advance drops any 32-bit half-word the bit generator holds back for its
    next 32-bit draw; the cloud folds only draw doubles, so none is held.
    """
    rng.bit_generator.advance(n)
