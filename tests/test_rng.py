"""Seeded streams, and the column streams the cloud folds read from them."""

import numpy as np
import pytest

from thermoform.rng import Columns, skip, task_rng

W, ROWS = 11, 7


def test_task_rng_can_jump_ahead():
    # the column streams jump over the other columns of each row; a bit
    # generator without advance would break every cloud fold
    assert callable(getattr(task_rng(0).bit_generator, "advance", None))


@pytest.mark.parametrize("c0,c1", [(0, W), (4, 5), (8, W)])  # one chunk, one column, a ragged last chunk
def test_columns_read_their_columns_of_the_full_draw(c0, c1):
    rng, ref = task_rng(3), task_rng(3)
    rng.random(5), ref.random(5)  # mid-stream
    start = rng.bit_generator.state
    stream = Columns(rng, c0, c1, W)
    # drawn as the walks draw them, a block of rows at a time
    got = np.concatenate([stream.random((2, c1 - c0)), stream.random((ROWS - 2, c1 - c0))])
    assert rng.bit_generator.state == start  # the stream does not move rng
    assert np.array_equal(got, ref.random((ROWS, W))[:, c0:c1])
    skip(rng, ROWS * W)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random(3).tolist() == ref.random(3).tolist()
