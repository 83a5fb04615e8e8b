"""numpy behaviour that a batched redesign of the batch draws relies on.

Drawing a whole run's batches in one ``Generator.integers`` call reproduces
today's per-step draws only if a size-k draw yields the same values as k
draws of size 1 from the same stream state.  ``pyproject.toml`` admits any
numpy from 1.24 on, so a release that changes this must fail here, not as
silently different trajectories.
"""

import numpy as np
import pytest


@pytest.mark.parametrize("m", [7, 40, 100, 2**20])
def test_block_draw_equals_single_draws(m):
    k = 257
    block = np.random.default_rng(np.random.SeedSequence([11, m])).integers(0, m, size=k)
    rng = np.random.default_rng(np.random.SeedSequence([11, m]))
    singles = np.concatenate([rng.integers(0, m, size=1) for _ in range(k)])
    assert np.array_equal(block, singles)


@pytest.mark.parametrize("m", [7, 40, 100, 2**20])
def test_k_by_b_block_equals_row_draws(m):
    steps, batch = 23, 4
    block = np.random.default_rng(np.random.SeedSequence([5, m])).integers(0, m, size=(steps, batch))
    rng = np.random.default_rng(np.random.SeedSequence([5, m]))
    rows = np.stack([rng.integers(0, m, size=batch) for _ in range(steps)])
    assert block.shape == (steps, batch)
    assert np.array_equal(block, rows)
