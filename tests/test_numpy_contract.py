"""numpy behaviour that drawing a run's batches ahead, in blocks, relies on.

With replacement, one ``Generator.integers`` call for a whole block yields
the values of the per-step draws only if a size-k draw equals k draws of
size 1 from the same stream state.  Without replacement, the block rebuilds
``choice``: where numpy runs Floyd's algorithm and a Fisher-Yates shuffle,
one ``integers`` call (``oracles._choice_integers``) consumes the stream
exactly as the per-step ``choice`` calls do, and
``oracles._floyd_subsets`` turns those integers into the same subsets.
The simulator seeds its generators without building a ``SeedSequence``
per stream: ``algorithms._seeded_generators`` runs SeedSequence's hash over
all rows at once and hands each ``PCG64`` its finished state words, which
must give the state of ``default_rng(SeedSequence([seed, *row]))``.
``pyproject.toml`` admits any numpy from 1.24 on, so a release that changes
any of these must fail here, not as silently different trajectories.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltadmm.algorithms import _seeded_generators
from ltadmm.oracles import _FLOYD_MAX_BATCH, _choice_integers, _floyd_subsets

WORD = st.integers(0, 2**32 - 1)
# S rows of k one-word entries, k from 1 to 3, S = 1 included
SEED_ROWS = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(WORD, min_size=k, max_size=k), min_size=1, max_size=4)
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**96 - 1), rows=SEED_ROWS)
@example(seed=0, rows=[[0]])
@example(seed=2**32, rows=[[5, 0], [0, 1]])
@example(seed=2**64, rows=[[2**32 - 1, 7, 1]])
def test_vectorized_seeding_equals_seed_sequence(seed, rows):
    generators = _seeded_generators(seed, np.array(rows, dtype=np.int64))
    assert len(generators) == len(rows)
    for rng, row in zip(generators, rows):
        reference = np.random.default_rng(np.random.SeedSequence([seed, *row]))
        assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("entry", [2**32, 2**40, -1])
def test_vectorized_seeding_rejects_an_entry_that_is_not_one_word(entry):
    with pytest.raises(ValueError):
        _seeded_generators(3, np.array([[0, 1], [entry, 2]], dtype=np.int64))


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


def rebuilt_choices(rng: np.random.Generator, m: int, b: int, steps: int) -> np.ndarray:
    return _floyd_subsets(_choice_integers(rng, m, b, steps), m)


def runs_floyd(m: int, b: int) -> bool:
    """numpy shuffles the tail of range(m) instead for m > 10000 and b > m // 50."""
    return m <= 10000 or b <= m // 50


FLOYD_CASES = [
    (m, b)
    for m in (7, 40, 100, 10000, 20000, 2**20)
    for b in (1, 2, 8, _FLOYD_MAX_BATCH, m)
    if b <= m and runs_floyd(m, b)
]


@pytest.mark.parametrize("m, b", FLOYD_CASES)
def test_rebuilt_subsets_equal_choice(m, b):
    steps = 1 if b >= 1000 else 37
    seed = np.random.SeedSequence([3, m, b])
    per_step = np.random.default_rng(seed)
    choices = np.stack([per_step.choice(m, b, replace=False) for _ in range(steps)])
    block = np.random.default_rng(seed)
    assert np.array_equal(rebuilt_choices(block, m, b, steps), choices)
    assert block.bit_generator.state == per_step.bit_generator.state


@pytest.mark.parametrize("b", [400, 401])
def test_rebuild_ends_where_choice_leaves_floyd(b):
    m = 20000
    seed = np.random.SeedSequence([9, b])
    choices = np.random.default_rng(seed).choice(m, b, replace=False)
    rebuilt = rebuilt_choices(np.random.default_rng(seed), m, b, 1)[0]
    assert np.array_equal(rebuilt, choices) is runs_floyd(m, b)


def test_blocks_stay_in_the_floyd_regime():
    # every m > 10000 admits b up to m // 50 >= 200
    assert all(runs_floyd(m, _FLOYD_MAX_BATCH) for m in (10001, 20000, 2**20))
