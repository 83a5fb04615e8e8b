"""Stacked gradient estimators with evaluation accounting.

A grid point runs R Monte Carlo replicates of N agents, and each (replicate,
agent) pair is one estimator stream: a random generator for its batch draws,
its slots of the stored-gradient table and an evaluation tally.
:class:`Streams` holds all of them stacked, and every estimator moves all
streams in one array step: one ``component_gradients`` call evaluates b
components of every stream at its own point of the (R, N, n) stack (b = m_max
for a refresh), the results are reduced per stream, and a batch step reads
and writes its table rows through one array of flat slots; the streams of a
diverged replicate keep drawing and counting with the rest.  The local
training loop uses a table refresh, after which the table average is the
exact local gradient at the refresh point, and two batch estimators: a
mini-batch average and a variance-reduced estimator backed by the table.

The table keeps one gradient per data point plus their running sum, so the
correction average is O(1) per step and a memory write never recomputes a
gradient that the estimate just produced.  A batch of b > 1 moves the sum by
each distinct index's change once, in ascending index order: one flat gather
takes row s * b + argsort(batch) of the (R * N * b, n) changes for stream s,
and only when some batch repeats an index (one drawn without replacement
never does) are the repeats zeroed before the sum.  Agents may hold
different numbers of points m_i: the table has m_max rows per stream, and
rows past m_i are zeroed at each refresh and never drawn.

Each stream draws every batch from a block of steps drawn ahead, which
yields the values of drawing step by step.  With replacement a block is one
``integers`` call of the indices themselves.  Without replacement it is one
``integers`` call of the bounded integers that ``Generator.choice`` draws,
from which the subsets of all streams are rebuilt at once, or, for batches
above ``_FLOYD_MAX_BATCH``, one ``choice`` call per step.  Runs whose draws
fit in one block share its generators and the block, both held by one
:class:`~ltadmm.algorithms.SharedInputs`; a longer run has its own.

Every component-gradient evaluation is tallied per stream; the cost table
(:mod:`ltadmm.metrics`) converts those tallies into abstract time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .problems import ProblemInstance, component_gradients

if TYPE_CHECKING:
    from .algorithms import Divergence, SharedInputs

__all__ = [
    "EvalCounter",
    "Stream",
    "Streams",
    "block_cap",
    "draw_batch",
    "sgd_estimate",
    "saga_refresh",
    "saga_estimate_update",
]

# Largest block of random integers drawn ahead at once (at most 16 MB).
_BLOCK_ENTRIES = 1 << 21
# Largest batch without replacement rebuilt from a block of bounded
# integers; larger ones fill their block by ``choice`` calls.
# ``Generator.choice(m, b, replace=False)`` runs Floyd's algorithm and a
# Fisher-Yates shuffle unless m > 10000 and b > m // 50 (so b > 200), and
# only those can be rebuilt; the rebuild also costs b^2 per draw and passes
# the cost of one ``choice`` call near b = 64.
_FLOYD_MAX_BATCH = 32


class EvalCounter(NamedTuple):
    """Cumulative component-gradient evaluations of one stream.

    A view of entry (replicate, agent) of the stacked tally.
    """

    tally: np.ndarray
    replicate: int
    agent: int

    @property
    def component_gradient_evals(self) -> int:
        return int(self.tally[self.replicate, self.agent])


class Stream(NamedTuple):
    """One (replicate, agent) stream: its generator, its range and its tally."""

    rng: np.random.Generator
    num_points: int
    counter: EvalCounter


@dataclass(eq=False)
class Streams:
    """Estimator state of every (replicate, agent) stream of a grid point.

    Iterating yields the :class:`Stream` of each (replicate, agent),
    replicate-major.  The estimators move every stream, and an iterate
    argument stacks every replicate: shape (R, N, n).  A diverged replicate
    stays in the stack, and its streams keep drawing and counting.
    ``pending`` bounds the number of batch draws per stream still to come
    in the run; it sizes the blocks drawn ahead and never changes a value
    drawn, since a block is a prefix of the draws of a longer one.  With
    ``shared`` set, the streams' generators are its ``rngs`` and their only
    block is its ``block``, which other runs read too; :func:`draw_batch`
    draws nothing past it.

    The table gives each stream m_max consecutive slots: component h of
    stream (r, i) sits at flat slot (r * N + i) * m_max + h of
    ``table.reshape(-1, n)``, which a batch step gathers and scatters in
    one index array.  :func:`saga_refresh` rewrites ``table`` in place
    and binds ``table_sum`` to a freshly computed array.

    Attributes:
        tally: evaluations of every stream, shape (R, N).
        table: stored component gradients, shape (R, N, m_max, n), C-ordered;
            None until the first refresh.
        table_sum: column sums of ``table``, shape (R, N, n).
        diverged: stack position of each replicate that left the finite
            range, with the :class:`~ltadmm.algorithms.Divergence` that
            names where it did.
    """

    streams: list[Stream]
    sizes: np.ndarray
    tally: np.ndarray
    pending: int
    shared: SharedInputs | None = None
    table: np.ndarray | None = None
    table_sum: np.ndarray | None = None
    diverged: dict[int, Divergence] = field(default_factory=dict)
    _block: np.ndarray | None = field(default=None, init=False, repr=False)
    _cursor: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        streams, m_max = self.tally.size, int(self.sizes.max())
        # each stream's first table slot, every index below m_max for each
        # stream, and the padding places past each agent's m_i (None if none)
        self._bases = (m_max * np.arange(streams)).reshape(self.tally.shape + (1,))
        self._every = np.tile(np.arange(m_max), streams)
        padding = np.arange(m_max) >= self.sizes[:, None]
        self._padding = padding if padding.any() else None

    @classmethod
    def start(
        cls,
        instance: ProblemInstance,
        rngs: list[list[np.random.Generator]],
        pending: int,
        shared: SharedInputs | None = None,
    ) -> "Streams":
        """Fresh streams from one generator per (replicate, agent): ``rngs[r][i]``.

        With ``shared``, ``rngs`` is ``shared.rngs``.  The streams hold no
        table; :func:`saga_refresh` creates it.
        """
        sizes = instance.sizes
        tally = np.zeros((len(rngs), len(sizes)), dtype=np.int64)
        points = sizes.tolist()
        streams = [
            Stream(rng, points[i], EvalCounter(tally, r, i))
            for r, row in enumerate(rngs)
            for i, rng in enumerate(row)
        ]
        return cls(streams, sizes, tally, pending, shared)

    def __iter__(self):
        return iter(self.streams)

    def charge(self, evals) -> None:
        """Add ``evals`` (a count, or one per agent) to every stream."""
        self.tally += evals


def _choice_integers(rng: np.random.Generator, m: int, b: int, steps: int) -> np.ndarray:
    """The bounded integers of ``steps`` Floyd ``choice(m, b)`` calls, in one draw.

    Each call draws 2b - 1 of them: Floyd's pass j from [0, m - b + j], then
    the shuffle's pass for position i from [0, i], for i = b - 1 down to 1.
    Shape (steps, 2b - 1).
    """
    highs = np.concatenate([np.arange(m - b + 1, m + 1), np.arange(b, 1, -1)])
    return rng.integers(0, np.broadcast_to(highs, (steps, len(highs))))


def _floyd_subsets(draws: np.ndarray, sizes) -> np.ndarray:
    """The subsets Floyd's ``choice`` builds from its bounded draws, for every row at once.

    ``draws`` (..., 2b - 1) holds the draws of :func:`_choice_integers` and
    ``sizes`` (broadcast to ``draws.shape[:-1]``) the range m of each row;
    the subsets overwrite the first b draws of each row and are returned as
    a view of them.

    Floyd's pass j keeps its draw unless an earlier pass took that value,
    and then takes m - b + j, which no earlier pass can hold; b - 1 swaps
    then shuffle the subset.  Pass j compares with the j values before it,
    so the cost per row grows as b^2.
    """
    b = (draws.shape[-1] + 1) // 2
    flat = draws.reshape(-1, draws.shape[-1])
    offsets = np.broadcast_to(sizes, draws.shape[:-1]).ravel() - b
    subset = flat[:, :b]
    for j in range(1, b):
        taken = (subset[:, :j] == subset[:, j, None]).any(axis=1)
        subset[taken, j] = offsets[taken] + j
    rows = np.arange(len(flat))
    for i in range(b - 1, 0, -1):
        j = flat[:, 2 * b - 1 - i]
        swapped = subset[rows, j]
        subset[rows, j] = subset[:, i]
        subset[:, i] = swapped
    return subset.reshape(draws.shape[:-1] + (b,))


def block_cap(streams: int, batch_size: int, replacement: bool) -> int:
    """Most steps in a block of ``streams`` streams: ``_BLOCK_ENTRIES`` entries, at least one step."""
    entries = batch_size if replacement else 2 * batch_size - 1
    return max(1, _BLOCK_ENTRIES // (streams * entries))


def _draw_block(streams: Streams, batch_size: int, replacement: bool, pending: int) -> np.ndarray:
    """The next block of every stream, shape (R, N, steps, b), for ``pending`` draws to come.

    It holds at most ``_BLOCK_ENTRIES`` entries (2b - 1 a step without
    replacement) and at least one step.  A batch above ``_FLOYD_MAX_BATCH``
    without replacement takes one ``choice`` call per step and stream; each
    stream owns its generator, so these are the values of drawing step by
    step too.
    """
    steps = min(max(pending, 1), block_cap(len(streams.streams), batch_size, replacement))
    entries = batch_size if replacement else 2 * batch_size - 1
    if replacement:
        block = np.array([s.rng.integers(0, s.num_points, size=(steps, batch_size)) for s in streams])
    elif batch_size > _FLOYD_MAX_BATCH:
        block = np.array(
            [[s.rng.choice(s.num_points, batch_size, replace=False) for _ in range(steps)] for s in streams]
        )
    else:
        draws = np.empty((len(streams.streams), steps, entries), dtype=np.int64)
        for row, s in zip(draws, streams):
            row[:] = _choice_integers(s.rng, s.num_points, batch_size, steps)
        block = _floyd_subsets(draws, np.array([s.num_points for s in streams])[:, None])
    return block.reshape(streams.tally.shape + (steps, batch_size))


def draw_batch(streams: Streams, batch_size: int, *, replacement: bool = True) -> np.ndarray:
    """One inner step's batch indices of every stream, shape (R, N, b).

    Each stream draws uniformly from its own m_i points, with replacement or
    as a uniform subset without it (requires ``batch_size <= m_i``).  Every
    step takes the next step of a block that the streams drew ahead
    (:func:`_draw_block`), which yields the values of drawing step by step.
    Streams with ``shared`` read only its ``block``, drawing it if no run
    has yet, and raise ``RuntimeError`` past its end.
    """
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    if streams._block is None or streams._cursor == streams._block.shape[2]:
        if not replacement and batch_size > streams.sizes.min():
            raise ValueError("batch size exceeds an agent's number of points")
        shared = streams.shared
        if shared is None:
            block = _draw_block(streams, batch_size, replacement, streams.pending)
        elif streams._block is None:
            if shared.block is None:
                shared.block = _draw_block(streams, batch_size, replacement, shared.steps)
                shared.block.flags.writeable = False
            block = shared.block
        else:
            raise RuntimeError("the streams have read their whole shared block")
        streams.pending = max(streams.pending - block.shape[2], 0)
        streams._block, streams._cursor = block, 0
    batch = streams._block[:, :, streams._cursor]
    streams._cursor += 1
    return batch


def _batch_rows(streams: Streams, instance: ProblemInstance, x: np.ndarray, batch: np.ndarray):
    """Component gradients of every stream's batch at its row of ``x``; charges b each.

    Where agents hold different numbers of points, every index is checked
    against its stream's m_i here; otherwise ``component_gradients``' check
    against m_max is the whole check.
    """
    if batch.shape[-1] == 0:
        raise ValueError("batch must be non-empty")
    if streams._padding is not None and (batch.min() < 0 or (batch >= streams.sizes[:, None]).any()):
        raise ValueError("batch contains invalid component indices")
    rows = component_gradients(instance, x, batch.ravel())
    streams.charge(batch.shape[-1])
    return rows


def sgd_estimate(
    streams: Streams, instance: ProblemInstance, x: np.ndarray, batch: np.ndarray
) -> np.ndarray:
    """Mini-batch estimates: each stream's mean of its batch's component gradients.

    ``batch`` has shape (R, N, b); repeated indices count with multiplicity.
    Charges b evaluations per stream.
    """
    rows = _batch_rows(streams, instance, x, batch)
    return rows[:, :, 0] if batch.shape[-1] == 1 else rows.mean(axis=2)


def saga_refresh(streams: Streams, instance: ProblemInstance, anchor: np.ndarray) -> None:
    """Recompute every stream's stored gradients at its row of ``anchor``.

    Writes the new rows, shape (R, N, m_max, n), into ``streams.table`` (the
    first refresh creates it), with the padding rows past each m_i set to
    zero, and rebinds ``streams.table_sum`` to their sums, so that
    ``table_sum / sizes`` is each stream's exact local gradient at
    ``anchor``.  Charges m_i evaluations per stream.
    """
    rows = component_gradients(instance, anchor, streams._every, out=streams.table)
    if streams._padding is not None:
        rows[:, streams._padding] = 0.0
    flat = rows.reshape(-1, anchor.shape[-1])
    sums = np.add.reduceat(flat, streams._bases.ravel(), axis=0).reshape(anchor.shape)
    streams.charge(streams.sizes)
    streams.table, streams.table_sum = rows, sums


def saga_estimate_update(
    streams: Streams, instance: ProblemInstance, x: np.ndarray, batch: np.ndarray
) -> np.ndarray:
    """Fused estimate-then-store step of every stream.

    Each stream's variance-reduced estimate at its row of ``x`` is the batch
    mean of (fresh minus stored gradient) plus the table average; the fresh
    gradients are then written back into the table, reusing them instead of
    recomputing, and the running sum moves by each distinct index's change
    once.  Total charge: b evaluations per stream.
    """
    fresh = _batch_rows(streams, instance, x, batch)
    slots = (streams._bases + batch).ravel()
    table = streams.table.reshape(-1, x.shape[-1])
    stored = table[slots].reshape(fresh.shape)
    delta = fresh - stored
    average = streams.table_sum / streams.sizes[:, None]
    if batch.shape[-1] == 1:
        estimate = delta[:, :, 0] + average
        streams.table_sum += delta[:, :, 0]
    else:
        estimate = delta.mean(axis=2) + average
        # sum each distinct index's change once, in ascending index order:
        # one gather of every stream's rows in that order
        order = np.argsort(batch, axis=-1)
        order += batch.shape[-1] * np.arange(streams.tally.size).reshape(streams.tally.shape + (1,))
        ordered = batch.reshape(-1)[order]
        change = delta.reshape(-1, x.shape[-1])[order]
        repeats = ordered[..., 1:] == ordered[..., :-1]
        if repeats.any():  # never without replacement
            change[..., 1:, :] *= ~repeats[..., None]
        streams.table_sum += np.add.reduce(change, axis=2)
    table[slots] = fresh.reshape(-1, x.shape[-1])
    return estimate
