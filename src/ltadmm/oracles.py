"""Stacked gradient estimators with evaluation accounting.

A grid point runs R Monte Carlo replicates of N agents, and each (replicate,
agent) pair is one estimator stream: a random generator for its batch draws,
its rows of the stored-gradient table and an evaluation tally.
:class:`Streams` holds all of them stacked, and every estimator moves all
live streams in one array step: it gathers the rows it needs as 1-D (agent,
index) arrays, evaluates them in one ``component_gradients`` call and
reduces them per stream.  Three estimators feed the local-training loop: the
exact local gradient, a mini-batch average, and a variance-reduced estimator
backed by the table.

The table keeps one gradient per data point plus their running sum, so the
correction average is O(1) per step and a memory write never recomputes a
gradient that the estimate just produced.  Agents may hold different numbers
of points m_i: the table has m_max rows per stream, and rows past m_i stay
zero and are never drawn.

Every component-gradient evaluation is tallied per stream; the cost model
converts those tallies into abstract time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .problems import ProblemInstance, component_gradients

__all__ = [
    "EvalCounter",
    "Stream",
    "Streams",
    "draw_batch",
    "exact_estimate",
    "sgd_estimate",
    "saga_refresh",
    "saga_estimate_update",
]

# Largest block of batch indices drawn ahead at once (int64 entries, 16 MB).
_BLOCK_ENTRIES = 1 << 21


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
    replicate-major.  ``live`` holds the stack positions of the replicates
    still running, ascending; the estimators read and write only their rows
    and their arguments stack only them: an iterate argument has shape
    (len(live), N, n).  ``pending`` is the number of with-replacement batch
    draws per stream still to come in the run; it sizes the blocks drawn
    ahead and never changes a value drawn.

    Attributes:
        tally: evaluations of every stream, shape (R, N).
        table: stored component gradients, shape (R, N, m_max, n); None for
            the estimators without a table.
        table_sum: column sums of ``table``, shape (R, N, n).
        diverged: stack position of each replicate that left the finite
            range, with the error that names where it did.
    """

    streams: list[Stream]
    sizes: np.ndarray
    tally: np.ndarray
    table: np.ndarray | None
    table_sum: np.ndarray | None
    live: np.ndarray
    pending: int
    diverged: dict[int, Exception] = field(default_factory=dict)
    _live_streams: list[Stream] = field(init=False, repr=False)
    _block: np.ndarray | None = field(default=None, init=False, repr=False)
    _cursor: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._live_streams = list(self.streams)
        m = self.sizes
        # every (agent, index) component in agent order, and where each agent's run starts
        self._agents = np.repeat(np.arange(len(m)), m)
        self._indices = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
        self._starts = np.cumsum(m) - m

    @classmethod
    def start(
        cls,
        instance: ProblemInstance,
        rngs: list[list[np.random.Generator]],
        with_table: bool,
        pending: int,
    ) -> "Streams":
        """Fresh streams from one generator per (replicate, agent): ``rngs[r][i]``."""
        sizes = instance.sizes
        shape = (len(rngs), len(sizes))
        tally = np.zeros(shape, dtype=np.int64)
        streams = [
            Stream(rng, int(sizes[i]), EvalCounter(tally, r, i))
            for r, row in enumerate(rngs)
            for i, rng in enumerate(row)
        ]
        table = table_sum = None
        if with_table:
            table = np.zeros(shape + (instance.max_points, instance.dimension))
            table_sum = np.zeros(shape + (instance.dimension,))
        return cls(streams, sizes, tally, table, table_sum, np.arange(shape[0]), pending)

    def __iter__(self):
        return iter(self.streams)

    def retire(self, keep: np.ndarray) -> None:
        """Stop the live replicates where ``keep`` (one flag per live replicate) is False."""
        self.live = self.live[keep]
        per_stream = np.repeat(keep, len(self.sizes))
        self._live_streams = [s for s, k in zip(self._live_streams, per_stream) if k]
        if self._block is not None:
            self._block = self._block[keep]

    def charge(self, evals) -> None:
        """Add ``evals`` (a count, or one per agent) to every live stream."""
        self.tally[self.live] += evals


def draw_batch(streams: Streams, batch_size: int, *, replacement: bool = True) -> np.ndarray:
    """One inner step's batch indices of every live stream, shape (L, N, b).

    Each stream draws uniformly from its own m_i points.  With replacement
    the batches come from a block that each stream draws ahead in one
    ``integers`` call, which yields the values of drawing step by step;
    without replacement each stream draws a uniform subset with ``choice``
    (requires ``batch_size <= m_i``).
    """
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    shape = (len(streams.live), len(streams.sizes), batch_size)
    live = streams._live_streams
    if not replacement:
        subsets = [s.rng.choice(s.num_points, batch_size, replace=False) for s in live]
        return np.array(subsets).reshape(shape)
    if streams._block is None or streams._cursor == streams._block.shape[2]:
        cap = max(1, _BLOCK_ENTRIES // (len(live) * batch_size))
        steps = min(max(streams.pending, 1), cap)
        streams.pending = max(streams.pending - steps, 0)
        block = [s.rng.integers(0, s.num_points, size=(steps, batch_size)) for s in live]
        streams._block = np.array(block).reshape(shape[:2] + (steps, batch_size))
        streams._cursor = 0
    batch = streams._block[:, :, streams._cursor]
    streams._cursor += 1
    return batch


def _all_components(streams: Streams, instance: ProblemInstance, x: np.ndarray):
    """Every component gradient of every live stream at its row of ``x``.

    Returns the rows, stream by stream in agent order, and each stream's
    column sum, shape (L, N, n).  Charges m_i evaluations per stream.
    """
    L = len(streams.live)
    rows = component_gradients(
        instance,
        np.tile(streams._agents, L),
        np.tile(streams._indices, L),
        np.repeat(x.reshape(-1, x.shape[-1]), np.tile(streams.sizes, L), axis=0),
    )
    starts = (len(streams._agents) * np.arange(L)[:, None] + streams._starts).ravel()
    sums = np.add.reduceat(rows, starts, axis=0).reshape(x.shape)
    streams.charge(streams.sizes)
    return rows, sums


def exact_estimate(streams: Streams, instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """True local gradients: every stream's component average at its row of ``x``.

    Charges m_i evaluations per stream.
    """
    _, sums = _all_components(streams, instance, x)
    return sums / streams.sizes[:, None]


def _batch_rows(streams: Streams, instance: ProblemInstance, x: np.ndarray, batch: np.ndarray):
    """Component gradients of every stream's batch at its row of ``x``; charges b each."""
    b = batch.shape[-1]
    if b == 0:
        raise ValueError("batch must be non-empty")
    if batch.min() < 0 or (batch >= streams.sizes[:, None]).any():
        raise ValueError("batch contains invalid component indices")
    points = x.reshape(-1, x.shape[-1])
    agents = np.broadcast_to(np.arange(x.shape[1])[:, None], batch.shape).ravel()
    rows = component_gradients(
        instance, agents, batch.ravel(), points if b == 1 else np.repeat(points, b, axis=0)
    )
    streams.charge(b)
    return agents, rows.reshape(batch.shape + x.shape[-1:])


def sgd_estimate(
    streams: Streams, instance: ProblemInstance, x: np.ndarray, batch: np.ndarray
) -> np.ndarray:
    """Mini-batch estimates: each stream's mean of its batch's component gradients.

    ``batch`` has shape (L, N, b); repeated indices count with multiplicity.
    Charges b evaluations per stream.
    """
    _, rows = _batch_rows(streams, instance, x, batch)
    return rows[:, :, 0] if batch.shape[-1] == 1 else rows.mean(axis=2)


def saga_refresh(streams: Streams, instance: ProblemInstance, anchor: np.ndarray) -> None:
    """Recompute every live stream's stored gradients at its row of ``anchor``.

    Charges m_i evaluations per stream.
    """
    rows, sums = _all_components(streams, instance, anchor)
    live = streams.live
    streams.table[live[:, None], streams._agents, streams._indices] = rows.reshape(
        len(live), -1, anchor.shape[-1]
    )
    streams.table_sum[live] = sums


def saga_estimate_update(
    streams: Streams, instance: ProblemInstance, x: np.ndarray, batch: np.ndarray
) -> np.ndarray:
    """Fused estimate-then-store step of every live stream.

    Each stream's variance-reduced estimate at its row of ``x`` is the batch
    mean of (fresh minus stored gradient) plus the table average; the fresh
    gradients are then written back into the table, reusing them instead of
    recomputing, and the running sum moves by each distinct index's change
    once.  Total charge: b evaluations per stream.
    """
    live = streams.live
    agents, fresh = _batch_rows(streams, instance, x, batch)
    replicates = np.repeat(live, batch[0].size)
    indices = batch.ravel()
    stored = streams.table[replicates, agents, indices].reshape(fresh.shape)
    delta = fresh - stored
    sums = streams.table_sum[live]
    average = sums / streams.sizes[:, None]
    if batch.shape[-1] == 1:
        estimate = delta[:, :, 0] + average
        streams.table_sum[live] = sums + delta[:, :, 0]
    else:
        estimate = delta.mean(axis=2) + average
        # sum each distinct index's change once, in ascending index order
        order = np.argsort(batch, axis=-1)
        ordered = np.take_along_axis(batch, order, axis=-1)
        first = np.ones(batch.shape, dtype=bool)
        first[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
        change = np.take_along_axis(delta, order[..., None], axis=2) * first[..., None]
        streams.table_sum[live] = sums + change.sum(axis=2)
    streams.table[replicates, agents, indices] = fresh.reshape(-1, x.shape[-1])
    return estimate
