"""Stacked gradient estimators with evaluation accounting.

A grid point runs R Monte Carlo replicates of N agents, and each (replicate,
agent) pair is one estimator stream: a random generator for its batch draws,
its slots of the stored-gradient table and an evaluation tally.
:class:`Streams` holds all of them stacked, and every estimator moves all
streams in one array step: one ``component_gradients`` call evaluates b
components of every stream at its own point of the (R, N, n) stack, the
results are reduced per stream, and a batch step reads and writes its table
rows through one array of flat slots: one ``take`` of the stored rows and
one ``put`` of the fresh ones through a view that holds each n-float row as
one element.  The constants a step reads are built once per run in the
shape of the arrays they meet: that row type, each stream's first table
slot in a batch's shape (R, N, b), the sizes m_i as floats in the
iterates' shape (R, N, n), the table average's divisor, and as an (R, N)
count, a refresh's charge, so that a step's arithmetic with them reads
operands of one shape, C-ordered, which numpy runs in one inner loop.  The
streams of a diverged replicate keep drawing and counting with the rest.
The local training loop uses a table refresh, after which the table
average is the exact local gradient at the refresh point, and two batch
estimators: a mini-batch average and a variance-reduced estimator backed
by the table.

Every refresh step takes each stream's exact local gradient from one
``component_gradients(..., mean=True)`` call over all m_max indices of
every stream: two matrix products over its own agent's rows, with no
(R, N, m_max, n) rows.  Streams of a run that draws no batch keep no table,
and that mean is their whole refresh step (:func:`exact_estimate`).
:func:`saga_refresh` sets the table's running sum to m_i times that mean
and writes table rows by the kernel's row form, after checking their
indices itself: every row, or, given the indices that the batches before
the next refresh will read (:func:`upcoming`), only theirs.  After such a
read-ahead refresh only those rows are current; the others keep older
gradients, which no batch reads before a refresh writes them again.

The table keeps one gradient per data point plus their running sum, so the
correction average is O(1) per step and a memory write never recomputes a
gradient that the estimate just produced.  A batch of b > 1 drawn without
replacement repeats no index, so the sum moves by the batch's summed change,
in batch order, the same sum the estimate reads.  A batch drawn with
replacement moves the sum by each distinct index's change once, in ascending
index order: one flat gather takes row s * b + argsort(batch) of the
(R * N * b, n) changes for stream s, and only when some batch repeats an
index are the repeats zeroed before the sum.  Every batch sum adds each
stream's b rows one after another, by one ``einsum`` for n > 1, with the
bits of ``np.add.reduce`` over the batch axis.  Agents may hold
different numbers of points m_i: the table has m_max rows per stream, and
rows past m_i are zeroed at each every-row refresh and never drawn.

Each stream draws every batch, in the batch size and sampling mode fixed
for the run when :func:`ltadmm.algorithms.init_states` builds the streams,
from a block of steps drawn ahead, which yields the values of drawing step
by step.  A block is step-major, shape (steps, R, N, b), so each step's
batch is one C-ordered (R, N, b) view of it.  With replacement a block is
one ``integers`` call of the indices themselves.  Without replacement it is
one ``integers`` call of the bounded integers that ``Generator.choice``
draws, from which the subsets of all streams are rebuilt at once, or, for
batches above ``_FLOYD_MAX_BATCH``, one ``choice`` call per step.  Streams hold either generators of their own or a
read-only block drawn for them, which the runs of one random key read alike.

Every component-gradient evaluation is tallied per stream; the cost table
(:mod:`ltadmm.metrics`) converts those tallies into abstract time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .problems import ProblemInstance, _check_range, _component_rows, component_gradients

if TYPE_CHECKING:
    from .algorithms import Divergence

__all__ = [
    "EvalCounter",
    "Stream",
    "Streams",
    "block_cap",
    "draw_block",
    "draw_batch",
    "sgd_estimate",
    "exact_estimate",
    "upcoming",
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
    """One (replicate, agent) stream: its generator (None if it holds none), its range and its tally."""

    rng: np.random.Generator | None
    num_points: int
    counter: EvalCounter


@dataclass(eq=False)
class Streams:
    """Estimator state of every (replicate, agent) stream of a grid point.

    Iterating yields a :class:`Stream` view of each (replicate, agent),
    replicate-major.  The estimators move every stream, and an iterate
    argument stacks every replicate: shape (R, N, n).  A diverged replicate
    stays in the stack, and its streams keep drawing and counting.  Every
    batch holds ``batch_size`` indices (fewer than 1 raise ``ValueError``),
    drawn with replacement if ``replacement``.  The streams hold either
    generators of their own, ``rngs[r * N + i]`` for stream (r, i), or a
    read-only ``block`` that other runs may read too.  With generators,
    :func:`draw_batch` draws a block whenever the last is read; ``pending``
    bounds the batch draws per stream still to come in the run, which sizes
    those blocks and never changes a value drawn, since a block is a prefix
    of the draws of a longer one.

    ``block`` is step-major, shape (steps, R, N, b) and C-ordered:
    :func:`draw_batch` hands out ``block[t]``, a contiguous view, and a
    shared block is read in place, never copied.

    The table gives each stream m_max consecutive slots: component h of
    stream (r, i) sits at flat slot (r * N + i) * m_max + h of
    ``table.reshape(-1, n)``, which a batch step gathers and scatters in
    one index array.  :func:`saga_refresh` rewrites ``table`` in place
    and binds ``table_sum`` to a freshly computed array.  The streams build
    once what every step reads, each in the shape of the arrays it meets:
    ``_bases``, each stream's first slot (r * N + i) * m_max repeated to a
    batch's shape (R, N, b); ``_charges``, the sizes m_i as an (R, N) count
    that a refresh charges; and, on first use, ``divisors``.

    Attributes:
        divisors: the sizes m_i as floats in ``table_sum``'s shape (R, N, n),
            the table average's divisor, built on first use.
        tally: evaluations of every stream, shape (R, N).
        keeps_table: whether a refresh step recomputes the table
            (:func:`saga_refresh`) or only each stream's mean
            (:func:`exact_estimate`); :func:`ltadmm.algorithms.init_states`
            sets it False for a run that draws no batch.
        table: stored component gradients, shape (R, N, m_max, n), C-ordered;
            None until the first refresh, and for the whole run of streams
            that keep no table.  After a read-ahead refresh only the rows
            its read indices name are current.
        table_sum: each stream's running sum of its m_i current stored
            gradients, shape (R, N, n): a refresh sets it to m_i times the
            exact local gradient, and each batch step moves it by the
            changes of the rows it writes.
        diverged: stack position of each replicate that left the finite
            range, with the :class:`~ltadmm.algorithms.Divergence` that
            names where it did.
    """

    rngs: list[np.random.Generator]
    sizes: np.ndarray
    tally: np.ndarray
    batch_size: int
    replacement: bool
    pending: int
    block: np.ndarray | None = None
    keeps_table: bool = True
    table: np.ndarray | None = None
    table_sum: np.ndarray | None = None
    diverged: dict[int, Divergence] = field(default_factory=dict)
    _cursor: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        shape, m_max = self.tally.shape, int(self.sizes.max())
        self._m_max = m_max
        # each stream's first table slot in a batch's shape, every index below
        # m_max for each stream, the padding places past each agent's m_i
        # (None if none) and each stream's m_i, a refresh's charge
        firsts = (m_max * np.arange(self.tally.size)).reshape(shape + (1,))
        self._bases = np.repeat(firsts, self.batch_size, axis=-1)
        self._every = np.tile(np.arange(m_max), self.tally.size)
        padding = np.arange(m_max) >= self.sizes[:, None]
        self._padding = padding if padding.any() else None
        self._charges = np.broadcast_to(self.sizes, shape).astype(self.tally.dtype, order="C")

    @cached_property
    def divisors(self) -> np.ndarray:
        return np.broadcast_to(self.sizes[:, None], self.table_sum.shape).astype(float, order="C")

    @cached_property
    def _row(self) -> np.dtype:  # one n-float table row as one element, for a batch step's put
        return np.dtype((np.void, self.table.shape[-1] * self.table.itemsize))

    def __iter__(self):
        N, points = len(self.sizes), self.sizes.tolist()
        tally, rngs = self.tally, self.rngs or [None] * self.tally.size
        return (Stream(rng, points[j % N], EvalCounter(tally, *divmod(j, N))) for j, rng in enumerate(rngs))

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
    so the cost per row grows as b^2; a pass compares one column at a time
    into reused buffers.  The swaps move entries of the flat draws by
    ``take`` and ``put``.
    """
    width = draws.shape[-1]
    b = (width + 1) // 2
    flat = draws.reshape(-1, width)
    offsets = np.broadcast_to(sizes, draws.shape[:-1]).ravel() - b
    subset = flat[:, :b]
    taken, hit = np.empty(len(flat), dtype=bool), np.empty(len(flat), dtype=bool)
    for j in range(1, b):
        value = subset[:, j]
        np.equal(subset[:, 0], value, out=taken)
        for i in range(1, j):
            np.equal(subset[:, i], value, out=hit)
            taken |= hit
        np.copyto(value, offsets + j, where=taken)
    every = flat.reshape(-1)
    starts = np.arange(0, every.size, width)
    for i in range(b - 1, 0, -1):
        places = starts + flat[:, 2 * b - 1 - i]
        swapped = every.take(places)
        every.put(places, subset[:, i])
        subset[:, i] = swapped
    return subset.reshape(draws.shape[:-1] + (b,))


def block_cap(streams: int, batch_size: int, replacement: bool) -> int:
    """Most steps in a block of ``streams`` streams: ``_BLOCK_ENTRIES`` entries, at least one step."""
    entries = batch_size if replacement else 2 * batch_size - 1
    return max(1, _BLOCK_ENTRIES // (streams * entries))


def draw_block(
    rngs: list[np.random.Generator], sizes: np.ndarray, batch_size: int, replacement: bool, steps: int
) -> np.ndarray:
    """``steps`` batches of every stream, step-major: shape (steps, R, N, b), C-ordered.

    ``rngs[r * N + i]`` draws stream (r, i)'s from its ``sizes[i]`` points,
    with replacement or as uniform subsets without it (requires
    ``batch_size <= min(sizes)``): the values of drawing step by step.
    Each stream's draws are written straight into its place of the block.
    Above ``_FLOYD_MAX_BATCH`` without replacement, a step is one ``choice``.
    """
    if not replacement and batch_size > sizes.min():
        raise ValueError("batch size exceeds an agent's number of points")
    points = sizes.tolist() * (len(rngs) // len(sizes))
    if replacement or batch_size > _FLOYD_MAX_BATCH:
        block = np.empty((steps, len(rngs), batch_size), dtype=np.int64)
        for j, (rng, m) in enumerate(zip(rngs, points)):
            if replacement:
                block[:, j] = rng.integers(0, m, size=(steps, batch_size))
            else:
                for t in range(steps):
                    block[t, j] = rng.choice(m, batch_size, replace=False)
    else:
        draws = np.empty((steps, len(rngs), 2 * batch_size - 1), dtype=np.int64)
        for j, (rng, m) in enumerate(zip(rngs, points)):
            draws[:, j] = _choice_integers(rng, m, batch_size, steps)
        block = np.ascontiguousarray(_floyd_subsets(draws, np.array(points)))
    return block.reshape(steps, -1, len(sizes), batch_size)


def draw_batch(streams: Streams) -> np.ndarray:
    """One inner step's batch indices of every stream, shape (R, N, b).

    Every step takes the next step of ``streams.block``: a C-ordered view of
    the step-major block, never a copy.  Streams with
    generators draw their next block (:func:`draw_block`), in their batch
    size and sampling mode, when they have read the last, at most
    ``_BLOCK_ENTRIES`` entries and at least one step; streams without raise
    ``RuntimeError`` past the end of theirs.
    """
    if streams.block is None or streams._cursor == streams.block.shape[0]:
        if not streams.rngs:
            raise RuntimeError("streams without generators have read their whole block")
        b, replacement = streams.batch_size, streams.replacement
        steps = min(max(streams.pending, 1), block_cap(len(streams.rngs), b, replacement))
        streams.block = draw_block(streams.rngs, streams.sizes, b, replacement, steps)
        streams.pending = max(streams.pending - steps, 0)
        streams._cursor = 0
    batch = streams.block[streams._cursor]
    streams._cursor += 1
    return batch


def _check_sizes(streams: Streams, batch: np.ndarray) -> None:
    """Where the m_i differ, raise ``ValueError`` unless each index of ``batch`` is in [0, m_i) of its stream."""
    if streams._padding is not None and (batch.min() < 0 or (batch >= streams.sizes[:, None]).any()):
        raise ValueError("batch contains invalid component indices")


def _batch_rows(streams: Streams, instance: ProblemInstance, x: np.ndarray, batch: np.ndarray):
    """Component gradients of every stream's batch at its row of ``x``; charges b each.

    Where agents hold different numbers of points, every index is checked
    against its stream's m_i here; otherwise ``component_gradients``' check
    against m_max is the whole check.
    """
    if batch.shape[-1] == 0:
        raise ValueError("batch must be non-empty")
    _check_sizes(streams, batch)
    rows = component_gradients(instance, x, batch.ravel())
    streams.charge(batch.shape[-1])
    return rows


def _batch_sum(rows: np.ndarray) -> np.ndarray:
    """Each stream's sum of its b rows of ``rows`` (R, N, b, n).

    The bits are those of ``np.add.reduce(rows, axis=2)``.  For n > 1 both
    add the rows one after another from the first, and ``einsum`` does it
    in fewer passes; for n = 1 the batch axis is the contiguous one, which
    ``np.add.reduce`` sums pairwise and ``einsum`` would not.
    """
    if rows.shape[-1] == 1:
        return np.add.reduce(rows, axis=2)
    return np.einsum("rnbj->rnj", rows)


def sgd_estimate(
    streams: Streams, instance: ProblemInstance, x: np.ndarray, batch: np.ndarray
) -> np.ndarray:
    """Mini-batch estimates: each stream's mean of its batch's component gradients.

    ``batch`` has shape (R, N, b); repeated indices count with multiplicity.
    Charges b evaluations per stream.
    """
    rows = _batch_rows(streams, instance, x, batch)
    b = batch.shape[-1]
    return rows[:, :, 0] if b == 1 else _batch_sum(rows) / b


def exact_estimate(streams: Streams, instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Every stream's exact local gradient at its row of ``x``, with no table.

    The refresh step of streams that keep no table: one
    ``component_gradients`` call over every index below m_max of every
    stream, reduced to each stream's mean over its m_i rows.  Charges m_i
    evaluations per stream, as a refresh does.
    """
    G = component_gradients(instance, x, streams._every, mean=True)
    streams.charge(streams._charges)
    return G


def upcoming(streams: Streams, steps: int) -> np.ndarray | None:
    """The next ``steps`` batches of every stream, without drawing them: shape (R, N, steps * b).

    They are read from ``streams.block`` at the place the next
    :func:`draw_batch` reads, and that place does not move: stream (r, i)
    lists the b indices of each of those batches in turn.  None when
    they are not all in the current block (there is none yet, or it ends
    before them), since the block after it is drawn only when it is needed.
    """
    block, start = streams.block, streams._cursor
    if block is None or start + steps > block.shape[0]:
        return None
    return block[start : start + steps].transpose(1, 2, 0, 3).reshape(block.shape[1:3] + (-1,))


def saga_refresh(
    streams: Streams, instance: ProblemInstance, anchor: np.ndarray, reads: np.ndarray | None = None
) -> None:
    """Refresh every stream's table at its row of ``anchor``.

    Rebinds ``streams.table_sum`` to m_i times each stream's exact local
    gradient at ``anchor``, from one ``component_gradients(..., mean=True)``
    call, so that ``table_sum / divisors`` is that gradient again up to
    rounding.  Charges m_i evaluations per stream.

    ``reads`` (R, N, k), when given, names every index the batches read
    from the table before the next refresh (:func:`upcoming`), and only
    their slots are written: after the refresh those rows hold the
    gradients at ``anchor`` and every other row keeps what it held (the
    first refresh creates the table with zeros there).  Any index outside
    [0, m_i) of its stream raises ``ValueError`` before anything is written.
    Without ``reads``, or with at least m_max of them per stream, every
    row is written, shape (R, N, m_max, n), with the padding rows past
    each m_i set to zero.  A written row has the bits of the same
    component's ``component_gradients`` row at ``anchor``.
    """
    if reads is not None and reads.shape[-1] >= streams._m_max:
        reads = None
    if reads is not None and reads.size:
        _check_sizes(streams, reads)
        _check_range(instance, reads)  # the row kernel gathers with mode="clip"
    sums = component_gradients(instance, anchor, streams._every, mean=True)
    if reads is None:
        rows = _component_rows(instance, anchor, streams._every, out=streams.table)
        if streams._padding is not None:
            rows[:, streams._padding] = 0.0
        streams.table = rows
    else:
        if streams.table is None:
            streams.table = np.zeros(streams.tally.shape + (streams._m_max, anchor.shape[-1]))
        rows = _component_rows(instance, anchor, reads.ravel())
        streams.table.view(streams._row).put(streams._bases[..., :1] + reads, rows.view(streams._row))
    streams.charge(streams._charges)
    streams.table_sum = sums
    sums *= streams.divisors  # built in table_sum's shape on first use


def saga_estimate_update(
    streams: Streams, instance: ProblemInstance, x: np.ndarray, batch: np.ndarray
) -> np.ndarray:
    """Fused estimate-then-store step of every stream.

    Each stream's variance-reduced estimate at its row of ``x`` is the batch
    mean of (fresh minus stored gradient) plus the table average; the fresh
    gradients are then written back into the table, reusing them instead of
    recomputing, and the running sum moves by each distinct index's change
    once: for batches of b > 1 drawn without replacement
    (``streams.replacement`` False), which repeat no index, by the batch's
    summed change in batch order, the sum the estimate reads; with
    replacement, by the distinct indices' changes in ascending index order.
    Total charge: b evaluations per stream.  Streams without a table
    (no :func:`saga_refresh` yet) raise ``RuntimeError`` once the batch is
    checked and charged.
    """
    fresh = _batch_rows(streams, instance, x, batch)
    if streams.table is None:
        raise RuntimeError("saga_estimate_update needs a gradient table: call saga_refresh first")
    b, n = batch.shape[-1], x.shape[-1]
    slots = streams._bases + batch
    delta = fresh - streams.table.reshape(-1, n).take(slots, axis=0)
    average = streams.table_sum / streams.divisors
    if b == 1:
        estimate = delta.reshape(x.shape)
        streams.table_sum += estimate
        estimate += average
    elif not streams.replacement:
        # a batch drawn without replacement repeats no index, so its summed
        # change, in batch order, is the table's change
        summed = _batch_sum(delta)
        estimate = summed / b + average
        streams.table_sum += summed
    else:
        estimate = _batch_sum(delta) / b + average
        # sum each distinct index's change once, in ascending index order:
        # one gather of every stream's rows in that order
        order = np.argsort(batch, axis=-1)
        order += b * np.arange(streams.tally.size).reshape(streams.tally.shape + (1,))
        ordered = batch.take(order)
        change = delta.reshape(-1, n).take(order, axis=0)
        repeats = ordered[..., 1:] == ordered[..., :-1]
        if repeats.any():
            change[..., 1:, :] *= ~repeats[..., None]
        streams.table_sum += _batch_sum(change)
    # one put of whole rows through a view with one n-float element per row;
    # a repeated slot gets its last row, which equals the others (same point)
    streams.table.view(streams._row).put(slots, fresh.view(streams._row))
    return estimate
