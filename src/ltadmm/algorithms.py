"""Solver dynamics on stacked iterates with synchronous communication rounds.

A replicate's state is two arrays: the iterates ``X`` (N x n, row i is
agent i's) and the edge variables ``Z`` (M x n, row e belongs to the directed
edge (i, j) at position e of ``Topology.directed_edges``: agent i's variable
for neighbor j).  One outer iteration reads

    Phi_{t+1} = Phi_t - gamma * (G_t + rho * D Phi_t - A^T Z),   Phi_0 = X
    X' = Phi_tau
    Z'[(i, j)] = (Z[(i, j)] - Z[(j, i)]) / 2 + rho * X'[j]

where D holds the degrees, ``A^T Z`` sums each agent's edge rows, and row i
of G_t is agent i's gradient estimate at row i of Phi_t.

One engine moves a grid point's whole Monte Carlo batch: ``X`` is stacked to
(R, N, n) and ``Z`` to (R, M, n), and every inner step updates all replicates
and agents at once.  The local epoch is t-major: each inner step computes
every (replicate, agent) stream's estimate in one array step
(:mod:`ltadmm.oracles`), then one stacked update moves all rows.  The
exchange (every agent sends one payload per neighbor, a synchronous barrier)
is two ``take`` gathers over the edge arrays ``Topology.src`` (the owner of
each edge) and ``Topology.rev`` (the reverse edge).  The edge sums A^T Z are
one ``bincount`` over bins that the topology keeps per stack shape
(:meth:`~ltadmm.graph.Topology.edge_sums`); it adds each agent's edge rows
in edge order from +0.0, as ``np.add.at`` would.  After each inner step
one bound guards the whole stack: when every entry is at most
``DIVERGENCE_NORM / (2 sqrt(n))`` in magnitude, no row's norm can exceed
``DIVERGENCE_NORM``, and only a stack that fails it (NaN and inf do) has
its rows' norms checked one by one.  A replicate that diverges stays in
the stack, held at the state it started that outer iteration from, and
the others run on.  The states of a run are measured a chunk at a time:
those of up to c outer iterations are copied aside and measured by one
:func:`measure` call over all their replicates, with c set by the
metric's size (:func:`simulate_replicates`).

Variants differ only in the local gradient estimator.  An inner step either
refreshes, using every stream's true local gradient at its iterate, or draws
a batch; which steps refresh is :func:`metrics.refresh_steps`.  A batch step
of ``lt_admm`` averages the batch's gradients; one of the variance-reduced
variants (``lt_admm_vr``, ``lt_admm_vr_v2``) corrects them with the
gradient table, whose average a refresh step uses.  Every refresh computes
each stream's local gradient from products over its own agent's rows.  A
run that draws no batch (:func:`batch_draws` is 0: ``exact``, and
``lt_admm_vr`` at tau = 1) keeps no table, and that is its whole refresh
(:func:`~ltadmm.oracles.exact_estimate`).  Any other sets the table's
running sum from it and rewrites table rows (:func:`~ltadmm.oracles.saga_refresh`):
only those that the epoch's batches will read when the next epoch refreshes
again (``lt_admm_vr``) and they are all in the current block of draws
(:func:`~ltadmm.oracles.upcoming`), and otherwise every row.

Randomness is organized per (replicate, agent) stream with a fixed in-stream
draw order, so results are a pure function of the configuration and never
depend on scheduling.  Which replicates share the stack changes no state,
counter, consensus error or conservation residual, nor the inner-gradient
term of ``d_k``: every exact local gradient runs the same products for a
stream at any stack size.  ``grad_norm_sq`` comes from matrix products
over the rows of every replicate of a chunk of states measured together,
and BLAS may round a row differently with their number (OpenBLAS takes a
one-row path for a lone point), so it, and ``d_k``, which adds it, may
differ in the last bits.  A run's random
inputs depend only on its random key: the master seed, the replicates, the
batch size, the sampling mode and ``init_std``.  Variant, gamma, rho and tau
only change how many batches it draws.  Runs of one problem with the same
key can therefore share one immutable :class:`SharedInputs`: the initial
iterates and the first block of batches, drawn by R * N stream generators
that are dropped once it is drawn.  Each run copies the iterates and keeps
its own streams (tally, cursor, table); a run whose draws fit in the block
reads its prefix and holds no generators, a longer one has its own.

The cost constants ``t_g`` and ``t_c`` do not enter the dynamics, the
counters or the metrics: the solver never reads them, and :func:`run` adds
the ``model_time`` column from the cost table after its replicates finish.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from . import metrics
from .graph import Topology
from .metrics import Replicates, Trace
from .oracles import (
    Streams,
    block_cap,
    draw_batch,
    draw_block,
    exact_estimate,
    saga_estimate_update,
    saga_refresh,
    sgd_estimate,
    upcoming,
)
from .problems import (
    ProblemInstance,
    global_gradient_norm_sq,
    local_full_gradient,  # noqa: F401  (wrapped by benchmarks/tracer.py)
    local_gradients,
)

__all__ = [
    "VARIANTS",
    "RunConfig",
    "Divergence",
    "batch_draws",
    "initial_iterates",
    "random_key",
    "SharedInputs",
    "shared_inputs",
    "init_states",
    "exchange",
    "local_training_epoch",
    "measure",
    "outer_step",
    "simulate_replicates",
    "run",
]

VARIANTS = ("exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2")

DIVERGENCE_NORM = 1e12


class Divergence(NamedTuple):
    """Where a replicate's local iterate first left the finite range (kept in ``Streams.diverged``)."""

    agent: int
    outer_iteration: int
    inner_step: int


@dataclass(frozen=True)
class RunConfig:
    """Solver parameters, budgets, seeds, and cost constants.

    ``t_g`` and ``t_c`` are the abstract times of one component-gradient
    evaluation and one communication round; they only scale the model-time
    axis, never the trajectory.  The int fields take Python or numpy integers
    (not ``bool``), the float fields those or Python or numpy floats (not
    ``bool``), and the two flags ``bool`` or ``np.bool_``, each kept as its
    Python type; any other type raises ``TypeError``.  The instance is
    frozen, so every run sees the values that were checked;
    ``dataclasses.replace`` checks its copy again.
    """

    variant: str
    gamma: float
    rho: float
    tau: int
    outer_iterations: int
    batch_size: int = 1
    master_seed: int = 0
    monte_carlo_runs: int = 1
    t_g: float = 1.0
    t_c: float = 1.0
    batch_replacement: bool = True
    record_dk: bool = False
    init_std: float = 10.0

    def __post_init__(self) -> None:
        for name in ("tau", "outer_iterations", "batch_size", "master_seed", "monte_carlo_runs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("gamma", "rho", "t_g", "t_c", "init_std"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise TypeError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("batch_replacement", "record_dk"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise TypeError(f"{name} must be a boolean, got {value!r}")
            object.__setattr__(self, name, bool(value))
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (0 < self.gamma < np.inf and 0 < self.rho < np.inf):  # NaN too
            raise ValueError("gamma and rho must be positive and finite")
        if self.tau < 1 or self.batch_size < 1:
            raise ValueError("tau and batch_size must be >= 1")
        if self.outer_iterations < 0:
            raise ValueError("outer_iterations must be nonnegative")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.monte_carlo_runs < 1:
            raise ValueError("monte_carlo_runs must be >= 1")
        if not (0 <= self.t_g < np.inf and 0 <= self.t_c < np.inf):  # NaN too
            raise ValueError("cost constants must be finite and nonnegative")
        if not 0 <= self.init_std < np.inf:  # NaN too
            raise ValueError("init_std must be finite and nonnegative")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator the state words a SeedSequence would generate.

    ``PCG64`` asks for ``generate_state(4, np.uint64)``: the 4 words held.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hashmixer(const: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 arrays; each call advances the hash constant.

    The constants do not depend on the data, so they advance as Python ints.
    """

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _seeded_generators(master_seed: int, rows: np.ndarray) -> list[np.random.Generator]:
    """``default_rng(SeedSequence([master_seed, *row]))`` for every row of ``rows``.

    ``rows`` is an (S, k) array of ints in [0, 2**32), one entropy word
    each.  The SeedSequence hash (a pool of 4 words: ``hashmix`` of the
    entropy, ``mix`` of every pair of pool words, the entropy past the pool,
    then ``generate_state(4, uint64)``) runs once over all S rows as uint32
    array operations, and each PCG64 is built from its row of words.
    """
    seed, rows = int(master_seed), np.asarray(rows)
    if seed < 0 or rows.size and (rows.min() < 0 or rows.max() > _MASK32):
        raise ValueError("the master seed must be nonnegative and row entries in [0, 2**32)")
    # the master seed's little-endian 32-bit words (0 is one word) lead every row
    entropy = [
        np.full(len(rows), (seed >> shift) & _MASK32, np.uint32)
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ] + list(rows.astype(np.uint32).T)
    hashmix = _hashmixer(_INIT_A, _MULT_A)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    # entropy shorter than the pool is padded with 0
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(len(rows), np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _hashmixer(_INIT_B, _MULT_B)
    state = np.stack([out(pool[i % 4]) for i in range(8)], axis=1)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words]


def initial_iterates(
    config: RunConfig, num_agents: int, dimension: int, replicates: Iterable[int]
) -> np.ndarray:
    """Gaussian initial iterates of ``replicates``, shape (R, N, n).

    Replicate r draws from ``default_rng(SeedSequence([master_seed, r, 0]))``,
    so its iterates are shared across variants for a given seed; the R
    generators are seeded in one vectorized SeedSequence pass.
    """
    rows = np.array([(int(r), 0) for r in replicates], dtype=np.int64)
    return np.stack(
        [
            rng.normal(0.0, config.init_std, size=(num_agents, dimension))
            for rng in _seeded_generators(config.master_seed, rows)
        ]
    )


def batch_draws(config: RunConfig) -> int:
    """Batches each stream draws in a full run: one per inner step that is no refresh."""
    tau = config.tau
    return sum(tau - metrics.refresh_steps(config.variant, tau, k) for k in range(config.outer_iterations))


def random_key(config: RunConfig, replicates: Iterable[int]) -> tuple:
    """What a run's random inputs depend on, besides the problem and the topology."""
    replicates = tuple(int(r) for r in replicates)
    return (config.master_seed, replicates, config.batch_size, config.batch_replacement, config.init_std)


@dataclass(frozen=True, eq=False)
class SharedInputs:
    """Random inputs of one random key, which several runs read; see :func:`shared_inputs`.

    Attributes:
        key: the random key (:func:`random_key`).
        iterates: the initial iterates, shape (R, N, n), read-only.
        block: the first batches of every stream, step-major: shape
            (steps, R, N, b), C-ordered and read-only, the layout
            :func:`~ltadmm.oracles.draw_batch` reads each step's batch from
            as a view; those of the longest run that fits in one block.
    """

    key: tuple
    iterates: np.ndarray
    block: np.ndarray


def _stream_generators(master_seed: int, replicates: list[int], num_agents: int) -> list[np.random.Generator]:
    """``rngs[r * N + i]``, the generator of stream (replicate r, agent i), seeded in one vectorized pass."""
    reps = np.array(replicates, dtype=np.int64)
    rows = np.stack(np.broadcast_arrays(reps[:, None], 1 + np.arange(num_agents)), axis=-1)
    return _seeded_generators(master_seed, rows.reshape(-1, 2))


def shared_inputs(
    instance: ProblemInstance,
    topology: Topology,
    configs: list[RunConfig],
    replicates: Iterable[int],
) -> SharedInputs:
    """The random inputs of ``replicates`` for runs of ``configs``, which share one random key.

    The block holds the draws of the configuration that draws most among
    those that fit in one block (:func:`~ltadmm.oracles.block_cap`), drawn
    by generators seeded as in :func:`init_states` and then dropped; if none
    of them draws, it has no steps and nothing is seeded.
    """
    key = random_key(configs[0], replicates)
    if any(random_key(config, key[1]) != key for config in configs):
        raise ValueError("shared inputs need one master seed, batch size, sampling mode and init_std")
    config, N, R = configs[0], topology.num_agents, len(key[1])
    b, replacement = config.batch_size, config.batch_replacement
    cap = block_cap(R * N, b, replacement)
    steps = max((draws for draws in map(batch_draws, configs) if draws <= cap), default=0)
    block = np.empty((0, R, N, b), dtype=np.int64)
    if steps:
        rngs = _stream_generators(config.master_seed, key[1], N)
        block = draw_block(rngs, instance.sizes, b, replacement, steps)
    iterates = initial_iterates(config, N, instance.dimension, key[1])
    iterates.flags.writeable = block.flags.writeable = False
    return SharedInputs(key, iterates, block)


def init_states(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    replicates: Iterable[int],
    shared: SharedInputs,
) -> Streams:
    """Fresh estimator streams, one per (replicate, agent) of ``replicates``.

    The streams fix the run's batch size, sampling mode and batch draws,
    and keep a gradient table only if the run draws a batch.
    Stream (r, i) draws from its own generator,
    ``default_rng(SeedSequence([master_seed, r, 1 + i]))``, so its draws do
    not depend on which other replicates share the stack.  A run whose draws
    fit in ``shared.block`` reads it and holds no generators, as does a run
    that never draws; any other holds generators seeded for it alone.  The
    tally, the table and the place in the block are the run's own.
    ``shared`` of another random key raises ``ValueError``.
    """
    replicates = [int(r) for r in replicates]
    if shared.key != random_key(config, replicates):
        raise ValueError("the shared inputs belong to another random key")
    draws, N = batch_draws(config), topology.num_agents
    block = shared.block if draws <= shared.block.shape[0] else None
    rngs = [] if block is not None else _stream_generators(config.master_seed, replicates, N)
    tally = np.zeros((len(replicates), N), dtype=np.int64)
    return Streams(
        rngs, instance.sizes, tally, config.batch_size, config.batch_replacement, draws, block, keeps_table=draws > 0
    )


@cache
def _entry_bound(n: int) -> float:  # the bound _outside reads, computed once per dimension n
    return DIVERGENCE_NORM / (2.0 * math.sqrt(n))


def _outside(phi: np.ndarray) -> np.ndarray | None:
    """Which rows of ``phi`` (R, N, n) left the finite range, shape (R, N); None if none did.

    A row leaves it when its norm exceeds ``DIVERGENCE_NORM`` or is not
    finite.  One bound decides most stacks: no row whose entries are all at
    most ``DIVERGENCE_NORM / (2 sqrt(n))`` in magnitude has a norm above
    half of ``DIVERGENCE_NORM``.  Only a stack that fails it (NaN and inf
    do) has its rows' norms checked.
    """
    if np.maximum.reduce(np.abs(phi), axis=None) <= _entry_bound(phi.shape[-1]):
        return None
    left = ~(np.einsum("rij,rij->ri", phi, phi) <= DIVERGENCE_NORM**2)
    return left if left.any() else None


def local_training_epoch(
    streams: Streams,
    instance: ProblemInstance,
    config: RunConfig,
    k: int,
    X: np.ndarray,
    AtZ: np.ndarray,
    degrees: np.ndarray,
    log: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """Run tau local steps from the iterates ``X``; returns the new iterates.

    ``X`` stacks the iterates of every replicate, shape (R, N, n).
    ``AtZ`` (same shape) holds each agent's sum of edge variables and
    ``degrees`` its neighbor count; both are fixed for the whole epoch, and
    the penalty rho * d_i is built once per epoch in ``X``'s shape, so that
    every operation of the update reads operands of one shape.

    The first :func:`metrics.refresh_steps` inner steps take G_t as every
    stream's exact local gradient at its row of Phi_t: the average of its
    refreshed gradient table, or, for streams that keep no table (a run
    that draws no batch), the mean computed without one.  When the next
    epoch refreshes again, only this epoch's batches read the table, and a
    refresh writes only their rows if it can read them ahead.  Every other
    step draws a batch; ``lt_admm`` averages its gradients, and the
    variance-reduced variants write them back into the table.

    When a replicate's iterate first leaves the finite range,
    ``streams.diverged`` records its lowest-index agent outside the range
    and the step.  Whenever its rows leave the range they are reset to its
    rows of ``X``, so they stay finite; its streams keep drawing and
    counting, and :func:`outer_step` holds its state.  The others run on,
    and the epoch runs to its end even when every replicate has left.

    ``log``, when given, receives one ``(Phi_t, G_t)`` pair per inner step:
    the stacked inner iterates and estimator outputs of every replicate.  It
    does not affect the dynamics or the counters.
    """
    variant = config.variant
    refreshes = metrics.refresh_steps(variant, config.tau, k)
    # when the next epoch refreshes the table again, only this epoch's batches read it
    ahead = metrics.refresh_steps(variant, config.tau, k + 1) > 0
    gamma = config.gamma
    penalty = np.empty_like(X)
    penalty[...] = (config.rho * degrees)[:, None]
    phi = X.copy()  # the log keeps Phi_0, which the caller may overwrite in X
    for t in range(config.tau):
        if t < refreshes and not streams.keeps_table:
            G = exact_estimate(streams, instance, phi)
        elif t < refreshes:
            saga_refresh(streams, instance, phi, upcoming(streams, config.tau - refreshes) if ahead else None)
            G = streams.table_sum / streams.divisors
        else:
            batch = draw_batch(streams)
            if variant == "lt_admm":
                G = sgd_estimate(streams, instance, phi, batch)
            else:
                G = saga_estimate_update(streams, instance, phi, batch)
        if log is not None:
            log.append((phi, G))
        # phi - gamma * (G + penalty * phi - AtZ), with its bits, in one fresh array
        step = penalty * phi
        step += G
        step -= AtZ
        step *= gamma
        phi = np.subtract(phi, step, out=step)
        left = _outside(phi)
        if left is not None:
            out = left.any(axis=1)
            for r in map(int, np.flatnonzero(out)):
                if r not in streams.diverged:
                    streams.diverged[r] = Divergence(int(left[r].argmax()), k, t)
            phi[out] = X[out]
    return phi


def exchange(topology: Topology, Z: np.ndarray, X: np.ndarray, rho: float) -> np.ndarray:
    """Edge variables after one exchange of payloads ``Z - 2 rho X[owner]``.

    Edge (i, j) combines its own variable with the payload of (j, i).  ``Z``
    (..., M, n) and ``X`` (..., N, n) may stack replicates on leading axes.
    """
    payload = Z - 2.0 * rho * X.take(topology.src, axis=-2)
    return 0.5 * (Z - payload.take(topology.rev, axis=-2))


class StateMetrics(NamedTuple):
    """Metrics of stacked states (X, Z), one entry per state."""

    grad_norm_sq: np.ndarray
    consensus_err: np.ndarray
    conservation_residual: np.ndarray


def measure(
    instance: ProblemInstance, X: np.ndarray, Z: np.ndarray, degrees: np.ndarray, rho: float
) -> StateMetrics:
    """The metrics of P stacked states: iterates ``X`` (P, N, n) and edge variables ``Z`` (P, M, n).

    ``grad_norm_sq`` is the squared network gradient at each state's mean
    iterate, from one :func:`~ltadmm.problems.global_gradient_norm_sq`
    call over all P points; ``consensus_err`` is
    :func:`metrics.consensus_error`; ``conservation_residual`` is the norm
    of sum_e Z_e - rho sum_i d_i x_i.  The last two reduce each state's
    own rows, so their bits do not depend on P; the first comes from
    matrix products over the P points, whose BLAS kernel may round a row
    differently with their number.
    """
    residual = np.add.reduce(Z, axis=1) - rho * np.add.reduce(degrees[:, None] * X, axis=1)
    return StateMetrics(
        grad_norm_sq=global_gradient_norm_sq(instance, np.add.reduce(X, axis=1) / X.shape[1]),
        consensus_err=metrics.consensus_error(X),
        conservation_residual=np.sqrt(np.add.reduce(residual * residual, axis=-1)),
    )


def outer_step(
    streams: Streams,
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    k: int,
    X: np.ndarray,
    Z: np.ndarray,
    log: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> None:
    """One full outer iteration of every replicate: epoch, exchange, auxiliary update.

    ``X`` (R, N, n) and ``Z`` (R, M, n) hold every replicate of the stack
    and are overwritten with the new states; :func:`measure` takes their
    metrics.  A diverged replicate (one in ``streams.diverged``) is held:
    its rows keep the state it started the step from, and the step runs on
    when every replicate is held.  ``log`` is passed on to the epoch.
    """
    degrees = topology.degree_vector
    AtZ = topology.edge_sums(Z)
    X_new = local_training_epoch(streams, instance, config, k, X, AtZ, degrees, log)
    Z_new = exchange(topology, Z, X_new, config.rho)
    if streams.diverged:
        held = list(streams.diverged)
        X_new[held], Z_new[held] = X[held], Z[held]
    X[...], Z[...] = X_new, Z_new


# Most margins (points times padded rows, N * m_max each) that one chunk of
# states sends to the network-gradient metric.  Its cost per point falls as
# more points share a call, up to about this many margins, and rises past it.
_MEASURE_ENTRIES = 16384


class _Chunk:
    """A run's metric columns, filled by measuring the states of up to ``size`` outer iterations at once.

    :meth:`add` copies a state (X, Z) of the R-replicate stack into the
    next R places of the buffers, and :meth:`add_epoch` the inner averages
    of the epoch that starts from it (``record_dk``).  :meth:`flush`
    measures every state held in one :func:`measure` call over their
    stacked replicates, and the ``d_k`` of those whose epoch has run in
    one :func:`metrics.compute_dk` call; :meth:`add` flushes a full chunk.
    ``size`` is ``_MEASURE_ENTRIES // (R N m_max)``, at least 1.

    The buffers are agent-major and edge-major, (N, size R, n) and
    (M, size R, n); :func:`measure` reads them as (P, N, n) and (P, M, n)
    views.  Its sums over agents and edges then add whole (P, n) slices one
    after another in long inner loops, where a C-ordered stack runs a loop
    of n per point and row.  The additions come in the same order, so the
    bits are the same; the call took 11-30 % less at the benchmark
    workloads' shapes.
    """

    def __init__(self, instance: ProblemInstance, topology: Topology, config: RunConfig, R: int):
        K, N, n = config.outer_iterations, topology.num_agents, instance.dimension
        self.instance, self.degrees, self.config, self.R = instance, topology.degree_vector, config, R
        self.size = max(1, _MEASURE_ENTRIES // (R * N * instance.max_points))
        self.X = np.empty((N, self.size * R, n))
        self.Z = np.empty((topology.num_directed_edges, self.size * R, n))
        self.inner = np.empty((config.tau, self.size, R, n)) if config.record_dk else None
        self.columns = StateMetrics(*(np.full((K + 1, R), np.nan) for _ in StateMetrics._fields))
        self.d_k = np.full((K + 1, R), np.nan)
        # row of the first state held, states held, epochs of theirs added
        self.start = self.states = self.epochs = 0

    def add(self, X: np.ndarray, Z: np.ndarray) -> None:
        if self.states == self.size:
            self.flush()
        places = slice(self.states * self.R, (self.states + 1) * self.R)
        self.X[:, places], self.Z[:, places] = X.swapaxes(0, 1), Z.swapaxes(0, 1)
        self.states += 1

    def add_epoch(self, inner: np.ndarray) -> None:
        """The inner averages (tau, R, n) of the epoch from the last state added."""
        self.inner[:, self.epochs] = inner
        self.epochs += 1

    def flush(self) -> None:
        held, epochs, start = self.states, self.epochs, self.start
        points = held * self.R
        X, Z = self.X[:, :points].swapaxes(0, 1), self.Z[:, :points].swapaxes(0, 1)
        values = measure(self.instance, X, Z, self.degrees, self.config.rho)
        for column, value in zip(self.columns, values):
            column[start : start + held] = value.reshape(held, self.R)
        if epochs:
            grad_norm_sq = self.columns.grad_norm_sq[start : start + epochs]
            inner = self.inner[:, :epochs]
            self.d_k[start : start + epochs] = metrics.compute_dk(grad_norm_sq, inner, self.config.tau)
        self.start, self.states, self.epochs = start + held, 0, 0


def simulate_replicates(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    replicates: Iterable[int],
    shared: SharedInputs | None = None,
) -> Replicates:
    """Run the given replicates for the configured iteration budget, stacked.

    All replicates move together, one array step per inner iteration, and
    column r of every returned metric belongs to the r-th of
    ``replicates``.  Each replicate's trajectory is that of running it
    alone: its initial iterates and its streams are seeded by its own index.
    ``shared`` holds the random inputs of this run's random key, which other
    runs read too (:func:`shared_inputs`); without it they are built for
    this run alone.  Either way the trajectory is the same.
    Row 0 holds the initial state.  Each outer iteration is one
    :func:`outer_step`, and its new state is copied into a chunk of states
    that are measured together: c = ``_MEASURE_ENTRIES // (R N m_max)``
    of them (at least 1) in one :func:`measure` call over their c R stacked
    replicates, when the chunk is full and when the run ends.  A state's
    consensus error and conservation residual have the bits of measuring it
    alone; its ``grad_norm_sq``, and ``d_k``, which adds it, may differ in
    the last bits with the number of points in the call.  A replicate that
    diverges is held at the state it started the diverging iteration from:
    its column is blanked after that state and it is marked, while the
    others run on.  The epoch
    gradient metric, when enabled, is stored at the row of the state the
    epoch started from (its true gradients are measurement overhead and
    never hit the counters), and a chunk's values come from one
    :func:`metrics.compute_dk` call.  A refresh step's estimate is already
    the exact local gradient at its inner iterate, so the metric reads it
    from the epoch's log and evaluates ``local_gradients``, the refresh's
    own per-stream kernel, only at the other inner iterates (never for
    ``exact``, whose every step is a refresh).  Once every replicate has
    diverged the run stops, and ``component_evals`` is completed from the
    cost table (:func:`metrics.iteration_evals`), so it and ``comms`` read
    as if the held states had run the whole budget.
    """
    replicates = [int(r) for r in replicates]
    R, K = len(replicates), config.outer_iterations
    if shared is None:
        shared = shared_inputs(instance, topology, [config], replicates)
    streams = init_states(instance, topology, config, replicates, shared)
    X = shared.iterates.copy()
    Z = X[:, topology.src]
    chunk = _Chunk(instance, topology, config, R)
    chunk.add(X, Z)
    evals = np.zeros(K + 1, dtype=np.int64)

    for k in range(config.outer_iterations):
        tally = streams.tally.copy()
        log: list[tuple[np.ndarray, np.ndarray]] | None = [] if config.record_dk else None
        outer_step(streams, instance, topology, config, k, X, Z, log)
        # the synchronous round waits for the slowest agent
        evals[k + 1] = evals[k] + (streams.tally - tally).max()
        if config.record_dk:
            # a refresh step's G_t is already the exact local gradient at its Phi_t
            refreshes = metrics.refresh_steps(config.variant, config.tau, k)
            gradients = [G for _, G in log[:refreshes]]
            if refreshes < config.tau:
                rest = np.stack([phi for phi, _ in log[refreshes:]])
                gradients += list(local_gradients(instance, rest))
            chunk.add_epoch(np.add.reduce(np.stack(gradients), axis=-2) / topology.num_agents)
        chunk.add(X, Z)
        if len(streams.diverged) == R:
            # every replicate is held: the rest of the budget would only count
            rest = [
                metrics.iteration_evals(
                    config.variant, config.tau, instance.max_points, config.batch_size, j
                )
                for j in range(k + 1, K)
            ]
            evals[k + 2 :] = evals[k + 1] + np.cumsum(rest, dtype=np.int64)
            break
    chunk.flush()

    diverged_at: list[int | None] = [None] * R
    d_k = chunk.d_k
    for r, divergence in streams.diverged.items():
        last = diverged_at[r] = divergence.outer_iteration
        for column in chunk.columns:
            column[last + 1 :, r] = np.nan
        d_k[last:, r] = np.nan  # no epoch starts from a held state
    return Replicates(
        grad_norm_sq=chunk.columns.grad_norm_sq,
        consensus_err=chunk.columns.consensus_err,
        conservation_residual=chunk.columns.conservation_residual,
        d_k=d_k,
        component_evals=evals,
        comms=topology.num_directed_edges * np.arange(K + 1),
        diverged_at=diverged_at,
    )


def simulate_replicate(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    replicate: int,
) -> Replicates:
    """Run one replicate alone: the same states as its column of a stacked run.

    Its counters, consensus errors and conservation residuals have the same
    bits too; ``grad_norm_sq`` may differ in the last bits, since its
    matrix products have fewer rows, which BLAS may round differently, and
    so may ``d_k``, which adds it.
    """
    return simulate_replicates(instance, topology, config, [replicate])


def run(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    shared: SharedInputs | None = None,
) -> Trace:
    """Run all Monte Carlo replicates and aggregate their metrics.

    Replicates share the problem data; initialization and estimator
    randomness vary per replicate.  Divergence of a replicate is recorded,
    not fatal.  Two runs with the same configuration produce bit-identical
    traces, with or without ``shared`` (see :func:`simulate_replicates`).
    The ``model_time`` column is built from the cost constants after the
    replicates have run.
    """
    replicates = simulate_replicates(instance, topology, config, range(config.monte_carlo_runs), shared)
    trace = metrics.aggregate_replicates(replicates, config.record_dk)
    return metrics.with_model_time(trace, config, instance.max_points)
