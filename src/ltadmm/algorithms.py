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
is two array operations over the edge arrays ``Topology.src`` (the owner of
each edge) and ``Topology.rev`` (the reverse edge).  A replicate that
diverges is retired from the stack and frozen, and the others run on.

Variants differ only in the local gradient estimator:

* ``exact``      - true local gradient,
* ``lt_admm``    - mini-batch average, redrawn every inner step,
* ``lt_admm_vr`` - variance-reduced estimator whose gradient table is
  refreshed at the start of every epoch; the first inner step reuses the
  fresh table at no extra evaluation cost,
* ``lt_admm_vr_v2`` - same estimator but the table carries over between
  epochs (refreshed once at k = 0 only).

Randomness is organized per (replicate, agent) stream with a fixed in-stream
draw order, so results are a pure function of the configuration and never
depend on scheduling or on which replicates share the stack.  Initial
iterates are shared across variants for a given master seed.

The cost constants ``t_g`` and ``t_c`` do not enter the dynamics, the
counters or the metrics: the solver never reads them, and :func:`run` adds
the ``model_time`` column from the cost table after its replicates finish.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metrics
from .graph import Topology
from .metrics import CostModel, ReplicateTrace, Trace
from .oracles import (
    Streams,
    draw_batch,
    exact_estimate,
    saga_estimate_update,
    saga_refresh,
    sgd_estimate,
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
    "DivergenceError",
    "initial_iterates",
    "init_states",
    "exchange",
    "local_training_epoch",
    "outer_step",
    "simulate_replicates",
    "run",
]

VARIANTS = ("exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2")
_VR_VARIANTS = ("lt_admm_vr", "lt_admm_vr_v2")

DIVERGENCE_NORM = 1e12


class DivergenceError(RuntimeError):
    """A local iterate became non-finite or numerically unbounded."""

    def __init__(self, agent: int, outer_iteration: int, inner_step: int):
        self.agent = agent
        self.outer_iteration = outer_iteration
        self.inner_step = inner_step
        super().__init__(
            f"divergence at agent {agent}, iteration {outer_iteration}, "
            f"inner step {inner_step}"
        )


@dataclass
class RunConfig:
    """Solver parameters, budgets, seeds, and cost constants.

    ``t_g`` and ``t_c`` are the abstract times of one component-gradient
    evaluation and one communication round; they only scale the model-time
    axis, never the trajectory.
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
        self.cost_model()  # checks t_g and t_c
        if not 0 <= self.init_std < np.inf:  # NaN too
            raise ValueError("init_std must be finite and nonnegative")

    def cost_model(self) -> CostModel:
        return CostModel(t_g=self.t_g, t_c=self.t_c)


def initial_iterates(
    config: RunConfig, num_agents: int, dimension: int, replicate: int
) -> np.ndarray:
    """Gaussian initial iterates, shared across variants for a given seed."""
    seq = np.random.SeedSequence([int(config.master_seed), int(replicate), 0])
    rng = np.random.default_rng(seq)
    return rng.normal(0.0, config.init_std, size=(num_agents, dimension))


def _batch_draws(config: RunConfig) -> int:
    """Inner steps of the whole run at which each stream draws a batch."""
    K, tau = config.outer_iterations, config.tau
    if config.variant == "lt_admm":
        return K * tau
    if config.variant == "lt_admm_vr":
        return K * (tau - 1)
    if config.variant == "lt_admm_vr_v2" and K > 0:
        return K * tau - 1
    return 0


def init_states(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    replicates: Iterable[int],
) -> Streams:
    """Fresh estimator streams, one per (replicate, agent) of ``replicates``.

    Stream (r, i) draws from its own generator, seeded by
    (master_seed, r, 1 + i), so its draws do not depend on which other
    replicates share the stack.
    """
    seed = int(config.master_seed)
    rngs = [
        [
            np.random.default_rng(np.random.SeedSequence([seed, int(r), 1 + i]))
            for i in range(topology.num_agents)
        ]
        for r in replicates
    ]
    return Streams.start(
        instance, rngs, config.variant in _VR_VARIANTS, _batch_draws(config)
    )


def _estimate(
    streams: Streams, instance: ProblemInstance, config: RunConfig, phi: np.ndarray
) -> np.ndarray:
    if config.variant == "exact":
        return exact_estimate(streams, instance, phi)
    batch = draw_batch(streams, config.batch_size, replacement=config.batch_replacement)
    if config.variant == "lt_admm":
        return sgd_estimate(streams, instance, phi, batch)
    return saga_estimate_update(streams, instance, phi, batch)


def _retire_diverged(
    streams: Streams, left: np.ndarray, k: int, t: int, log: list | None, first: int
) -> np.ndarray:
    """Stop the live replicates with a row in ``left``; returns the survivors' flags.

    Each stopped replicate gets a :class:`DivergenceError` naming its
    lowest-index agent outside the range.  Log entries of this epoch keep
    only the survivors' rows.

    Raises:
        DivergenceError: of the first stopped replicate, when none survives.
    """
    stopped = left.any(axis=1)
    for row in np.flatnonzero(stopped):
        error = DivergenceError(int(left[row].argmax()), k, t)
        streams.diverged[int(streams.live[row])] = error
    keep = ~stopped
    if log is not None:
        log[first:] = [(phi[keep], G[keep]) for phi, G in log[first:]]
    lowest = int(streams.live[0])
    streams.retire(keep)
    if not keep.any():
        raise streams.diverged[lowest]
    return keep


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

    ``X`` stacks the iterates of the live replicates, shape (L, N, n).
    ``AtZ`` (same shape) holds each agent's sum of edge variables and
    ``degrees`` its neighbor count; both are fixed for the whole epoch.  For
    the variance-reduced variants every stream's gradient table is refreshed
    here (every epoch, or only at k = 0 for the carry-over variant) and each
    step's fresh batch gradients are written back into the table.

    A replicate whose iterate leaves the finite range at some inner step is
    retired: :meth:`Streams.retire` drops it from the live set and
    ``streams.diverged`` records the lowest-index such agent and the step.
    The others run on, and the result holds the survivors' rows only.

    ``log``, when given, receives one ``(Phi_t, G_t)`` pair per inner step:
    the stacked inner iterates and estimator outputs of the replicates that
    finish the epoch.  It does not affect the dynamics or the counters.

    Raises:
        DivergenceError: when every live replicate has left the range.
    """
    refresh = config.variant == "lt_admm_vr" or (config.variant == "lt_admm_vr_v2" and k == 0)
    if refresh:
        saga_refresh(streams, instance, X)

    gamma = config.gamma
    penalty = (config.rho * degrees)[:, None]
    first = len(log) if log is not None else 0
    phi = X.copy()  # the log keeps Phi_0, which the caller may overwrite in X
    for t in range(config.tau):
        if t == 0 and refresh:
            # estimate at the refresh anchor collapses to the table mean
            G = streams.table_sum[streams.live] / streams.sizes[:, None]
        else:
            G = _estimate(streams, instance, config, phi)
        if log is not None:
            log.append((phi, G))
        phi = phi - gamma * (G + penalty * phi - AtZ)
        left = ~(np.einsum("rij,rij->ri", phi, phi) <= DIVERGENCE_NORM**2)
        if left.any():
            keep = _retire_diverged(streams, left, k, t, log, first)
            phi, AtZ = phi[keep], AtZ[keep]
    return phi


def exchange(topology: Topology, Z: np.ndarray, X: np.ndarray, rho: float) -> np.ndarray:
    """Edge variables after one exchange of payloads ``Z - 2 rho X[owner]``.

    Edge (i, j) combines its own variable with the payload of (j, i).  ``Z``
    (..., M, n) and ``X`` (..., N, n) may stack replicates on leading axes.
    """
    payload = Z - 2.0 * rho * X[..., topology.src, :]
    return 0.5 * (Z - payload[..., topology.rev, :])


class StateMetrics(NamedTuple):
    """Metrics of stacked states (X, Z), one entry per replicate."""

    grad_norm_sq: np.ndarray
    consensus_err: np.ndarray
    conservation_residual: np.ndarray


def _measure(
    instance: ProblemInstance, X: np.ndarray, Z: np.ndarray, degrees: np.ndarray, rho: float
) -> StateMetrics:
    return StateMetrics(
        grad_norm_sq=global_gradient_norm_sq(instance, X.mean(axis=1)),
        consensus_err=metrics.consensus_error(X),
        conservation_residual=np.linalg.norm(
            Z.sum(axis=1) - rho * (degrees[:, None] * X).sum(axis=1), axis=-1
        ),
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
) -> StateMetrics:
    """One full outer iteration of every live replicate: epoch, exchange, auxiliary update.

    ``X`` (R, N, n) and ``Z`` (R, M, n) hold every replicate of the stack.
    The rows of the replicates that finish the step are overwritten with
    their new state, and the metrics of those states are returned, in the
    order of ``streams.live``.  A replicate retired in this step keeps the
    state it started the step from.  ``log`` is passed on to the epoch.

    Raises:
        DivergenceError: when every live replicate left the range.
    """
    degrees = np.asarray(topology.degrees)
    live = streams.live
    AtZ = np.zeros((len(live),) + X.shape[1:])
    np.add.at(AtZ, (slice(None), topology.src), Z[live])
    X_new = local_training_epoch(streams, instance, config, k, X[live], AtZ, degrees, log)
    live = streams.live
    Z_new = exchange(topology, Z[live], X_new, config.rho)
    Z[live] = Z_new
    X[live] = X_new
    return _measure(instance, X_new, Z_new, degrees, config.rho)


def _inner_average_gradients(instance: ProblemInstance, phis: np.ndarray) -> np.ndarray:
    """Across-agent averages of the true local gradients at stacked inner iterates.

    ``phis`` has shape (..., N, n); the result drops the agent axis.
    """
    return local_gradients(instance, phis).mean(axis=-2)


def simulate_replicates(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    replicates: Iterable[int],
) -> list[ReplicateTrace]:
    """Run the given replicates for the configured iteration budget, stacked.

    All replicates move together, one array step per inner iteration.  Each
    replicate's trajectory is that of running it alone: its initial iterates
    and its streams are seeded by its own index.  The metric arrays start
    with the initial state at k = 0.  A replicate that diverges is frozen at
    the state it started the diverging iteration from: its arrays stop
    there and it is marked, while the others run on.  The epoch gradient
    metric, when enabled, is stored at the index of the state the epoch
    started from (its true gradients are measurement overhead and never hit
    the counters).
    """
    replicates = [int(r) for r in replicates]
    R, K = len(replicates), config.outer_iterations
    degrees = np.asarray(topology.degrees)
    X = np.stack(
        [initial_iterates(config, topology.num_agents, instance.dimension, r) for r in replicates]
    )
    Z = X[:, topology.src]
    streams = init_states(instance, topology, config, replicates)
    measured = [np.full((K + 1, R), np.nan) for _ in StateMetrics._fields]
    for column, values in zip(measured, _measure(instance, X, Z, degrees, config.rho)):
        column[0] = values
    evals = np.zeros((K + 1, R), dtype=np.int64)
    d_k = np.full((K + 1, R), np.nan)

    for k in range(config.outer_iterations):
        tally = streams.tally.copy()
        log: list[tuple[np.ndarray, np.ndarray]] | None = [] if config.record_dk else None
        try:
            step = outer_step(streams, instance, topology, config, k, X, Z, log)
        except DivergenceError:
            break
        live = streams.live
        for column, values in zip(measured, step):
            column[k + 1, live] = values
        # the synchronous round waits for the slowest agent
        evals[k + 1] = evals[k] + (streams.tally - tally).max(axis=1)
        if config.record_dk:
            inner = _inner_average_gradients(instance, np.stack([phi for phi, _ in log]))
            d_k[k, live] = metrics.compute_dk(measured[0][k, live], inner, config.tau)

    traces = []
    for r, replicate in enumerate(replicates):
        error = streams.diverged.get(r)
        stop = K + 1 if error is None else error.outer_iteration + 1
        grad_norm_sq, consensus_err, residual = (column[:stop, r] for column in measured)
        traces.append(
            ReplicateTrace(
                replicate=replicate,
                status="completed" if error is None else "diverged",
                grad_norm_sq=grad_norm_sq,
                consensus_err=consensus_err,
                conservation_residual=residual,
                component_evals=evals[:stop, r],
                comms=topology.num_directed_edges * np.arange(stop),
                d_k=d_k[:stop, r],
                diverged_at=None if error is None else error.outer_iteration,
            )
        )
    return traces


def simulate_replicate(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    replicate: int,
) -> ReplicateTrace:
    """Run one replicate alone; the same trace as its row of a stacked run."""
    return simulate_replicates(instance, topology, config, [replicate])[0]


def run(instance: ProblemInstance, topology: Topology, config: RunConfig) -> Trace:
    """Run all Monte Carlo replicates and aggregate their metrics.

    Replicates share the problem data; initialization and estimator
    randomness vary per replicate.  Divergence of a replicate is recorded,
    not fatal.  Two runs with the same configuration produce bit-identical
    traces.  The ``model_time`` column is built from the cost constants
    after the replicates have run.
    """
    replicates = simulate_replicates(instance, topology, config, range(config.monte_carlo_runs))
    trace = metrics.aggregate_replicates(replicates, config.record_dk)
    return metrics.with_model_time(trace, config, instance.max_points)
