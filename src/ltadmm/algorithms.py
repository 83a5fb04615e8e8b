"""Solver dynamics on stacked iterates with synchronous communication rounds.

One replicate's state is two arrays: the iterates ``X`` (N x n, row i is
agent i's) and the edge variables ``Z`` (M x n, row e belongs to the directed
edge (i, j) at position e of ``Topology.directed_edges``: agent i's variable
for neighbor j).  One outer iteration reads

    Phi_{t+1} = Phi_t - gamma * (G_t + rho * D Phi_t - A^T Z),   Phi_0 = X
    X' = Phi_tau
    Z'[(i, j)] = (Z[(i, j)] - Z[(j, i)]) / 2 + rho * X'[j]

where D holds the degrees, ``A^T Z`` sums each agent's edge rows, and row i
of G_t is agent i's gradient estimate at row i of Phi_t.  The local epoch is
t-major: each inner step collects every agent's estimate, then one stacked
update moves all rows.  The exchange (every agent sends one payload per
neighbor, a synchronous barrier) is two array operations over the edge
arrays ``Topology.src`` (the owner of each edge) and ``Topology.rev`` (the
reverse edge).  Only the estimator state is per agent: its random stream,
its gradient table and its evaluation counter (:class:`AgentState`).

Variants differ only in the local gradient estimator:

* ``exact``      - true local gradient,
* ``lt_admm``    - mini-batch average, redrawn every inner step,
* ``lt_admm_vr`` - variance-reduced estimator whose gradient table is
  refreshed at the start of every epoch; the first inner step reuses the
  fresh table at no extra evaluation cost,
* ``lt_admm_vr_v2`` - same estimator but the table carries over between
  epochs (refreshed once at k = 0 only).

Randomness is organized per (replicate, agent) stream with a fixed in-agent
draw order, so results are a pure function of the configuration and never
depend on scheduling.  Initial iterates are shared across variants for a
given master seed.

The cost constants ``t_g`` and ``t_c`` do not enter the dynamics, the
counters or the metrics: the solver never reads them, and :func:`run` adds
the ``model_time`` column from the cost table after its replicates finish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import metrics
from .graph import Topology
from .metrics import CostModel, ReplicateTrace, Trace
from .oracles import (
    EvalCounter,
    SagaTable,
    draw_batch,
    saga_estimate_update,
    saga_refresh,
    sgd_estimate,
)
from .problems import (
    ProblemInstance,
    global_gradient_norm_sq,
    local_full_gradient,
)

__all__ = [
    "VARIANTS",
    "RunConfig",
    "AgentState",
    "DivergenceError",
    "initial_iterates",
    "init_states",
    "exchange",
    "local_training_epoch",
    "outer_step",
    "simulate_replicate",
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


@dataclass
class AgentState:
    """One agent's estimator state: random stream, gradient table, counter."""

    index: int
    rng: np.random.Generator
    table: SagaTable | None
    counter: EvalCounter = field(default_factory=EvalCounter)


def initial_iterates(
    config: RunConfig, num_agents: int, dimension: int, replicate: int
) -> np.ndarray:
    """Gaussian initial iterates, shared across variants for a given seed."""
    seq = np.random.SeedSequence([int(config.master_seed), int(replicate), 0])
    rng = np.random.default_rng(seq)
    return rng.normal(0.0, config.init_std, size=(num_agents, dimension))


def init_states(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    replicate: int,
) -> list[AgentState]:
    """Fresh estimator states with one random stream per (replicate, agent)."""
    states = []
    for i in range(topology.num_agents):
        seq = np.random.SeedSequence([int(config.master_seed), int(replicate), 1 + i])
        table = None
        if config.variant in _VR_VARIANTS:
            table = SagaTable(instance.num_points(i), instance.dimension)
        states.append(AgentState(index=i, rng=np.random.default_rng(seq), table=table))
    return states


def _estimate(
    state: AgentState,
    instance: ProblemInstance,
    config: RunConfig,
    x: np.ndarray,
    table_is_fresh: bool,
) -> np.ndarray:
    i = state.index
    m = instance.num_points(i)
    if config.variant == "exact":
        state.counter.component_gradient_evals += m
        return local_full_gradient(instance, i, x)
    if config.variant == "lt_admm":
        batch = draw_batch(state.rng, m, config.batch_size, replacement=config.batch_replacement)
        return sgd_estimate(instance, i, x, batch, state.counter)
    if table_is_fresh:
        # estimate at the refresh anchor collapses to the table mean
        return state.table.mean()
    batch = draw_batch(state.rng, m, config.batch_size, replacement=config.batch_replacement)
    return saga_estimate_update(state.table, instance, i, x, batch, state.counter)


def local_training_epoch(
    states: list[AgentState],
    instance: ProblemInstance,
    config: RunConfig,
    k: int,
    X: np.ndarray,
    AtZ: np.ndarray,
    degrees: np.ndarray,
    log: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """Run tau local steps from the iterates ``X``; returns the new iterates.

    ``AtZ`` holds each agent's sum of edge variables and ``degrees`` its
    neighbor count; both are fixed for the whole epoch.  For the
    variance-reduced variants every agent's gradient table is refreshed here
    (every epoch, or only at k = 0 for the carry-over variant) and each step's
    fresh batch gradients are written back into the table.

    ``log``, when given, receives one ``(Phi_t, G_t)`` pair per inner step:
    the stacked inner iterate and the stacked estimator outputs.  It does not
    affect the dynamics or the evaluation counters.

    Raises:
        DivergenceError: at the first inner step where an iterate leaves the
            finite range, naming the lowest-index such agent.
    """
    refresh = config.variant == "lt_admm_vr" or (config.variant == "lt_admm_vr_v2" and k == 0)
    if refresh:
        for state in states:
            saga_refresh(state.table, instance, state.index, X[state.index], state.counter)

    gamma = config.gamma
    penalty = (config.rho * degrees)[:, None]
    phi = X.copy()  # the log keeps Phi_0 and outer_step overwrites X
    for t in range(config.tau):
        G = np.empty_like(X)
        for state in states:
            G[state.index] = _estimate(state, instance, config, phi[state.index], t == 0 and refresh)
        if log is not None:
            log.append((phi, G))
        phi = phi - gamma * (G + penalty * phi - AtZ)
        left = ~(np.einsum("ij,ij->i", phi, phi) <= DIVERGENCE_NORM**2)
        if left.any():
            raise DivergenceError(int(left.argmax()), k, t)
    return phi


def exchange(topology: Topology, Z: np.ndarray, X: np.ndarray, rho: float) -> np.ndarray:
    """Edge variables after one exchange of payloads ``Z - 2 rho X[owner]``.

    Edge (i, j) combines its own variable with the payload of (j, i).
    """
    payload = Z - 2.0 * rho * X[topology.src]
    return 0.5 * (Z - payload[topology.rev])


class StateMetrics(NamedTuple):
    """Metrics of one state (X, Z)."""

    grad_norm_sq: float
    consensus_err: float
    conservation_residual: float


def _measure(
    instance: ProblemInstance, X: np.ndarray, Z: np.ndarray, degrees: np.ndarray, rho: float
) -> StateMetrics:
    return StateMetrics(
        grad_norm_sq=global_gradient_norm_sq(instance, X.mean(axis=0)),
        consensus_err=metrics.consensus_error(X),
        conservation_residual=float(
            np.linalg.norm(Z.sum(axis=0) - rho * (degrees[:, None] * X).sum(axis=0))
        ),
    )


def outer_step(
    states: list[AgentState],
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    k: int,
    X: np.ndarray,
    Z: np.ndarray,
    log: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> StateMetrics:
    """One full outer iteration: epoch, exchange, auxiliary update.

    Overwrites ``X`` and ``Z`` with the new state and returns its metrics.
    ``log`` is passed on to the epoch.
    """
    degrees = np.asarray(topology.degrees)
    AtZ = np.zeros_like(X)
    np.add.at(AtZ, topology.src, Z)
    X_new = local_training_epoch(states, instance, config, k, X, AtZ, degrees, log)
    Z[:] = exchange(topology, Z, X_new, config.rho)
    X[:] = X_new
    return _measure(instance, X, Z, degrees, config.rho)


def _inner_average_gradients(
    instance: ProblemInstance, log: list[tuple[np.ndarray, np.ndarray]]
) -> list[np.ndarray]:
    averages = []
    for phi, _ in log:
        total = np.zeros(instance.dimension)
        for i in range(phi.shape[0]):
            total += local_full_gradient(instance, i, phi[i])
        averages.append(total / phi.shape[0])
    return averages


def simulate_replicate(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    replicate: int,
) -> ReplicateTrace:
    """Run one replicate for the configured iteration budget.

    The metric arrays start with the initial state at k = 0.  Divergence
    truncates them and marks the replicate; the epoch gradient metric, when
    enabled, is stored at the index of the state the epoch started from (its
    true gradients are measurement overhead and never hit the counters).
    """
    X = initial_iterates(config, topology.num_agents, instance.dimension, replicate)
    Z = X[topology.src]
    states = init_states(instance, topology, config, replicate)
    measured = [_measure(instance, X, Z, np.asarray(topology.degrees), config.rho)]
    evals = [0]
    comms = [0]
    d_k: list[float] = []

    status = "completed"
    diverged_at = None
    for k in range(config.outer_iterations):
        evals_before = [s.counter.component_gradient_evals for s in states]
        log: list[tuple[np.ndarray, np.ndarray]] | None = [] if config.record_dk else None
        try:
            measured.append(outer_step(states, instance, topology, config, k, X, Z, log))
        except DivergenceError as err:
            status = "diverged"
            diverged_at = err.outer_iteration
            break
        deltas = [
            s.counter.component_gradient_evals - before
            for s, before in zip(states, evals_before)
        ]
        evals.append(evals[-1] + max(deltas))
        comms.append(comms[-1] + topology.num_directed_edges)
        if config.record_dk:
            inner = _inner_average_gradients(instance, log)
            d_k.append(metrics.compute_dk(measured[k].grad_norm_sq, inner, config.tau))
    grad_norm_sq, consensus_err, residual = (np.array(column) for column in zip(*measured))
    d_k += [np.nan] * (len(measured) - len(d_k))
    return ReplicateTrace(
        replicate=replicate,
        status=status,
        grad_norm_sq=grad_norm_sq,
        consensus_err=consensus_err,
        conservation_residual=residual,
        component_evals=np.array(evals),
        comms=np.array(comms),
        d_k=np.array(d_k),
        diverged_at=diverged_at,
    )


def run(instance: ProblemInstance, topology: Topology, config: RunConfig) -> Trace:
    """Run all Monte Carlo replicates and aggregate their metrics.

    Replicates share the problem data; initialization and estimator
    randomness vary per replicate.  Divergence of a replicate is recorded,
    not fatal.  Two runs with the same configuration produce bit-identical
    traces.  The ``model_time`` column is built from the cost constants
    after the replicates have run.
    """
    replicates = [
        simulate_replicate(instance, topology, config, r)
        for r in range(config.monte_carlo_runs)
    ]
    trace = metrics.aggregate_replicates(replicates, config.record_dk)
    return metrics.with_model_time(trace, config, instance.max_points)
