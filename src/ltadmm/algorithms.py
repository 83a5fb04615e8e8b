"""Per-agent solver state machine with synchronous communication rounds.

One outer iteration has three phases.  Every agent first runs a local
training epoch: tau gradient-type steps on its proximal-penalized local cost,
holding its neighbor variables fixed.  All agents then exchange exactly one
message per neighbor (a synchronous barrier), and finally each per-neighbor
auxiliary variable is updated from the counterpart's message.

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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics
from .graph import Topology
from .metrics import CostModel, IterationRecord, ReplicateTrace, Trace
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
    "z_update",
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
    evaluation and one communication round.
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
        if self.gamma <= 0 or self.rho <= 0:
            raise ValueError("gamma and rho must be positive")
        if self.tau < 1 or self.batch_size < 1:
            raise ValueError("tau and batch_size must be >= 1")
        if self.outer_iterations < 0:
            raise ValueError("outer_iterations must be nonnegative")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.monte_carlo_runs < 1:
            raise ValueError("monte_carlo_runs must be >= 1")
        if self.t_g < 0 or self.t_c < 0:
            raise ValueError("cost constants must be nonnegative")

    def cost_model(self) -> CostModel:
        return CostModel(t_g=self.t_g, t_c=self.t_c)


@dataclass
class AgentState:
    """One agent's iterate, per-neighbor auxiliaries, and estimator state."""

    index: int
    x: np.ndarray
    z: dict[int, np.ndarray]
    table: SagaTable | None
    counter: EvalCounter = field(default_factory=EvalCounter)


def initial_iterates(
    config: RunConfig, num_agents: int, dimension: int, replicate: int
) -> np.ndarray:
    """Gaussian initial iterates, shared across variants for a given seed."""
    seq = np.random.SeedSequence([int(config.master_seed), int(replicate), 0])
    rng = np.random.default_rng(seq)
    return rng.normal(0.0, config.init_std, size=(num_agents, dimension))


def _agent_rngs(config: RunConfig, num_agents: int, replicate: int) -> list[np.random.Generator]:
    return [
        np.random.default_rng(
            np.random.SeedSequence([int(config.master_seed), int(replicate), 1 + i])
        )
        for i in range(num_agents)
    ]


def init_states(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    x0: np.ndarray,
) -> list[AgentState]:
    """Fresh agent states: every per-neighbor auxiliary starts at the iterate."""
    states = []
    for i in range(topology.num_agents):
        z = {j: x0[i].copy() for j in topology.neighbors(i)}
        table = None
        if config.variant in _VR_VARIANTS:
            table = SagaTable(instance.num_points(i), instance.dimension)
        states.append(AgentState(index=i, x=x0[i].copy(), z=z, table=table))
    return states


def z_update(z_ij: np.ndarray, incoming_payload: np.ndarray) -> np.ndarray:
    """Update one per-neighbor auxiliary from the counterpart's message."""
    return 0.5 * (z_ij - incoming_payload)


def _check_iterate(phi: np.ndarray, agent: int, k: int, t: int) -> None:
    if not np.all(np.isfinite(phi)) or float(phi @ phi) > DIVERGENCE_NORM**2:
        raise DivergenceError(agent, k, t)


def local_training_epoch(
    state: AgentState,
    instance: ProblemInstance,
    config: RunConfig,
    k: int,
    rng: np.random.Generator | None = None,
    inner_iterates: list[np.ndarray] | None = None,
    estimate_log: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Run tau local steps from the agent's iterate; returns the new iterate.

    The neighbor variables are held fixed for the whole epoch.  For the
    variance-reduced variants the gradient table is refreshed here (every
    epoch, or only at k = 0 for the carry-over variant) and each step's fresh
    batch gradients are written back into the table.

    ``inner_iterates``/``estimate_log`` optionally collect the inner points
    and the raw estimator outputs for diagnostics; neither affects the
    dynamics or the evaluation counters.

    Raises:
        DivergenceError: if an inner iterate leaves the finite range.
    """
    i = state.index
    degree = len(state.z)
    sum_z = np.sum(list(state.z.values()), axis=0) if state.z else np.zeros_like(state.x)
    gamma, rho = config.gamma, config.rho
    m = instance.num_points(i)

    fresh_table = False
    if config.variant == "lt_admm_vr" or (config.variant == "lt_admm_vr_v2" and k == 0):
        saga_refresh(state.table, instance, i, state.x, state.counter)
        fresh_table = True

    phi = state.x.copy()
    for t in range(config.tau):
        if inner_iterates is not None:
            inner_iterates.append(phi.copy())
        if config.variant == "exact":
            g = local_full_gradient(instance, i, phi)
            state.counter.component_gradient_evals += m
        elif config.variant == "lt_admm":
            batch = draw_batch(rng, m, config.batch_size, replacement=config.batch_replacement)
            g = sgd_estimate(instance, i, phi, batch, state.counter)
        else:
            if t == 0 and fresh_table:
                # estimate at the refresh anchor collapses to the table mean
                g = state.table.mean()
            else:
                batch = draw_batch(rng, m, config.batch_size, replacement=config.batch_replacement)
                g = saga_estimate_update(state.table, instance, i, phi, batch, state.counter)
        if estimate_log is not None:
            estimate_log.append(np.asarray(g, dtype=float).copy())
        phi = phi - gamma * (g + rho * degree * phi - sum_z)
        _check_iterate(phi, i, k, t)
    return phi


def _conservation_residual(states: list[AgentState], rho: float) -> float:
    z_total = np.sum([z for s in states for z in s.z.values()], axis=0)
    weighted = np.sum([len(s.z) * s.x for s in states], axis=0)
    return float(np.linalg.norm(z_total - rho * weighted))


def outer_step(
    states: list[AgentState],
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    k: int,
    rngs: list[np.random.Generator] | None = None,
    inner_collector: list[list[np.ndarray]] | None = None,
    estimate_recorder: list[list[list[np.ndarray]]] | None = None,
) -> IterationRecord:
    """One full outer iteration: epochs, message exchange, auxiliary update.

    Mutates the agent states in place and returns the post-update metrics
    record (cumulative counters, model time, and the epoch gradient metric
    are filled in by the replicate driver).  ``inner_collector`` receives one
    list of inner iterates per agent; ``estimate_recorder`` one list of raw
    estimator outputs per agent.
    """
    n = topology.num_agents
    new_x: list[np.ndarray] = [np.empty(0)] * n
    step_estimates: list[list[np.ndarray]] | None = None
    if estimate_recorder is not None:
        step_estimates = [[] for _ in range(n)]

    for i, state in enumerate(states):
        inner: list[np.ndarray] | None = None
        if inner_collector is not None:
            inner = []
            inner_collector.append(inner)
        new_x[i] = local_training_epoch(
            state,
            instance,
            config,
            k,
            rng=rngs[i] if rngs is not None else None,
            inner_iterates=inner,
            estimate_log=step_estimates[i] if step_estimates is not None else None,
        )
    if estimate_recorder is not None:
        estimate_recorder.append(step_estimates)

    # synchronous exchange: one payload per directed edge (sender, receiver)
    payloads: dict[tuple[int, int], np.ndarray] = {}
    for i, state in enumerate(states):
        for j in topology.neighbors(i):
            payloads[(i, j)] = state.z[j] - 2.0 * config.rho * new_x[i]
        state.counter.communications += len(state.z)

    for i, state in enumerate(states):
        for j in topology.neighbors(i):
            state.z[j] = z_update(state.z[j], payloads[(j, i)])
        state.x = new_x[i]

    iterates = np.stack([s.x for s in states])
    x_bar = iterates.mean(axis=0)
    return IterationRecord(
        k=k + 1,
        grad_norm_sq=global_gradient_norm_sq(instance, x_bar),
        consensus_err=metrics.consensus_error(iterates),
        component_evals=0,
        comms=0,
        model_time=0.0,
        conservation_residual=_conservation_residual(states, config.rho),
    )


def _inner_average_gradients(
    instance: ProblemInstance, inner_per_agent: list[list[np.ndarray]], tau: int
) -> list[np.ndarray]:
    n = len(inner_per_agent)
    averages = []
    for t in range(tau):
        total = np.zeros(instance.dimension)
        for i in range(n):
            total += local_full_gradient(instance, i, inner_per_agent[i][t])
        averages.append(total / n)
    return averages


def simulate_replicate(
    instance: ProblemInstance,
    topology: Topology,
    config: RunConfig,
    replicate: int,
    estimate_recorder: list | None = None,
) -> ReplicateTrace:
    """Run one replicate for the configured iteration budget.

    The record list starts with the initial state at k = 0.  Divergence
    truncates it and marks the replicate; the epoch gradient metric, when
    enabled, is attached to the record the epoch started from (its true
    gradients are measurement overhead and never hit the counters).
    """
    x0 = initial_iterates(config, topology.num_agents, instance.dimension, replicate)
    states = init_states(instance, topology, config, x0)
    rngs = _agent_rngs(config, topology.num_agents, replicate)
    cost = config.cost_model()
    m_max = instance.max_points

    iterates = np.stack([s.x for s in states])
    x_bar = iterates.mean(axis=0)
    records = [
        IterationRecord(
            k=0,
            grad_norm_sq=global_gradient_norm_sq(instance, x_bar),
            consensus_err=metrics.consensus_error(iterates),
            component_evals=0,
            comms=0,
            model_time=0.0,
            conservation_residual=_conservation_residual(states, config.rho),
        )
    ]

    model_time = 0.0
    cum_evals = 0
    cum_comms = 0
    status = "completed"
    diverged_at = None
    for k in range(config.outer_iterations):
        evals_before = [s.counter.component_gradient_evals for s in states]
        epoch_start_mean = np.stack([s.x for s in states]).mean(axis=0)
        inner_collector: list[list[np.ndarray]] | None = [] if config.record_dk else None
        try:
            record = outer_step(
                states,
                instance,
                topology,
                config,
                k,
                rngs=rngs,
                inner_collector=inner_collector,
                estimate_recorder=estimate_recorder,
            )
        except DivergenceError as err:
            status = "diverged"
            diverged_at = err.outer_iteration
            break
        deltas = [
            s.counter.component_gradient_evals - before
            for s, before in zip(states, evals_before)
        ]
        cum_evals += max(deltas)
        cum_comms += sum(len(s.z) for s in states)
        model_time += metrics.iteration_charge(
            cost, config.variant, config.tau, m_max, config.batch_size, k
        )
        record.component_evals = cum_evals
        record.comms = cum_comms
        record.model_time = model_time
        if config.record_dk:
            inner_averages = _inner_average_gradients(instance, inner_collector, config.tau)
            records[-1].d_k = metrics.compute_dk(
                instance, epoch_start_mean, inner_averages, config.tau
            )
        records.append(record)
    return ReplicateTrace(
        replicate=replicate, status=status, records=records, diverged_at=diverged_at
    )


def run(instance: ProblemInstance, topology: Topology, config: RunConfig) -> Trace:
    """Run all Monte Carlo replicates and aggregate their records.

    Replicates share the problem data; initialization and estimator
    randomness vary per replicate.  Divergence of a replicate is recorded,
    not fatal.  Two runs with the same configuration produce bit-identical
    traces.
    """
    replicates = [
        simulate_replicate(instance, topology, config, r)
        for r in range(config.monte_carlo_runs)
    ]
    return metrics.aggregate_replicates(asdict(config), replicates)
