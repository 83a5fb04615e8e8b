"""Convergence metrics, per-iteration records, and the abstract cost model.

Time is measured in abstract units: ``t_g`` per component-gradient
evaluation and ``t_c`` per synchronous communication round.  Each solver
variant has a closed-form per-iteration charge; the simulator's evaluation
counters reproduce those charges exactly, which the test suite asserts.

The per-round charge bills the slowest agent (the synchronous barrier waits
for it), so heterogeneous dataset sizes enter through ``m_i_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import ProblemInstance, global_gradient

__all__ = [
    "IterationRecord",
    "ReplicateTrace",
    "AggregateRecord",
    "Trace",
    "CostModel",
    "compute_dk",
    "consensus_error",
    "iteration_charge",
    "iteration_evals",
    "reference_charges",
    "aggregate_replicates",
]


@dataclass
class IterationRecord:
    """State metrics after ``k`` outer iterations of one replicate.

    ``d_k`` is the gradient metric of the local-training epoch *starting* at
    this iterate (squared mean-iterate gradient plus the averaged squared
    inner-average gradients); it is NaN for the final record or when its
    recording is disabled.  Counters are cumulative; ``component_evals`` is
    the slowest agent's tally.
    """

    k: int
    grad_norm_sq: float
    consensus_err: float
    component_evals: int
    comms: int
    model_time: float
    conservation_residual: float
    d_k: float = math.nan


@dataclass
class ReplicateTrace:
    """Per-iteration records of one Monte Carlo replicate."""

    replicate: int
    status: str  # "completed" or "diverged"
    records: list[IterationRecord]
    diverged_at: int | None = None


@dataclass
class AggregateRecord:
    """Replicate-averaged metrics at one iteration index."""

    k: int
    model_time: float
    grad_norm_sq_mean: float
    grad_norm_sq_std: float
    consensus_err_mean: float
    component_evals: int
    comms: int
    d_k_mean: float = math.nan


@dataclass
class Trace:
    """Aggregated result of a Monte Carlo batch plus the raw replicates."""

    config: dict
    records: list[AggregateRecord]
    replicates: list[ReplicateTrace]
    num_diverged: int
    stopping: dict = field(default_factory=dict)


def compute_dk(
    instance: ProblemInstance,
    x_bar: np.ndarray,
    inner_average_gradients: list[np.ndarray],
    tau: int,
) -> float:
    """Single-replicate gradient metric of one local-training epoch.

    ``inner_average_gradients`` must hold, for each of the ``tau`` inner
    steps, the across-agent average of the true local gradients at the inner
    iterates.  The expectation over estimator noise is realized as the Monte
    Carlo mean at the runner level.
    """
    if len(inner_average_gradients) != tau:
        raise ValueError(
            f"expected {tau} inner average gradients, got {len(inner_average_gradients)}"
        )
    g = global_gradient(instance, x_bar)
    value = float(g @ g)
    inner = sum(float(v @ v) for v in inner_average_gradients) / tau
    return value + inner


def consensus_error(iterates: np.ndarray) -> float:
    """Largest distance of any agent's iterate from the network average."""
    x_bar = iterates.mean(axis=0)
    return float(np.max(np.linalg.norm(iterates - x_bar[None, :], axis=1)))


@dataclass(frozen=True)
class CostModel:
    """Abstract per-operation times: gradient evaluation and comm round."""

    t_g: float = 1.0
    t_c: float = 1.0

    def __post_init__(self) -> None:
        if self.t_g < 0 or self.t_c < 0:
            raise ValueError("cost constants must be nonnegative")


def iteration_evals(variant: str, tau: int, m_i_max: int, batch_size: int, k: int) -> int:
    """Component evaluations the slowest agent performs in outer iteration k.

    The variance-reduced variant refreshes its table (m evaluations) and the
    first inner step reuses the fresh table at no cost, so an iteration costs
    ``m + (tau - 1) * batch``.  The no-refresh variant pays that only at
    k = 0 (its single table initialization) and ``tau * batch`` afterwards.
    """
    if variant == "exact":
        return tau * m_i_max
    if variant == "lt_admm":
        return tau * batch_size
    if variant == "lt_admm_vr":
        return m_i_max + (tau - 1) * batch_size
    if variant == "lt_admm_vr_v2":
        if k == 0:
            return m_i_max + (tau - 1) * batch_size
        return tau * batch_size
    raise ValueError(f"unknown variant {variant!r}")


def iteration_charge(
    model: CostModel, variant: str, tau: int, m_i_max: int, batch_size: int, k: int
) -> float:
    """Model time consumed by outer iteration k (one comm round included)."""
    return iteration_evals(variant, tau, m_i_max, batch_size, k) * model.t_g + model.t_c


def reference_charges(model: CostModel, tau: int, m_i_max: int) -> dict[str, float]:
    """Per-tau-iterations charges of reference algorithms, for annotation only.

    These algorithms are not simulated; the dictionary lets reports place
    their nominal time cost next to the implemented variants.
    """
    return {
        "led_kgt": tau * model.t_g + 2.0 * model.t_c,
        "gt_sarah": (m_i_max + tau - 1) * model.t_g + 2.0 * tau * model.t_c,
        "gt_saga": tau * (model.t_g + 2.0 * model.t_c),
        "lt_admm": tau * model.t_g + model.t_c,
        "lt_admm_vr": (m_i_max + tau - 1) * model.t_g + model.t_c,
    }


def aggregate_replicates(config: dict, replicates: list[ReplicateTrace]) -> Trace:
    """Average the surviving replicates' records index by index.

    Diverged replicates are excluded from the averages but kept in the trace;
    if every replicate diverged the aggregate record list is empty.
    """
    survivors = [r for r in replicates if r.status == "completed"]
    num_diverged = len(replicates) - len(survivors)
    records: list[AggregateRecord] = []
    if survivors:
        length = min(len(r.records) for r in survivors)
        for k in range(length):
            rows = [r.records[k] for r in survivors]
            grads = np.asarray([row.grad_norm_sq for row in rows])
            cons = np.asarray([row.consensus_err for row in rows])
            dks = np.asarray([row.d_k for row in rows])
            lead = rows[0]
            records.append(
                AggregateRecord(
                    k=lead.k,
                    model_time=lead.model_time,
                    grad_norm_sq_mean=float(grads.mean()),
                    grad_norm_sq_std=float(grads.std()),
                    consensus_err_mean=float(cons.mean()),
                    component_evals=lead.component_evals,
                    comms=lead.comms,
                    d_k_mean=float(dks.mean()) if not np.isnan(dks).any() else math.nan,
                )
            )
    return Trace(
        config=config,
        records=records,
        replicates=replicates,
        num_diverged=num_diverged,
    )
