"""Convergence metrics, per-replicate and aggregated traces, and the abstract cost model.

A replicate's trace holds one array per metric; entry k is the state after k
outer iterations.  Aggregation stacks the surviving replicates of a metric
into a (K+1, R) array and reduces it along the replicate axis, and the
aggregated trace is a dict of the CSV columns, in CSV order.

Time is measured in abstract units: ``t_g`` per component-gradient
evaluation and ``t_c`` per synchronous communication round.  Each solver
variant has a closed-form per-iteration charge; the simulator's evaluation
counters reproduce those charges exactly, which the test suite asserts.
The cost constants never reach the solver: a run's ``model_time`` column is
the running sum of those charges, built after the run by
:func:`with_model_time`, so runs that differ only in ``t_g``/``t_c`` share
one trajectory.

The per-round charge bills the slowest agent (the synchronous barrier waits
for it), so heterogeneous dataset sizes enter through ``m_i_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .algorithms import RunConfig

__all__ = [
    "ReplicateTrace",
    "Trace",
    "CostModel",
    "compute_dk",
    "consensus_error",
    "iteration_charge",
    "iteration_evals",
    "reference_charges",
    "aggregate_replicates",
    "with_model_time",
]


@dataclass
class ReplicateTrace:
    """Per-iteration metrics of one Monte Carlo replicate, one array each.

    Entry k of every array is the state after k outer iterations; a diverged
    replicate's arrays stop at the last state it reached.  ``d_k[k]`` is the
    gradient metric of the local-training epoch *starting* at state k
    (squared mean-iterate gradient plus the averaged squared inner-average
    gradients); it is NaN for the final state or when its recording is
    disabled.  Counters are cumulative; ``component_evals`` is the slowest
    agent's tally.  Model time is not a replicate metric: it depends on the
    cost constants only, and :func:`with_model_time` adds it to the
    aggregated trace.
    """

    replicate: int
    status: str  # "completed" or "diverged"
    grad_norm_sq: np.ndarray
    consensus_err: np.ndarray
    conservation_residual: np.ndarray
    component_evals: np.ndarray
    comms: np.ndarray
    d_k: np.ndarray
    diverged_at: int | None = None


@dataclass
class Trace:
    """Aggregated result of a Monte Carlo batch plus the raw replicates.

    ``columns`` maps each CSV column name to its array, in CSV order;
    ``d_k_mean`` is present only when the epoch metric was recorded.
    """

    columns: dict[str, np.ndarray]
    replicates: list[ReplicateTrace]
    num_diverged: int


def compute_dk(
    grad_norm_sq: float | np.ndarray,
    inner_average_gradients: list[np.ndarray] | np.ndarray,
    tau: int,
):
    """Gradient metric of one local-training epoch, per replicate.

    ``grad_norm_sq`` is the squared network gradient at the epoch's starting
    mean iterate.  ``inner_average_gradients`` must hold, for each of the
    ``tau`` inner steps, the across-agent average of the true local gradients
    at the inner iterates.  One replicate passes a float and ``tau`` vectors
    of shape (n,) and gets a float; L stacked replicates pass an array of
    shape (L,) and one of shape (tau, L, n) and get one value per replicate.
    The expectation over estimator noise is realized as the Monte Carlo mean
    at the runner level.
    """
    if len(inner_average_gradients) != tau:
        raise ValueError(
            f"expected {tau} inner average gradients, got {len(inner_average_gradients)}"
        )
    inner = np.asarray(inner_average_gradients)
    return (grad_norm_sq + np.einsum("...j,...j->...", inner, inner).sum(axis=0) / tau)[()]


def consensus_error(iterates: np.ndarray):
    """Largest distance of any agent's iterate from the network average.

    ``iterates`` has shape (N, n), giving a float, or (R, N, n) for R
    replicates, giving one value per replicate.
    """
    x_bar = iterates.mean(axis=-2, keepdims=True)
    return np.max(np.linalg.norm(iterates - x_bar, axis=-1), axis=-1)


@dataclass(frozen=True)
class CostModel:
    """Abstract per-operation times: gradient evaluation and comm round."""

    t_g: float = 1.0
    t_c: float = 1.0

    def __post_init__(self) -> None:
        if not (0 <= self.t_g < np.inf and 0 <= self.t_c < np.inf):  # NaN too
            raise ValueError("cost constants must be finite and nonnegative")


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


def aggregate_replicates(replicates: list[ReplicateTrace], record_dk: bool) -> Trace:
    """Average the surviving replicates' metrics index by index.

    Each metric is stacked into a (K+1, R) array and reduced along its last
    axis, so every row is summed in the order of a 1-D mean over the
    replicates.  Counters are the same in every replicate.  Diverged
    replicates are excluded from the averages but kept in the trace; if every
    replicate diverged every column is empty.  The columns hold no
    ``model_time``; :func:`with_model_time` adds it.
    """
    survivors = [r for r in replicates if r.status == "completed"]

    def stacked(name: str) -> np.ndarray:
        if not survivors:
            return np.empty((0, 1))  # no rows; column 0 stands in for a replicate
        return np.stack([getattr(r, name) for r in survivors], axis=1)

    grads = stacked("grad_norm_sq")
    columns = {
        "k": np.arange(len(grads)),
        "grad_norm_sq_mean": grads.mean(axis=1),
        "grad_norm_sq_std": grads.std(axis=1),
    }
    if record_dk:
        columns["d_k_mean"] = stacked("d_k").mean(axis=1)
    columns["consensus_err_mean"] = stacked("consensus_err").mean(axis=1)
    columns["component_evals"] = stacked("component_evals")[:, 0]
    columns["comms"] = stacked("comms")[:, 0]
    return Trace(
        columns=columns,
        replicates=replicates,
        num_diverged=len(replicates) - len(survivors),
    )


def with_model_time(trace: Trace, config: RunConfig, m_i_max: int) -> Trace:
    """``trace`` with the model-time column of ``config``'s cost constants.

    Entry k is the model time after k outer iterations: 0 followed by the
    running sum of :func:`iteration_charge` (a sequential sum, so each entry
    has the bits of adding the charges one by one).  The column goes right
    after ``k``, replacing any earlier one, and is empty when the trace has
    no rows.  The result shares the arrays and replicates of ``trace`` but
    has its own columns dict.
    """
    rows = len(trace.columns["k"])
    cost = config.cost_model()
    charges = [
        iteration_charge(cost, config.variant, config.tau, m_i_max, config.batch_size, k)
        for k in range(rows - 1)
    ]
    model_time = np.concatenate([[0.0], np.cumsum(charges)]) if rows else np.empty(0)
    columns = {"k": trace.columns["k"], "model_time": model_time}
    columns.update((name, column) for name, column in trace.columns.items() if name != "model_time")
    return Trace(columns=columns, replicates=trace.replicates, num_diverged=trace.num_diverged)
