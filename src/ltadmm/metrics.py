"""Convergence metrics, stacked and aggregated traces, and the abstract cost table.

A run's replicates come as one stacked record, :class:`Replicates`: each
metric is one (K+1, R) array, row k the state after k outer iterations and
column r replicate r.  Aggregation reduces the columns of the surviving
replicates along the replicate axis, and the aggregated trace is a dict of
the CSV columns, in CSV order.

Time is measured in abstract units: ``t_g`` per component-gradient
evaluation and ``t_c`` per synchronous communication round, the two cost
constants of a :class:`~ltadmm.algorithms.RunConfig`.  Each solver
variant's per-iteration charge follows from its schedule of table refreshes
and batch steps (:func:`refresh_steps`), which the engine reads too; the
simulator's evaluation counters reproduce those charges exactly.
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
    "Replicates",
    "Trace",
    "compute_dk",
    "consensus_error",
    "iteration_charge",
    "iteration_evals",
    "reference_charges",
    "refresh_steps",
    "aggregate_replicates",
    "with_model_time",
]


@dataclass
class Replicates:
    """Per-iteration metrics of a stack of R Monte Carlo replicates.

    Row k of every metric array is the state after k outer iterations and
    column r is replicate r of the stack, shape (K+1, R).  A replicate that
    diverged in outer iteration e (``diverged_at[r] == e``; None for a
    survivor) keeps the state it reached there: its column is NaN after row
    e.  ``d_k[k]`` is the gradient metric of the local-training epoch
    *starting* at state k (squared mean-iterate gradient plus the averaged
    squared inner-average gradients); it is NaN for the final state, for a
    diverged replicate from row e on, and everywhere when its recording is
    disabled.  The counters are cumulative and the same for every
    replicate, one (K+1,) vector each; ``component_evals`` is the slowest
    agent's tally.  Model time is not a replicate metric: it depends on the
    cost constants only, and :func:`with_model_time` adds it to the
    aggregated trace.
    """

    grad_norm_sq: np.ndarray
    consensus_err: np.ndarray
    conservation_residual: np.ndarray
    d_k: np.ndarray
    component_evals: np.ndarray
    comms: np.ndarray
    diverged_at: list[int | None]


@dataclass
class Trace:
    """Aggregated result of a Monte Carlo batch plus its stacked replicates.

    ``columns`` maps each CSV column name to its array, in CSV order;
    ``d_k_mean`` is present only when the epoch metric was recorded.
    """

    columns: dict[str, np.ndarray]
    replicates: Replicates
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


def refresh_steps(variant: str, tau: int, k: int) -> int:
    """How many inner steps of outer iteration k refresh the gradient table; they come first.

    This is the one statement of the variants' schedule.  A refresh step
    recomputes every stream's table at its iterate and uses the table mean,
    the exact local gradient; every other inner step draws a batch.
    ``exact`` refreshes at every step, ``lt_admm`` never, ``lt_admm_vr`` at
    the first step of every epoch, and ``lt_admm_vr_v2`` at the first step
    of k = 0 only, its table carrying over between epochs.
    """
    try:
        return {"exact": tau, "lt_admm": 0, "lt_admm_vr": 1, "lt_admm_vr_v2": int(k == 0)}[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None


def iteration_evals(variant: str, tau: int, m_i_max: int, batch_size: int, k: int) -> int:
    """Component evaluations the slowest agent performs in outer iteration k.

    Each of the r = :func:`refresh_steps` refreshes costs m evaluations and
    each of the other tau - r steps one batch: ``r * m + (tau - r) * batch``.
    This is the cost model's reference for the counters the engine keeps.
    """
    refreshes = refresh_steps(variant, tau, k)
    return refreshes * m_i_max + (tau - refreshes) * batch_size


def iteration_charge(config: RunConfig, m_i_max: int, k: int) -> float:
    """Model time that ``config`` consumes in outer iteration k (one comm round included)."""
    evals = iteration_evals(config.variant, config.tau, m_i_max, config.batch_size, k)
    return evals * config.t_g + config.t_c


def reference_charges(config: RunConfig, m_i_max: int) -> dict[str, float]:
    """Per-tau-iterations charges of reference algorithms at ``config``'s tau and costs.

    These algorithms are not simulated; the dictionary lets reports place
    their nominal time cost next to the implemented variants.
    """
    tau, t_g, t_c = config.tau, config.t_g, config.t_c
    return {
        "led_kgt": tau * t_g + 2.0 * t_c,
        "gt_sarah": (m_i_max + tau - 1) * t_g + 2.0 * tau * t_c,
        "gt_saga": tau * (t_g + 2.0 * t_c),
        "lt_admm": tau * t_g + t_c,
        "lt_admm_vr": (m_i_max + tau - 1) * t_g + t_c,
    }


def aggregate_replicates(replicates: Replicates, record_dk: bool) -> Trace:
    """Average the surviving replicates' metrics row by row.

    Each metric's survivor columns are taken as one C-ordered (K+1, S)
    array and reduced along its last axis, so every row is summed in the
    order of a 1-D mean over the survivors.  Diverged replicates are
    excluded from the averages but kept in the trace; if every replicate
    diverged every column is empty.  The columns hold no ``model_time``;
    :func:`with_model_time` adds it.
    """
    survivors = [r for r, at in enumerate(replicates.diverged_at) if at is None]
    rows = len(replicates.comms) if survivors else 0

    def reduce(statistic, column: np.ndarray) -> np.ndarray:
        if not survivors:
            return np.empty(0)  # reducing no replicates would warn
        return statistic(column.take(survivors, axis=1), axis=1)

    columns = {
        "k": np.arange(rows),
        "grad_norm_sq_mean": reduce(np.mean, replicates.grad_norm_sq),
        "grad_norm_sq_std": reduce(np.std, replicates.grad_norm_sq),
    }
    if record_dk:
        columns["d_k_mean"] = reduce(np.mean, replicates.d_k)
    columns["consensus_err_mean"] = reduce(np.mean, replicates.consensus_err)
    columns["component_evals"] = replicates.component_evals[:rows]
    columns["comms"] = replicates.comms[:rows]
    return Trace(
        columns=columns,
        replicates=replicates,
        num_diverged=len(replicates.diverged_at) - len(survivors),
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
    charges = [iteration_charge(config, m_i_max, k) for k in range(rows - 1)]
    model_time = np.concatenate([[0.0], np.cumsum(charges)]) if rows else np.empty(0)
    columns = {"k": trace.columns["k"], "model_time": model_time}
    columns.update((name, column) for name, column in trace.columns.items() if name != "model_time")
    return Trace(columns=columns, replicates=trace.replicates, num_diverged=trace.num_diverged)
