"""Gradient estimators with evaluation accounting.

Three estimators feed the local-training loop: the exact local gradient, a
mini-batch average, and a variance-reduced estimator backed by a per-agent
table of stored component gradients.  The table keeps one gradient per data
point plus their running sum, so the correction average is O(1) per step and
a memory write never recomputes a gradient that the estimate just produced.

Every component-gradient evaluation is tallied in an :class:`EvalCounter`;
the cost model converts those tallies into abstract time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import (
    ProblemInstance,
    batch_mean_gradient,
    component_gradients,
)

__all__ = [
    "EvalCounter",
    "SagaTable",
    "draw_batch",
    "sgd_estimate",
    "saga_refresh",
    "saga_estimate_update",
]


@dataclass
class EvalCounter:
    """Cumulative component-gradient evaluations."""

    component_gradient_evals: int = 0


class SagaTable:
    """Stored component gradients of one agent plus their running sum.

    ``gradients[h]`` holds the most recently stored gradient of component h;
    ``running_sum`` always equals the exact column sum of the table and is
    maintained incrementally.
    """

    def __init__(self, num_components: int, dimension: int):
        self.gradients = np.zeros((num_components, dimension))
        self.running_sum = np.zeros(dimension)

    @property
    def num_components(self) -> int:
        return self.gradients.shape[0]

    def mean(self) -> np.ndarray:
        """Average of the stored gradients."""
        return self.running_sum / self.num_components


def draw_batch(
    rng: np.random.Generator,
    num_components: int,
    batch_size: int,
    *,
    replacement: bool = True,
) -> np.ndarray:
    """Draw a batch of component indices uniformly at random.

    With replacement the batch is a multiset; without replacement it is a
    uniform subset and requires ``batch_size <= num_components``.
    """
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    if replacement:
        return rng.integers(0, num_components, size=batch_size)
    if batch_size > num_components:
        raise ValueError("batch size exceeds components when sampling without replacement")
    return rng.choice(num_components, size=batch_size, replace=False)


def _validate_batch(instance: ProblemInstance, agent: int, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch)
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    m = instance.num_points(agent)
    if batch.min() < 0 or batch.max() >= m:
        raise ValueError("batch contains invalid component indices")
    return batch


def sgd_estimate(
    instance: ProblemInstance,
    agent: int,
    x: np.ndarray,
    batch: np.ndarray,
    counter: EvalCounter,
) -> np.ndarray:
    """Mini-batch gradient estimate: mean of the batch's component gradients.

    Repeated indices count with multiplicity.  Charges ``len(batch)``
    evaluations.
    """
    batch = _validate_batch(instance, agent, batch)
    counter.component_gradient_evals += len(batch)
    return batch_mean_gradient(instance, agent, batch, x)


def saga_refresh(
    table: SagaTable,
    instance: ProblemInstance,
    agent: int,
    anchor_x: np.ndarray,
    counter: EvalCounter,
) -> None:
    """Recompute every stored gradient at ``anchor_x``; charges m evaluations."""
    m = table.num_components
    if m != instance.num_points(agent):
        raise ValueError("table size does not match the agent's dataset")
    grads = component_gradients(instance, agent, np.arange(m), anchor_x)
    table.gradients[:] = grads
    table.running_sum = grads.sum(axis=0)
    counter.component_gradient_evals += m


def saga_estimate_update(
    table: SagaTable,
    instance: ProblemInstance,
    agent: int,
    x: np.ndarray,
    batch: np.ndarray,
    counter: EvalCounter,
) -> np.ndarray:
    """Fused estimate-then-store step used by the solvers.

    Computes the variance-reduced estimate at ``x`` and writes the freshly
    evaluated component gradients back into the table, reusing them instead of
    recomputing.  Total charge: ``len(batch)`` evaluations.
    """
    batch = _validate_batch(instance, agent, batch)
    counter.component_gradient_evals += len(batch)
    m = table.num_components
    if len(batch) == 1:
        h = int(batch[0])
        fresh = component_gradients(instance, agent, batch, x)[0]
        estimate = fresh - table.gradients[h] + table.running_sum / m
        table.running_sum = table.running_sum + (fresh - table.gradients[h])
        table.gradients[h] = fresh
        return estimate
    unique, inverse = np.unique(batch, return_inverse=True)
    fresh_unique = component_gradients(instance, agent, unique, x)
    fresh_rows = fresh_unique[inverse]
    estimate = (fresh_rows - table.gradients[batch]).mean(axis=0) + table.running_sum / m
    table.running_sum = table.running_sum + (fresh_unique - table.gradients[unique]).sum(axis=0)
    table.gradients[unique] = fresh_unique
    return estimate
