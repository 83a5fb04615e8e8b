"""Empirical-risk problem instances for the multi-agent solvers.

Each agent i holds m_i data points (feature vector, +/-1 label) and its local
cost is the average of per-point component losses.  Two loss families are
provided:

* ``logistic_nonconvex``: logistic loss with a smooth nonconvex coordinate
  regularizer ``epsilon * sum_l x_l^2 / (1 + x_l^2)``.  The regularizer is
  folded into *every* component loss, so the component average reproduces the
  regularized local cost and the variance-reduction gradient table treats all
  components uniformly.
* ``least_squares``: plain quadratic loss, convex with a certifiable optimum;
  used to exercise the exact-convergence guarantees.

Datasets are synthesized from two Gaussian class clusters with unit-variance
noise and are fully determined by an integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "LOGISTIC_NONCONVEX",
    "LEAST_SQUARES",
    "ProblemInstance",
    "SmoothnessEstimate",
    "generate_classification",
    "component_gradients",
    "batch_mean_gradient",
    "local_full_gradient",
    "global_gradient",
    "global_gradient_norm_sq",
    "smoothness_constant",
]

LOGISTIC_NONCONVEX = "logistic_nonconvex"
LEAST_SQUARES = "least_squares"
KINDS = (LOGISTIC_NONCONVEX, LEAST_SQUARES)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Per-agent datasets plus the loss family they are scored with.

    Attributes:
        kind: one of ``logistic_nonconvex`` or ``least_squares``.
        features: per-agent arrays of shape (m_i, n).
        labels: per-agent arrays of shape (m_i,) with values in {-1, +1}.
        epsilon: regularization weight (used by the logistic family only).
    """

    kind: str
    features: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0 <= self.epsilon < np.inf:  # NaN too
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if len(self.features) != len(self.labels) or not self.features:
            raise ValueError("features and labels must pair up per agent")
        n = self.features[0].shape[1]
        for a, b in zip(self.features, self.labels):
            if a.ndim != 2 or a.shape[1] != n or a.shape[0] < 1:
                raise ValueError("every agent needs >= 1 points of equal dimension")
            if b.shape != (a.shape[0],):
                raise ValueError("label vector shape mismatch")

    @property
    def num_agents(self) -> int:
        return len(self.features)

    @property
    def dimension(self) -> int:
        return self.features[0].shape[1]

    def num_points(self, agent: int) -> int:
        return self.features[agent].shape[0]

    @property
    def min_points(self) -> int:
        return min(a.shape[0] for a in self.features)

    @property
    def max_points(self) -> int:
        return max(a.shape[0] for a in self.features)


@dataclass(frozen=True)
class SmoothnessEstimate:
    """Lipschitz constant of the local gradients and how it was obtained."""

    L: float
    method: str


def generate_classification(
    seed: int,
    n_agents: int,
    dimension: int,
    points_per_agent: int,
    *,
    kind: str = LOGISTIC_NONCONVEX,
    epsilon: float = 0.01,
    class_separation: float = 3.0,
) -> ProblemInstance:
    """Synthesize a balanced two-cluster classification dataset.

    Features of class +/-1 are drawn around two antipodal cluster centers
    (``class_separation`` apart along a random direction) with unit-variance
    Gaussian noise.  Identical seeds give bit-identical datasets.
    """
    if n_agents < 1 or dimension < 1 or points_per_agent < 1:
        raise ValueError("all sizes must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dimension)
    direction /= np.linalg.norm(direction)
    center = 0.5 * class_separation * direction

    features = []
    labels = []
    for _ in range(n_agents):
        m = points_per_agent
        lab = np.ones(m)
        lab[m // 2 :] = -1.0
        lab = lab[rng.permutation(m)]
        feat = lab[:, None] * center[None, :] + rng.normal(size=(m, dimension))
        features.append(feat)
        labels.append(lab)
    return ProblemInstance(
        kind=kind,
        features=tuple(features),
        labels=tuple(labels),
        epsilon=epsilon,
    )


def _regularizer_gradient(x: np.ndarray) -> np.ndarray:
    denom = 1.0 + x * x
    return 2.0 * x / (denom * denom)


def _check_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input point")


def component_gradients(
    instance: ProblemInstance, agent: int, indices: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Stacked component gradients at ``x`` for the given point indices.

    Returns an array of shape (len(indices), n); repeated indices yield
    repeated rows.
    """
    feats = instance.features[agent][indices]
    labs = instance.labels[agent][indices]
    margins = feats @ x
    if instance.kind == LOGISTIC_NONCONVEX:
        s = expit(-labs * margins)
        rows = (-labs * s)[:, None] * feats
        rows += instance.epsilon * _regularizer_gradient(x)[None, :]
        return rows
    return (margins - labs)[:, None] * feats


def batch_mean_gradient(
    instance: ProblemInstance, agent: int, indices: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Mean of component gradients over an index multiset (with multiplicity)."""
    if len(indices) == 1:
        # fast path used by the unit-batch solvers
        return component_gradients(instance, agent, indices, x)[0]
    return component_gradients(instance, agent, indices, x).mean(axis=0)


def local_full_gradient(instance: ProblemInstance, agent: int, x: np.ndarray) -> np.ndarray:
    """Exact local gradient: arithmetic mean of all component gradients."""
    _check_finite(x)
    feats = instance.features[agent]
    labs = instance.labels[agent]
    margins = feats @ x
    m = feats.shape[0]
    if instance.kind == LOGISTIC_NONCONVEX:
        s = expit(-labs * margins)
        g = feats.T @ (-labs * s) / m
        return g + instance.epsilon * _regularizer_gradient(x)
    return feats.T @ (margins - labs) / m


def global_gradient(instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Gradient of the network objective at a common point."""
    _check_finite(x)
    total = np.zeros(instance.dimension)
    for i in range(instance.num_agents):
        total += local_full_gradient(instance, i, x)
    return total / instance.num_agents


def global_gradient_norm_sq(instance: ProblemInstance, x_bar: np.ndarray) -> float:
    """Squared Euclidean norm of the network-objective gradient at ``x_bar``."""
    g = global_gradient(instance, x_bar)
    return float(g @ g)


def _power_iteration_largest(matrix: np.ndarray, rel_tol: float = 1e-8, max_iters: int = 100_000) -> float:
    v = np.ones(matrix.shape[0]) / np.sqrt(matrix.shape[0])
    value = 0.0
    for _ in range(max_iters):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_value = float(v @ (matrix @ v))
        if abs(new_value - value) <= rel_tol * max(abs(new_value), 1e-300):
            return new_value
        value = new_value
    return value


def smoothness_constant(instance: ProblemInstance) -> SmoothnessEstimate:
    """Upper bound on the Lipschitz constant of every local gradient.

    For the logistic family this is the analytic bound
    ``max_{i,h} ||a_{i,h}||^2 / 4 + 2 * epsilon`` (logistic curvature is at
    most 1/4, the regularizer's per-coordinate curvature at most 2 in absolute
    value).  For least squares it is the largest local Hessian eigenvalue,
    found by power iteration to relative tolerance 1e-8.
    """
    if instance.kind == LOGISTIC_NONCONVEX:
        max_sq = max(float(np.max(np.sum(a * a, axis=1))) for a in instance.features)
        return SmoothnessEstimate(L=0.25 * max_sq + 2.0 * instance.epsilon, method="analytic_bound")
    best = 0.0
    for a in instance.features:
        hessian = a.T @ a / a.shape[0]
        best = max(best, _power_iteration_largest(hessian))
    return SmoothnessEstimate(L=best, method="power_iteration")
