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
from functools import cached_property

import numpy as np

__all__ = [
    "LOGISTIC_NONCONVEX",
    "LEAST_SQUARES",
    "ProblemInstance",
    "SmoothnessEstimate",
    "generate_classification",
    "component_gradients",
    "local_gradients",
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

    @cached_property
    def sizes(self) -> np.ndarray:
        """Number of points m_i of every agent, shape (N,)."""
        return np.array([a.shape[0] for a in self.features])

    @property
    def min_points(self) -> int:
        return int(self.sizes.min())

    @cached_property
    def max_points(self) -> int:
        return int(self.sizes.max())

    @cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Features and labels of point h of agent i at row i * m_max + h.

        Shapes (N * m_max, n) and (N * m_max,); the rows past each agent's
        m_i are zero.
        """
        features = np.zeros((self.num_agents, self.max_points, self.dimension))
        labels = np.zeros((self.num_agents, self.max_points))
        for i, (a, b) in enumerate(zip(self.features, self.labels)):
            features[i, : len(b)] = a
            labels[i, : len(b)] = b
        return features.reshape(-1, self.dimension), labels.ravel()


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


def _logistic(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) elementwise, without overflow in either tail."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _regularizer_gradient(x: np.ndarray) -> np.ndarray:
    """2 x / (1 + x^2)^2 elementwise, in one temporary."""
    out = x * x
    out += 1.0
    out *= out
    np.divide(x, out, out=out)
    out *= 2.0
    return out


def _loss_weights(instance: ProblemInstance, margins: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Derivative of each component's data loss in its margin ``a . x``."""
    if instance.kind == LOGISTIC_NONCONVEX:
        return -labels * _logistic(-labels * margins)
    return margins - labels


def _check_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input point")


def component_gradients(instance: ProblemInstance, x: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Component gradients of every stream at its own point.

    ``x`` stacks one point per stream, shape (..., N, n): row i of each
    stack belongs to agent i.  ``indices`` lists b component indices per
    stream, stream-major and flat, so it has ``b * x[..., 0].size`` entries
    and each must lie below m_max.  Returns shape (..., N, b, n): entry
    (..., i, j) is the gradient of agent i's component ``indices`` names at
    that place, at agent i's point; repeated indices yield repeated rows.

    An index in [m_i, m_max) names a zero padding row of agent i: its
    gradient is 0 for least squares and the regularizer gradient for the
    logistic family.  Evaluating every index below m_max, as a table refresh
    does, therefore computes m_max rows per stream even where m_i < m_max.
    """
    features, labels = instance.padded
    N = instance.num_agents
    position = indices.reshape(x.shape[:-1] + (-1,)) + instance.max_points * np.arange(N)[:, None]
    feats = features.take(position, axis=0)
    labs = labels.take(position)
    margins = np.einsum("...j,...j->...", feats, x[..., None, :])
    feats *= _loss_weights(instance, margins, labs)[..., None]  # the gathered copy becomes the rows
    if instance.kind == LOGISTIC_NONCONVEX:
        feats += (instance.epsilon * _regularizer_gradient(x))[..., None, :]
    return feats


def local_full_gradient(instance: ProblemInstance, agent: int, x: np.ndarray) -> np.ndarray:
    """Exact local gradient of one agent: the mean of its component gradients.

    ``x`` is one point of shape (n,) or a stack of points (..., n); the
    result has the shape of ``x``.  The per-agent form of
    :func:`local_gradients`, kept as its reference.
    """
    _check_finite(x)
    feats = instance.features[agent]
    labs = instance.labels[agent]
    g = _loss_weights(instance, x @ feats.T, labs) @ feats / feats.shape[0]
    if instance.kind == LOGISTIC_NONCONVEX:
        g += instance.epsilon * _regularizer_gradient(x)
    return g


def local_gradients(instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Every agent's exact local gradient at its own row of ``x``.

    ``x`` stacks one point per agent, shape (..., N, n); row i of the result
    is agent i's gradient at row i of ``x``.  The agents are evaluated
    together on the padded features, agent axis leading, in two batched
    matrix products; padded rows have zero features and labels and add
    nothing.
    """
    _check_finite(x)
    features, labels = instance.padded
    N, n = instance.num_agents, instance.dimension
    feats = features.reshape(N, -1, n)
    labs = labels.reshape(N, 1, -1)
    points = np.moveaxis(x, -2, 0).reshape(N, -1, n)
    margins = points @ feats.transpose(0, 2, 1)  # (N, P, m_max)
    g = _loss_weights(instance, margins, labs) @ feats
    g /= instance.sizes[:, None, None]
    g = np.moveaxis(g.reshape((N,) + x.shape[:-2] + (n,)), 0, -2)
    if instance.kind == LOGISTIC_NONCONVEX:
        g += instance.epsilon * _regularizer_gradient(x)
    return g


def global_gradient(instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Gradient of the network objective at a common point (or a stack of them)."""
    shape = x.shape[:-1] + (instance.num_agents, x.shape[-1])
    return local_gradients(instance, np.broadcast_to(x[..., None, :], shape)).mean(axis=-2)


def global_gradient_norm_sq(instance: ProblemInstance, x_bar: np.ndarray):
    """Squared Euclidean norm of the network-objective gradient at ``x_bar``.

    A float for one point of shape (n,), an array of shape (P,) for a stack
    of P points.
    """
    g = global_gradient(instance, x_bar)
    return np.einsum("...j,...j->...", g, g)[()]


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
