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

Three dense kernels read the agents' rows zero-padded to m_max rows each
(``ProblemInstance.padded``): :func:`component_gradients` yields the
solvers' rows (batch steps, and through its row form the rows a table
refresh writes), :func:`local_gradients` every stream's exact local
gradient at its own point from products over its agent's rows alone (every
refresh step, as ``component_gradients(..., mean=True)``, and the
``record_dk`` metric), and :func:`global_gradient` the network gradient at
a common point (the ``grad_norm_sq`` metric).  A logistic row holds
q = -y a, the label folded into the features: its data-loss gradient is
sigma(q . x) q, which equals (-y sigma(-y a . x)) a bit for bit because y
is +/-1, so the logistic kernels read no labels and evaluate the loss in
place.  The weight epsilon joins the regularizer gradient's last scaling,
in the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "LOGISTIC_NONCONVEX",
    "LEAST_SQUARES",
    "ProblemInstance",
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

_CLASS_SEPARATION = 3.0


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Per-agent datasets plus the loss family they are scored with.

    Attributes:
        kind: one of ``logistic_nonconvex`` or ``least_squares``.
        features: per-agent arrays of shape (m_i, n), finite.
        labels: per-agent arrays of shape (m_i,); values in {-1, +1} for
            the logistic family, any finite value for least squares.
        epsilon: regularization weight (used by the logistic family only).
    """

    kind: str
    features: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]
    epsilon: float = 0.0
    _shaped: dict[tuple[str, tuple[int, ...]], np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )

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
            # the folded rows -y a of ``padded`` are exact only for y = +/-1
            if self.kind == LOGISTIC_NONCONVEX and not np.all(np.abs(b) == 1.0):
                raise ValueError("logistic labels must be -1 or +1")
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ValueError("features and labels must be finite")

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
        """Kernel rows and labels of point h of agent i at row i * m_max + h.

        Shapes (N * m_max, n) and (N * m_max,).  A row is the feature vector
        a for least squares and q = -y a for the logistic family.  The rows
        and labels past each agent's m_i are zero (-0.0 in logistic rows),
        so a padding row's data-loss gradient is +/-0 before the regularizer
        is added.
        """
        features = np.zeros((self.num_agents, self.max_points, self.dimension))
        labels = np.zeros((self.num_agents, self.max_points))
        for i, (a, b) in enumerate(zip(self.features, self.labels)):
            features[i, : len(b)] = a
            labels[i, : len(b)] = b
        labels = labels.ravel()
        return _kernel_rows(self, features.reshape(-1, self.dimension), labels), labels

    @cached_property
    def row_offsets(self) -> np.ndarray:
        """First padded row of every agent, i * m_max, shape (N, 1)."""
        return self.max_points * np.arange(self.num_agents)[:, None]

    def in_shape(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A per-agent column broadcast to ``shape`` (..., N, k), C-ordered and read-only.

        ``name`` is ``"offsets"`` for :attr:`row_offsets` or ``"sizes"`` for
        the sizes m_i as floats.  Each array is built on the first call with
        its shape and kept with the instance, so that the kernels add and
        divide operands of one shape.
        """
        array = self._shaped.get((name, shape))
        if array is None:
            column = self.row_offsets if name == "offsets" else self.sizes[:, None].astype(float)
            array = np.broadcast_to(column, shape).copy()
            array.flags.writeable = False
            self._shaped[name, shape] = array
        return array

    @cached_property
    def row_weights(self) -> np.ndarray:
        """Weight of every padded row in the network average, shape (N * m_max,).

        1 / (N m_i) on agent i's rows and 0 on its padding rows, so that a
        sum of weighted rows is the average over agents of each agent's mean.
        """
        real = np.arange(self.max_points) < self.sizes[:, None]
        return (real / (self.num_agents * self.sizes[:, None])).ravel()


def generate_classification(
    seed: int,
    n_agents: int,
    dimension: int,
    points_per_agent: int,
    *,
    kind: str = LOGISTIC_NONCONVEX,
    epsilon: float = 0.01,
) -> ProblemInstance:
    """Synthesize a balanced two-cluster classification dataset.

    Features of class +/-1 are drawn around two antipodal cluster centers
    (``_CLASS_SEPARATION`` apart along a random direction) with unit-variance
    Gaussian noise.  Identical seeds give bit-identical datasets.
    """
    if n_agents < 1 or dimension < 1 or points_per_agent < 1:
        raise ValueError("all sizes must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dimension)
    direction /= np.linalg.norm(direction)
    center = 0.5 * _CLASS_SEPARATION * direction

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


def _kernel_rows(instance: ProblemInstance, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The rows the kernels score: ``features`` for least squares, -y a for logistic."""
    if instance.kind == LOGISTIC_NONCONVEX:
        return -labels[:, None] * features
    return features


def _logistic(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-t)) elementwise, without overflow in either tail.

    Both exponents are at most 0: the numerator is exp(t) below 0 and 1
    above it, the denominator 1 + exp(-|t|).  Evaluated in place in at most
    two arrays of ``t``'s size, one of them ``out`` (which may be ``t``)
    when given; ``t`` is written only when it is ``out``.
    """
    denominator = np.abs(t)
    np.negative(denominator, out=denominator)
    np.exp(denominator, out=denominator)
    denominator += 1.0
    numerator = np.minimum(t, 0.0, out=out)
    np.exp(numerator, out=numerator)
    numerator /= denominator
    return numerator


def _regularizer_gradient(x: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """``weight`` times 2 x / (1 + x^2)^2 elementwise, in one temporary: (2 w) y
    rounds as w (2 y) while 2 w is finite, since doubling is exact."""
    out = x * x
    out += 1.0
    out *= out
    np.divide(x, out, out=out)
    out *= 2.0 * weight
    return out


def _loss_weights(instance: ProblemInstance, margins: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
    """Derivative of each component's data loss in its margin, written over ``margins``.

    ``margins`` is a fresh array of each kernel row's product with x: the
    weight is sigma(q . x) for a logistic row q = -y a, whose ``labels``
    are not read (None will do), and a . x - y for least squares.
    """
    if instance.kind == LOGISTIC_NONCONVEX:
        return _logistic(margins, out=margins)
    margins -= labels
    return margins


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("non-finite input point")


def component_gradients(
    instance: ProblemInstance,
    x: np.ndarray,
    indices: np.ndarray,
    *,
    mean: bool = False,
) -> np.ndarray:
    """Component gradients of every stream at its own point.

    ``x`` stacks one point per stream, shape (..., N, n): row i of each
    stack belongs to agent i.  ``indices`` lists b component indices per
    stream, stream-major and flat, so it has ``b * x[..., 0].size``
    entries.  Returns shape (..., N, b, n): entry
    (..., i, j) is the gradient of agent i's component ``indices`` names at
    that place, at agent i's point; repeated indices yield repeated rows.

    The rows are gathered from ``instance.padded``, so a logistic row is
    sigma(q . x) q with q = -y a and no label is gathered.  Every index
    must lie in [0, m_max), or a ``ValueError`` is raised before anything
    is computed.  A refresh that writes every row passes its table to the
    row form, :func:`_component_rows`, instead of allocating a second one.

    An index in [m_i, m_max) names a zero padding row of agent i: its
    gradient is 0 for least squares and the regularizer gradient for the
    logistic family.  Evaluating every index below m_max, as a refresh of
    every row does, therefore computes m_max rows per stream even where
    m_i < m_max.

    With ``mean``, ``indices`` must list every index below m_max for every
    stream, as a refresh does (only their number is checked), and the
    result is each stream's mean over its m_i real rows, shape (..., N, n):
    :func:`local_gradients` of ``x``, which keeps no rows and rejects a
    non-finite point.
    """
    if mean:
        if np.size(indices) != instance.max_points * x[..., 0].size:
            raise ValueError("a mean takes every index below m_max of every stream")
        return local_gradients(instance, x)
    _check_range(instance, indices)
    return _component_rows(instance, x, indices)


def _check_range(instance: ProblemInstance, indices: np.ndarray) -> None:
    """Raise ``ValueError`` unless every one of the (at least one) ``indices`` lies in [0, m_max)."""
    # one comparison rejects negative indices too: they wrap to huge uint64s
    if np.maximum.reduce(np.asarray(indices, np.int64).view(np.uint64), axis=None) >= instance.max_points:
        raise ValueError("invalid component index: outside [0, m_max)")


def _component_rows(
    instance: ProblemInstance, x: np.ndarray, indices: np.ndarray | None, out: np.ndarray | None = None
) -> np.ndarray:
    """The rows of :func:`component_gradients` for ``indices`` already checked against [0, m_max).

    ``out``, when given, is a C-ordered float array of the result's shape
    (..., N, b, n) that the rows are written into and that is returned.
    Each index becomes its padded row by one addition of i * m_max in the
    indices' own shape (:meth:`ProblemInstance.in_shape`).  The gather
    clips an unchecked index into the padded rows (possibly another
    agent's) instead of rejecting it.  ``indices`` None names every index
    below m_max of every stream, in order (b = m_max), as a refresh of
    every row does: each agent's padded rows are then copied over the
    leading axes, and no positions are built.
    """
    features, labels = instance.padded
    least_squares = instance.kind == LEAST_SQUARES
    if indices is None:
        N, m_max, n = instance.num_agents, instance.max_points, instance.dimension
        feats = np.empty(x.shape[:-1] + (m_max, n)) if out is None else out
        feats[...] = features.reshape(N, m_max, n)
        labs = labels.reshape(N, m_max) if least_squares else None
    else:
        indices = indices.reshape(x.shape[:-1] + (-1,))
        position = indices + instance.in_shape("offsets", indices.shape)
        # take(out=) with mode="raise" first gathers into a buffer the size of
        # ``out``; checked indices gather directly under mode="clip" instead
        feats = features.take(position, axis=0, out=out, mode="clip")
        labs = labels.take(position) if least_squares else None
        del position  # not needed past the gathers: free it before the loss temporaries
    margins = np.einsum("...j,...j->...", feats, x[..., None, :])
    feats *= _loss_weights(instance, margins, labs)[..., None]  # the gathered copy becomes the rows
    if instance.kind == LOGISTIC_NONCONVEX:
        feats += _regularizer_gradient(x, instance.epsilon)[..., None, :]
    return feats


def local_full_gradient(instance: ProblemInstance, agent: int, x: np.ndarray) -> np.ndarray:
    """Exact local gradient of one agent: the mean of its component gradients.

    ``x`` is one point of shape (n,) or a stack of points (..., n); the
    result has the shape of ``x``.  The per-agent form of
    :func:`local_gradients`, kept as its reference.
    """
    _check_finite(x)
    labs = instance.labels[agent]
    feats = _kernel_rows(instance, instance.features[agent], labs)
    g = _loss_weights(instance, x @ feats.T, labs) @ feats / feats.shape[0]
    if instance.kind == LOGISTIC_NONCONVEX:
        g += _regularizer_gradient(x, instance.epsilon)
    return g


def local_gradients(instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Every agent's exact local gradient at its own row of ``x`` (..., N, n).

    Stream (..., i) runs the same two matrix products over agent i's padded
    rows F_i (m_max x n) whatever the stack: the margins F_i x and the
    weighted row sum w F_i, so its bits do not depend on which other
    streams share ``x``.  The padding rows add zeros to the sum, which is
    divided by m_i, held as floats in the result's shape
    (:meth:`ProblemInstance.in_shape`); the regularizer gradient is added
    once.  Every refresh (``component_gradients(..., mean=True)``) and the
    ``record_dk`` metric use it.
    """
    _check_finite(x)
    features, labels = instance.padded
    N, n = instance.num_agents, instance.dimension
    feats = features.reshape(N, -1, n)
    labs = labels.reshape(N, -1) if instance.kind == LEAST_SQUARES else None
    margins = (feats @ x[..., None])[..., 0]
    g = (_loss_weights(instance, margins, labs)[..., None, :] @ feats)[..., 0, :]
    g /= instance.in_shape("sizes", g.shape)
    if instance.kind == LOGISTIC_NONCONVEX:
        g += _regularizer_gradient(x, instance.epsilon)
    return g


def global_gradient(instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Gradient of the network objective at a common point (or a stack of them).

    ``x`` has shape (..., n), and so has the result.  Since every agent
    shares the point, all padded rows are scored in two flat matrix products
    with the features, each row weighted by :attr:`ProblemInstance.row_weights`:
    this is the metric's kernel.  It equals the mean over agents of
    :func:`local_gradients` at the broadcast point up to rounding.
    """
    _check_finite(x)
    features, labels = instance.padded
    weights = _loss_weights(instance, x @ features.T, labels)
    weights *= instance.row_weights
    g = weights @ features
    if instance.kind == LOGISTIC_NONCONVEX:
        g += _regularizer_gradient(x, instance.epsilon)
    return g


def global_gradient_norm_sq(instance: ProblemInstance, x_bar: np.ndarray):
    """Squared Euclidean norm of the network-objective gradient at ``x_bar``.

    A float for one point of shape (n,), an array of shape (P,) for a stack
    of P points.
    """
    g = global_gradient(instance, x_bar)
    return np.einsum("...j,...j->...", g, g)[()]


def smoothness_constant(instance: ProblemInstance) -> float:
    """Upper bound on the Lipschitz constant of every local gradient.

    For the logistic family this is the analytic bound
    ``max_{i,h} ||a_{i,h}||^2 / 4 + 2 * epsilon`` (logistic curvature is at
    most 1/4, the regularizer's per-coordinate curvature at most 2 in absolute
    value).  For least squares it is the largest local Hessian eigenvalue,
    from a symmetric eigensolver.
    """
    if instance.kind == LOGISTIC_NONCONVEX:
        max_sq = max(float(np.max(np.sum(a * a, axis=1))) for a in instance.features)
        return 0.25 * max_sq + 2.0 * instance.epsilon
    best = 0.0
    for a in instance.features:
        hessian = a.T @ a / a.shape[0]
        best = max(best, float(np.linalg.eigvalsh(hessian)[-1]))
    return best
