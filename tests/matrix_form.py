"""Dense matrix-form replica of the solver dynamics, used as a test oracle.

The solver dynamics can be written with three structural operators: an edge
selector A (directed edge (i, j) row picks agent i's iterate), the edge-swap
permutation P (exchanges the (i, j) and (j, i) rows), and the degree matrix
D = A^T A.  Stacking iterates X (N x n) and edge variables Z (M x n), one
outer iteration reads

    X' = X - gamma * sum_t (G(Phi_t) + rho * D Phi_t - A^T Z),   Phi_0 = X
    Z' = Z/2 - P Z / 2 + rho * P A X'

This module implements that recursion directly on dense matrices built from
the topology's directed edge list, entirely independently of the solver's
edge-index arrays, so the two paths can be compared trajectory against
trajectory.  For stochastic runs the estimator outputs logged by the solver
are replayed here, making the randomness a shared input and isolating the
linear-algebra path.

Only desk-scale graphs are targeted; everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ltadmm.algorithms import RunConfig
from ltadmm.graph import Topology
from ltadmm.problems import ProblemInstance, local_full_gradient

__all__ = [
    "EdgeStructure",
    "CompactState",
    "DiagnosticVectors",
    "build_structure",
    "compact_init",
    "compact_step",
    "conservation_residual",
    "diagnostics",
    "step_via_block_form",
]


@dataclass(frozen=True, eq=False)
class EdgeStructure:
    """Dense structural operators of a topology.

    Attributes:
        topology: the source topology (rows follow its directed edge order).
        selector: A, shape (M, N).
        swap: P, shape (M, M); an involution.
        degrees: vertex degrees, shape (N,).
        adjacency: A^T P A, shape (N, N).
        ltilde: adjacency minus degree matrix, shape (N, N).
    """

    topology: Topology
    selector: np.ndarray
    swap: np.ndarray
    degrees: np.ndarray
    adjacency: np.ndarray
    ltilde: np.ndarray


def build_structure(topology: Topology) -> EdgeStructure:
    """Build and verify the structural operators for ``topology``."""
    n = topology.num_agents
    m = topology.num_directed_edges
    selector = np.zeros((m, n))
    swap = np.zeros((m, m))
    position = {pair: e for e, pair in enumerate(topology.directed_edges)}
    for e, (i, j) in enumerate(topology.directed_edges):
        selector[e, i] = 1.0
        swap[e, position[(j, i)]] = 1.0

    degrees = np.asarray(topology.degrees, dtype=float)
    gram = selector.T @ selector
    if not np.array_equal(gram, np.diag(degrees)):
        raise ValueError("selector gram matrix does not equal the degree matrix")
    if not np.array_equal(swap @ swap, np.eye(m)):
        raise ValueError("edge swap is not an involution")
    adjacency = selector.T @ swap @ selector
    expected = np.zeros((n, n))
    for i, nbrs in enumerate(topology.neighbor_lists):
        expected[i, list(nbrs)] = 1.0
    if not np.array_equal(adjacency, expected):
        raise ValueError("selector/swap product does not equal the adjacency matrix")
    ltilde = adjacency - np.diag(degrees)
    return EdgeStructure(
        topology=topology,
        selector=selector,
        swap=swap,
        degrees=degrees,
        adjacency=adjacency,
        ltilde=ltilde,
    )


@dataclass(eq=False)
class CompactState:
    """Stacked iterates X (N x n) and edge variables Z (M x n)."""

    structure: EdgeStructure
    X: np.ndarray
    Z: np.ndarray


def compact_init(structure: EdgeStructure, x0: np.ndarray) -> CompactState:
    """Standard initialization: every edge variable starts at its owner's x."""
    Z = structure.selector @ x0
    return CompactState(structure=structure, X=x0.copy(), Z=Z)


def _exact_gradients(instance: ProblemInstance, phi: np.ndarray) -> np.ndarray:
    return np.stack(
        [local_full_gradient(instance, i, phi[i]) for i in range(phi.shape[0])]
    )


def compact_step(
    state: CompactState,
    instance: ProblemInstance,
    config: RunConfig,
    gradients: list[np.ndarray] | None = None,
    return_inner: bool = False,
):
    """One outer iteration of the stacked dynamics.

    ``gradients``, when given, supplies the per-step stacked estimator
    outputs (replay of a logged solver run); otherwise exact local
    gradients are used.  With ``return_inner`` the list of inner iterates
    [Phi_0, ..., Phi_{tau-1}] is returned alongside the new state.
    """
    s = state.structure
    gamma, rho, tau = config.gamma, config.rho, config.tau
    at_z = s.selector.T @ state.Z
    phi = state.X.copy()
    inner = []
    for t in range(tau):
        if return_inner:
            inner.append(phi.copy())
        g = gradients[t] if gradients is not None else _exact_gradients(instance, phi)
        phi = phi - gamma * (g + rho * s.degrees[:, None] * phi - at_z)
    x_new = phi
    z_new = 0.5 * state.Z - 0.5 * (s.swap @ state.Z) + rho * (s.swap @ (s.selector @ x_new))
    new_state = CompactState(structure=s, X=x_new, Z=z_new)
    if return_inner:
        return new_state, inner
    return new_state


def conservation_residual(state: CompactState, rho: float) -> float:
    """Norm of the stacked-edge sum minus rho times the degree-weighted iterates.

    Zero (to rounding) after every auxiliary update; at the standard
    initialization it equals ``|1 - rho|`` times the norm of the
    degree-weighted iterate sum.
    """
    s = state.structure
    z_sum = state.Z.sum(axis=0)
    weighted = (s.degrees[:, None] * state.X).sum(axis=0)
    return float(np.linalg.norm(z_sum - rho * weighted))


@dataclass(frozen=True, eq=False)
class DiagnosticVectors:
    """Auxiliary stacked sequences used for consistency checks.

    ``Y = A^T Z - g_bar - rho D X`` and ``Ytilde = A^T P Z + g_bar - rho D X``
    where ``g_bar`` stacks (1/N) times each agent's gradient at the mean
    iterate.  After the first auxiliary update the row mean of Y equals
    ``-(1/N)`` times the mean of ``g_bar``'s rows (a consequence of the
    conservation identity).
    """

    Y: np.ndarray
    Y_tilde: np.ndarray
    x_bar: np.ndarray


def _mean_gradient_stack(instance: ProblemInstance, x_bar: np.ndarray) -> np.ndarray:
    n = instance.num_agents
    return np.stack(
        [local_full_gradient(instance, i, x_bar) / n for i in range(n)]
    )


def diagnostics(state: CompactState, instance: ProblemInstance, rho: float) -> DiagnosticVectors:
    """Compute the diagnostic sequences at the current state."""
    s = state.structure
    x_bar = state.X.mean(axis=0)
    g_bar = _mean_gradient_stack(instance, x_bar)
    rho_dx = rho * s.degrees[:, None] * state.X
    y = s.selector.T @ state.Z - g_bar - rho_dx
    y_tilde = s.selector.T @ (s.swap @ state.Z) + g_bar - rho_dx
    return DiagnosticVectors(Y=y, Y_tilde=y_tilde, x_bar=x_bar)


def step_via_block_form(
    state: CompactState, instance: ProblemInstance, config: RunConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance (X, Y, Ytilde) one iteration through the linear block form.

    The stacked dynamics can be written as a linear map on (X, Y, Ytilde)
    driven by a gradient-mismatch input; this computes exactly that and is
    compared in tests against the direct definitions after a plain step.
    Exact-gradient mode only.
    """
    s = state.structure
    gamma, rho, tau = config.gamma, config.rho, config.tau
    diag_now = diagnostics(state, instance, rho)

    new_state, inner = compact_step(state, instance, config, return_inner=True)
    g_bar_now = _mean_gradient_stack(instance, diag_now.x_bar)
    g_bar_next = _mean_gradient_stack(instance, new_state.X.mean(axis=0))

    mismatch = np.zeros_like(state.X)
    rho_dx = rho * s.degrees[:, None] * state.X
    for phi in inner:
        g = _exact_gradients(instance, phi)
        mismatch += g - g_bar_now + rho * s.degrees[:, None] * phi - rho_dx
    h_x = gamma * mismatch
    grad_drift = g_bar_next - g_bar_now
    h_y = rho * s.ltilde @ h_x + grad_drift
    h_yt = -grad_drift

    x_next = state.X + gamma * tau * diag_now.Y - h_x
    y_next = (
        rho * s.ltilde @ state.X
        + (rho * gamma * tau) * (s.ltilde @ diag_now.Y)
        + 0.5 * diag_now.Y
        - 0.5 * diag_now.Y_tilde
        - h_y
    )
    yt_next = -0.5 * diag_now.Y + 0.5 * diag_now.Y_tilde - h_yt
    return x_next, y_next, yt_next
