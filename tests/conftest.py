import numpy as np
import pytest

from ltadmm.algorithms import init_states, shared_inputs
from ltadmm.graph import Topology, build_from_edges, build_ring, spectral_quantities
from ltadmm.problems import component_gradients
from ltadmm.stepsize import BoundContext, build_v_hat_inverse_norm


def random_connected_topology(rng: np.random.Generator, n: int, extra_edge_prob: float = 0.3) -> Topology:
    """Random spanning tree plus random extra edges; always connected."""
    edges = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        a = int(order[idx])
        b = int(order[rng.integers(0, idx)])
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return build_from_edges(n, sorted(edges))


def fresh_streams(instance, topology, config, replicates):
    """A run's streams from ``init_states``, on shared inputs drawn for that run alone."""
    replicates = list(replicates)
    shared = shared_inputs(instance, topology, [config], replicates)
    return init_states(instance, topology, config, replicates, shared)


def agent_components(instance, agent: int, indices, x: np.ndarray) -> np.ndarray:
    """Gradients of agent ``agent``'s components ``indices`` at the point ``x``, shape (b, n).

    Evaluates the same components of every agent at ``x`` through the
    stacked kernel and keeps agent ``agent``'s rows.
    """
    indices = np.asarray(indices)
    points = np.broadcast_to(x, (instance.num_agents, len(x)))
    return component_gradients(instance, points, np.tile(indices, instance.num_agents))[agent]


def random_bound_context(rng: np.random.Generator) -> BoundContext:
    """Random admissible step-size bound context over a random-size ring."""
    n = int(rng.integers(4, 16))
    spec = spectral_quantities(build_ring(n))
    rho = float(rng.uniform(0.2, 2.0))
    tau = int(rng.integers(1, 9))
    gamma = float(rng.uniform(1e-4, 1.9 / (spec.lambda_tilde_min_abs * rho * tau)))
    m_u = int(rng.integers(10, 200))
    m_l = int(rng.integers(1, m_u + 1))
    return BoundContext(
        L=float(rng.uniform(0.1, 10.0)),
        rho=rho,
        tau=tau,
        gamma_candidate=gamma,
        d_u=spec.max_degree,
        lambda_tilde_min_abs=spec.lambda_tilde_min_abs,
        lambda_tilde_max_abs=spec.lambda_tilde_max_abs,
        m_l=m_l,
        m_u=m_u,
        num_agents=n,
        v_inv_norm=build_v_hat_inverse_norm(spec, rho, tau, gamma),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
