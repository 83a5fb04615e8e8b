import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltadmm.algorithms import (
    VARIANTS,
    RunConfig,
    initial_iterates,
    measure,
    outer_step,
)
from ltadmm.graph import build_from_edges, build_ring
from ltadmm.metrics import iteration_evals
from ltadmm.problems import (
    LEAST_SQUARES,
    LOGISTIC_NONCONVEX,
    ProblemInstance,
    generate_classification,
    local_full_gradient,
)

from conftest import fresh_streams, random_connected_topology
from matrix_form import (
    CompactState,
    build_structure,
    compact_init,
    compact_step,
    conservation_residual,
    diagnostics,
    step_via_block_form,
)


def exact_config(**overrides):
    defaults = dict(variant="exact", gamma=0.02, rho=1.0, tau=3, outer_iterations=20, master_seed=3)
    defaults.update(overrides)
    return RunConfig(**defaults)


def run_both(topology, instance, config, iterations, replicate=0, stochastic=False):
    """Advance the solver and the stacked oracle side by side; return final pair."""
    x0 = initial_iterates(config, topology.num_agents, instance.dimension, [replicate])[0]
    streams = fresh_streams(instance, topology, config, [replicate])
    structure = build_structure(topology)
    cstate = compact_init(structure, x0)
    X, Z = x0[None].copy(), cstate.Z[None].copy()
    if stochastic:
        log = []
        for k in range(iterations):
            outer_step(streams, instance, topology, config, k, X, Z, log)
        estimates = [G[0] for _, G in log]
        for k in range(iterations):
            per_step = estimates[k * config.tau : (k + 1) * config.tau]
            cstate = compact_step(cstate, instance, config, gradients=per_step)
    else:
        for k in range(iterations):
            outer_step(streams, instance, topology, config, k, X, Z)
            cstate = compact_step(cstate, instance, config)
    return CompactState(structure=structure, X=X[0], Z=Z[0]), cstate


class TestStructure:
    @pytest.mark.parametrize("make", [lambda: build_ring(5), lambda: build_ring(4), lambda: build_from_edges(2, [(0, 1)])])
    def test_identities_exact(self, make):
        topo = make()
        s = build_structure(topo)  # raises if any identity fails
        assert np.array_equal(s.selector.T @ s.selector, np.diag(s.degrees))
        assert np.array_equal(s.swap @ s.swap, np.eye(topo.num_directed_edges))

    def test_identities_random_graphs(self, rng):
        for n in (4, 6, 9):
            topo = random_connected_topology(rng, n)
            s = build_structure(topo)
            assert np.array_equal(s.adjacency, s.adjacency.T)
            assert np.allclose(s.ltilde.sum(axis=1), 0.0, atol=1e-14)

    def test_swap_involution_on_data(self, rng):
        s = build_structure(build_ring(6))
        Z = rng.normal(size=(12, 3))
        assert np.array_equal(s.swap @ (s.swap @ Z), Z)


class TestTrajectoryEquivalence:
    def test_zero_costs_zero_state_fixed_point(self):
        from ltadmm.problems import LEAST_SQUARES, ProblemInstance

        topo = build_ring(4)
        zero = ProblemInstance(
            kind=LEAST_SQUARES,
            features=(np.zeros((3, 2)),) * 4,
            labels=(np.zeros(3),) * 4,
        )
        state = compact_init(build_structure(topo), np.zeros((4, 2)))
        advanced = compact_step(state, zero, exact_config())
        assert np.array_equal(advanced.X, np.zeros((4, 2)))
        assert np.array_equal(advanced.Z, np.zeros((8, 2)))

    def test_single_step_random_ring(self, rng):
        topo = build_ring(5)
        inst = generate_classification(7, 5, 4, 10)
        snap, cstate = run_both(topo, inst, exact_config(), iterations=1)
        assert np.max(np.abs(snap.X - cstate.X)) <= 1e-12
        assert np.max(np.abs(snap.Z - cstate.Z)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_twenty_iterations_random_graphs(self, n):
        rng = np.random.default_rng(100 + n)
        topo = random_connected_topology(rng, n)
        inst = generate_classification(50 + n, n, 3, 8)
        snap, cstate = run_both(topo, inst, exact_config(), iterations=20)
        assert np.max(np.abs(snap.X - cstate.X)) <= 1e-10
        assert np.max(np.abs(snap.Z - cstate.Z)) <= 1e-10

    @pytest.mark.parametrize("variant", ["lt_admm", "lt_admm_vr", "lt_admm_vr_v2"])
    def test_stochastic_replay(self, variant):
        topo = build_ring(5)
        inst = generate_classification(7, 5, 4, 10)
        cfg = exact_config(variant=variant, tau=4)
        snap, cstate = run_both(topo, inst, cfg, iterations=8, stochastic=True)
        assert np.max(np.abs(snap.X - cstate.X)) <= 1e-12
        assert np.max(np.abs(snap.Z - cstate.Z)) <= 1e-12


class TestConservation:
    def test_residual_small_after_steps(self):
        topo = build_ring(6)
        inst = generate_classification(9, 6, 3, 12)
        cfg = exact_config(rho=1.7)
        x0 = initial_iterates(cfg, 6, 3, [0])[0]
        cstate = compact_init(build_structure(topo), x0)
        for k in range(10):
            cstate = compact_step(cstate, inst, cfg)
            scale = max(1.0, float(np.linalg.norm(cstate.X)))
            assert conservation_residual(cstate, cfg.rho) <= 1e-10 * scale

    def test_corrupted_state_detected(self):
        topo = build_ring(6)
        inst = generate_classification(9, 6, 3, 12)
        cfg = exact_config()
        cstate = compact_init(build_structure(topo), initial_iterates(cfg, 6, 3, [0])[0])
        cstate = compact_step(cstate, inst, cfg)
        cstate.Z[3, 0] += 1.0
        assert conservation_residual(cstate, cfg.rho) >= 0.5

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_initialization_residual_closed_form(self, rho, rng):
        topo = build_ring(5)
        x0 = rng.normal(size=(5, 3))
        cstate = compact_init(build_structure(topo), x0)
        degrees = np.asarray(topo.degrees, dtype=float)
        expected = abs(1.0 - rho) * np.linalg.norm((degrees[:, None] * x0).sum(axis=0))
        assert conservation_residual(cstate, rho) == pytest.approx(expected, rel=1e-12)


class TestBlockForm:
    def test_one_step_matches_definitions(self):
        topo = build_ring(5)
        inst = generate_classification(7, 5, 4, 10)
        cfg = exact_config(rho=1.3)
        cstate = compact_init(build_structure(topo), initial_iterates(cfg, 5, 4, [0])[0])
        for _ in range(3):
            cstate = compact_step(cstate, inst, cfg)
        x_next, y_next, yt_next = step_via_block_form(cstate, inst, cfg)
        advanced = compact_step(cstate, inst, cfg)
        direct = diagnostics(advanced, inst, cfg.rho)
        assert np.max(np.abs(x_next - advanced.X)) <= 1e-10
        assert np.max(np.abs(y_next - direct.Y)) <= 1e-10
        assert np.max(np.abs(yt_next - direct.Y_tilde)) <= 1e-10

    def test_mean_row_identity_after_first_update(self):
        topo = build_ring(5)
        inst = generate_classification(7, 5, 4, 10)
        cfg = exact_config(rho=1.3)
        cstate = compact_init(build_structure(topo), initial_iterates(cfg, 5, 4, [0])[0])
        for _ in range(2):
            cstate = compact_step(cstate, inst, cfg)
        d = diagnostics(cstate, inst, cfg.rho)
        n = topo.num_agents
        g_bar = np.stack([local_full_gradient(inst, i, d.x_bar) / n for i in range(n)])
        assert np.max(np.abs(d.Y.mean(axis=0) + g_bar.mean(axis=0))) <= 1e-12


@st.composite
def drawn_runs(draw):
    """A connected graph of 2-8 agents with unequal datasets and a run config."""
    n_agents = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    topology = random_connected_topology(rng, n_agents, draw(st.sampled_from([0.0, 0.3, 0.7])))
    points = draw(st.lists(st.integers(1, 9), min_size=n_agents, max_size=n_agents))
    dimension = draw(st.integers(1, 4))
    labels = tuple(rng.choice([-1.0, 1.0], size=m) for m in points)
    instance = ProblemInstance(
        kind=draw(st.sampled_from([LOGISTIC_NONCONVEX, LEAST_SQUARES])),
        features=tuple(rng.normal(size=(m, dimension)) for m in points),
        labels=labels,
        epsilon=0.01,
    )
    replacement = draw(st.booleans())
    replicates = draw(st.integers(1, 3))
    config = RunConfig(
        variant=draw(st.sampled_from(VARIANTS)),
        gamma=draw(st.sampled_from([0.005, 0.02])),
        rho=draw(st.sampled_from([0.5, 1.0, 1.7])),
        tau=draw(st.integers(1, 6)),
        outer_iterations=3,
        batch_size=draw(st.integers(1, 3 if replacement else min(points))),
        batch_replacement=replacement,
        master_seed=draw(st.integers(0, 1000)),
        monte_carlo_runs=replicates,
    )
    return topology, instance, config


@settings(derandomize=True, max_examples=100, deadline=None)
@given(drawn_runs())
def test_solver_matches_oracle_on_drawn_runs(run):
    topology, instance, config = run
    R = config.monte_carlo_runs
    x0 = initial_iterates(config, topology.num_agents, instance.dimension, range(R))
    streams = fresh_streams(instance, topology, config, range(R))
    cstates = [compact_init(build_structure(topology), x) for x in x0]
    X, Z = np.stack(x0), np.stack([c.Z for c in cstates])
    for k in range(config.outer_iterations):
        log = []
        outer_step(streams, instance, topology, config, k, X, Z, log)
        measured = measure(instance, X, Z, topology.degree_vector, config.rho)
        for r in range(R):
            replay = None if config.variant == "exact" else [G[r] for _, G in log]
            cstates[r] = compact_step(cstates[r], instance, config, gradients=replay)
            assert np.max(np.abs(X[r] - cstates[r].X)) <= 1e-10
            assert np.max(np.abs(Z[r] - cstates[r].Z)) <= 1e-10
            scale = max(1.0, float(np.linalg.norm(X[r])))
            assert measured.conservation_residual[r] <= 1e-10 * scale
            assert conservation_residual(cstates[r], config.rho) <= 1e-10 * scale
    for stream in streams:
        i = stream.counter.agent
        expected = sum(
            iteration_evals(config.variant, config.tau, instance.num_points(i), config.batch_size, k)
            for k in range(config.outer_iterations)
        )
        assert stream.counter.component_gradient_evals == expected
    slowest = streams.tally.max(axis=1)
    assert (slowest == sum(
        iteration_evals(config.variant, config.tau, instance.max_points, config.batch_size, k)
        for k in range(config.outer_iterations)
    )).all()
