import numpy as np
import pytest

from ltadmm.algorithms import (
    DivergenceError,
    RunConfig,
    exchange,
    init_states,
    initial_iterates,
    local_training_epoch,
    outer_step,
    run,
    simulate_replicate,
)
from ltadmm.graph import build_from_edges, build_ring
from ltadmm.problems import (
    LEAST_SQUARES,
    ProblemInstance,
    generate_classification,
    global_gradient_norm_sq,
    local_full_gradient,
)

from conftest import random_connected_topology
from matrix_form import build_structure


def zero_problem(n_agents=3, dimension=2, m=4):
    """Quadratic losses with zero data: every cost is identically zero."""
    return ProblemInstance(
        kind=LEAST_SQUARES,
        features=tuple(np.zeros((m, dimension)) for _ in range(n_agents)),
        labels=tuple(np.zeros(m) for _ in range(n_agents)),
    )


def scalar_quadratic(n_agents=3):
    """One point per agent with unit feature and zero label: f_i(x) = x^2 / 2."""
    return ProblemInstance(
        kind=LEAST_SQUARES,
        features=tuple(np.ones((1, 1)) for _ in range(n_agents)),
        labels=tuple(np.zeros(1) for _ in range(n_agents)),
    )


def base_config(**overrides):
    defaults = dict(
        variant="exact", gamma=0.05, rho=1.0, tau=3, outer_iterations=10, master_seed=7
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def epoch(inst, topo, cfg, x0, Z=None, k=0):
    """One local epoch from iterates ``x0``; edge variables default to the owners' rows."""
    structure = build_structure(topo)
    if Z is None:
        Z = structure.selector @ x0
    states = init_states(inst, topo, cfg, 0)
    return local_training_epoch(
        states, inst, cfg, k, x0, structure.selector.T @ Z, structure.degrees
    )


class TestRunConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            base_config(variant="nope")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("gamma", 0.0),
            ("rho", -1.0),
            ("tau", 0),
            ("batch_size", 0),
            ("monte_carlo_runs", 0),
            ("master_seed", -3),
            ("init_std", -1.0),
            ("init_std", float("nan")),
            ("init_std", float("inf")),
            ("gamma", float("nan")),
            ("rho", float("nan")),
            ("gamma", float("inf")),
            ("t_g", float("nan")),
            ("t_g", float("inf")),
            ("t_c", float("nan")),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            base_config(**{field: value})


class TestLocalTrainingEpoch:
    def test_zero_cost_zero_state_is_fixed_point(self):
        inst = zero_problem()
        topo = build_ring(3)
        cfg = base_config(tau=5)
        new_x = epoch(inst, topo, cfg, np.zeros((3, 2)), Z=np.zeros((6, 2)))
        assert np.array_equal(new_x, np.zeros((3, 2)))

    def test_single_exact_step_formula(self):
        inst = generate_classification(3, 3, 2, 5)
        topo = build_ring(3)
        cfg = base_config(tau=1, gamma=0.1, rho=0.7)
        x0 = np.array([[0.3, -0.2], [0.1, 0.0], [-0.5, 0.4]])
        from ltadmm.problems import local_full_gradient

        sum_z = 2 * x0[1]  # both edge variables of agent 1 start at its iterate
        expected = x0[1] - 0.1 * (
            local_full_gradient(inst, 1, x0[1]) + 0.7 * 2 * x0[1] - sum_z
        )
        got = epoch(inst, topo, cfg, x0)[1]
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_three_step_scalar_quadratic(self):
        # f(x) = x^2/2, two neighbors, penalty 1, zero neighbor variables:
        # each step multiplies by (1 - 0.1 * 3), so three steps give 0.343
        inst = scalar_quadratic()
        topo = build_ring(3)
        cfg = base_config(tau=3, gamma=0.1, rho=1.0)
        got = epoch(inst, topo, cfg, np.ones((3, 1)), Z=np.zeros((6, 1)))[0]
        assert got[0] == pytest.approx(0.343, abs=1e-15)

    def test_many_steps_approach_penalized_minimizer(self, rng):
        # with the neighbor variables frozen, the epoch is plain gradient
        # descent on the penalized local cost; many steps must land on the
        # closed-form minimizer of the quadratic case
        inst = generate_classification(9, 3, 3, 12, kind=LEAST_SQUARES, epsilon=0.0)
        topo = build_ring(3)
        cfg = base_config(variant="exact", tau=5000, gamma=0.05, rho=1.0)
        x0 = rng.normal(size=(3, 3))
        a, b = inst.features[0], inst.labels[0]
        hessian = a.T @ a / a.shape[0]
        linear = a.T @ b / a.shape[0] + 2 * x0[0]
        expected = np.linalg.solve(hessian + cfg.rho * 2 * np.eye(3), linear)
        got = epoch(inst, topo, cfg, x0)[0]
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_divergence_flagged_with_location(self):
        inst = scalar_quadratic()
        topo = build_ring(3)
        cfg = base_config(gamma=0.05, rho=1.0, tau=4)
        with pytest.raises(DivergenceError) as exc:
            epoch(inst, topo, cfg, np.full((3, 1), 1e13), k=2)
        assert exc.value.agent == 0
        assert exc.value.outer_iteration == 2


class TestZUpdate:
    """The stacked exchange: edge (i, j) reads the payload of edge (j, i)."""

    def test_zero_inputs(self):
        topo = build_ring(4)
        assert np.array_equal(
            exchange(topo, np.zeros((8, 3)), np.zeros((4, 3)), 1.0), np.zeros((8, 3))
        )

    def test_symmetric_pair_cancels(self, rng):
        topo = build_from_edges(2, [(0, 1)])
        z = rng.normal(size=4)
        x_new = rng.normal(size=(2, 4))
        rho = 1.3
        # both ends of the link hold the same vector
        updated = exchange(topo, np.stack([z, z]), x_new, rho)
        position = {pair: e for e, pair in enumerate(topo.directed_edges)}
        assert np.allclose(updated[position[(0, 1)]], rho * x_new[1], atol=1e-15)
        assert np.allclose(updated[position[(1, 0)]], rho * x_new[0], atol=1e-15)

    def test_matches_componentwise_formula(self, rng):
        topo = build_ring(5)
        Z = rng.normal(size=(10, 5))
        x_new = rng.normal(size=(5, 5))
        rho = 0.8
        updated = exchange(topo, Z, x_new, rho)
        position = {pair: e for e, pair in enumerate(topo.directed_edges)}
        for e, (i, j) in enumerate(topo.directed_edges):
            z_ij, z_ji = Z[e], Z[position[(j, i)]]
            assert np.allclose(updated[e], 0.5 * z_ij - 0.5 * z_ji + rho * x_new[j], atol=1e-15)


class TestOuterStep:
    @pytest.mark.parametrize("variant", ["exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2"])
    def test_conservation_every_iteration(self, variant, rng):
        topo = random_connected_topology(rng, 6)
        inst = generate_classification(5, 6, 3, 8)
        cfg = base_config(variant=variant, gamma=0.02, rho=1.4, outer_iterations=15)
        trace = simulate_replicate(inst, topo, cfg, replicate=0)
        for grad_norm_sq, residual in zip(trace.grad_norm_sq[1:], trace.conservation_residual[1:]):
            scale = max(1.0, np.sqrt(grad_norm_sq) + 1.0)
            assert residual <= 1e-10 * scale

    def test_zero_iterations_leaves_states_unchanged(self):
        inst = generate_classification(5, 3, 2, 6)
        topo = build_ring(3)
        cfg = base_config(outer_iterations=0)
        trace = simulate_replicate(inst, topo, cfg, replicate=0)
        assert len(trace.grad_norm_sq) == 1
        assert run(inst, topo, cfg).columns["model_time"].tolist() == [0.0]


class TestDeterminism:
    @pytest.mark.parametrize("variant", ["lt_admm", "lt_admm_vr", "lt_admm_vr_v2"])
    def test_same_seed_bit_identical(self, variant):
        inst = generate_classification(5, 5, 3, 9)
        topo = build_ring(5)
        cfg = base_config(variant=variant, gamma=0.03, outer_iterations=12, monte_carlo_runs=2)
        t1 = run(inst, topo, cfg)
        t2 = run(inst, topo, cfg)
        for name in ("grad_norm_sq_mean", "consensus_err_mean", "model_time"):
            assert np.array_equal(t1.columns[name], t2.columns[name])

    def test_different_seeds_differ(self):
        inst = generate_classification(5, 5, 3, 9)
        topo = build_ring(5)
        t1 = run(inst, topo, base_config(variant="lt_admm", outer_iterations=5))
        t2 = run(inst, topo, base_config(variant="lt_admm", outer_iterations=5, master_seed=8))
        assert t1.columns["grad_norm_sq_mean"][-1] != t2.columns["grad_norm_sq_mean"][-1]

    def test_initial_iterates_shared_across_variants(self):
        cfg_a = base_config(variant="lt_admm")
        cfg_b = base_config(variant="lt_admm_vr")
        xa = initial_iterates(cfg_a, 5, 3, replicate=2)
        xb = initial_iterates(cfg_b, 5, 3, replicate=2)
        assert np.array_equal(xa, xb)

    def test_initial_scale(self):
        cfg = base_config()
        x0 = initial_iterates(cfg, 400, 5, replicate=0)
        # variance 100 per coordinate
        assert 9.0 < x0.std() < 11.0


class TestVariantRelations:
    def test_exact_equals_full_batch_sgd(self):
        inst = generate_classification(6, 4, 3, 7)
        topo = build_ring(4)
        exact_cfg = base_config(variant="exact", gamma=0.04, outer_iterations=20)
        sgd_cfg = base_config(
            variant="lt_admm",
            gamma=0.04,
            outer_iterations=20,
            batch_size=7,
            batch_replacement=False,
        )
        t_exact = simulate_replicate(inst, topo, exact_cfg, 0)
        t_sgd = simulate_replicate(inst, topo, sgd_cfg, 0)
        for a, b in zip(t_exact.grad_norm_sq, t_sgd.grad_norm_sq):
            assert abs(a - b) <= 1e-13 * max(1.0, a)
        for a, b in zip(t_exact.consensus_err, t_sgd.consensus_err):
            assert abs(a - b) <= 1e-13

    def test_vr_variants_identical_first_iteration(self):
        inst = generate_classification(6, 4, 3, 7)
        topo = build_ring(4)
        cfg_vr = base_config(variant="lt_admm_vr", gamma=0.04, outer_iterations=1)
        cfg_v2 = base_config(variant="lt_admm_vr_v2", gamma=0.04, outer_iterations=1)
        s_vr = simulate_replicate(inst, topo, cfg_vr, 0)
        s_v2 = simulate_replicate(inst, topo, cfg_v2, 0)
        assert s_vr.grad_norm_sq[-1] == s_v2.grad_norm_sq[-1]
        assert s_vr.consensus_err[-1] == s_v2.consensus_err[-1]

    def test_vr_variants_diverge_later(self):
        inst = generate_classification(6, 4, 3, 7)
        topo = build_ring(4)
        cfg_vr = base_config(variant="lt_admm_vr", gamma=0.04, outer_iterations=6)
        cfg_v2 = base_config(variant="lt_admm_vr_v2", gamma=0.04, outer_iterations=6)
        s_vr = simulate_replicate(inst, topo, cfg_vr, 0)
        s_v2 = simulate_replicate(inst, topo, cfg_v2, 0)
        assert s_vr.grad_norm_sq[-1] != s_v2.grad_norm_sq[-1]


class TestConvergence:
    def test_exact_consensus_on_convex_problem(self):
        inst = generate_classification(11, 10, 5, 20, kind=LEAST_SQUARES, epsilon=0.0)
        topo = build_ring(10)
        cfg = base_config(variant="exact", gamma=0.05, tau=5, outer_iterations=400, master_seed=5)
        trace = run(inst, topo, cfg)
        assert trace.columns["grad_norm_sq_mean"][-1] < 1e-8
        assert trace.columns["consensus_err_mean"][-1] < 1e-6

    def test_sgd_plateaus_above_exact(self):
        inst = generate_classification(11, 5, 3, 30)
        topo = build_ring(5)
        exact_cfg = base_config(variant="exact", gamma=0.2, tau=5, outer_iterations=300, master_seed=5)
        sgd_cfg = base_config(
            variant="lt_admm", gamma=0.2, tau=5, outer_iterations=300, master_seed=5, monte_carlo_runs=5
        )
        t_exact = run(inst, topo, exact_cfg)
        t_sgd = run(inst, topo, sgd_cfg)
        exact_floor = t_exact.columns["grad_norm_sq_mean"][-1]
        sgd_tail = np.mean(t_sgd.columns["grad_norm_sq_mean"][t_sgd.columns["k"] > 200])
        assert sgd_tail > 10.0 * max(exact_floor, 1e-30)


class TestDivergenceHandling:
    def test_diverged_replicate_not_fatal(self):
        inst = scalar_quadratic(4)
        topo = build_ring(4)
        cfg = base_config(variant="exact", gamma=50.0, rho=3.0, tau=8, outer_iterations=200, monte_carlo_runs=2)
        trace = run(inst, topo, cfg)
        assert trace.num_diverged >= 1
        for rep in trace.replicates:
            if rep.status == "diverged":
                assert rep.diverged_at is not None


class TestRecordDk:
    def test_dk_attached_to_epoch_start_record(self):
        inst = generate_classification(5, 3, 2, 6)
        topo = build_ring(3)
        cfg = base_config(record_dk=True, outer_iterations=4)
        trace = simulate_replicate(inst, topo, cfg, 0)
        values = trace.d_k
        assert all(np.isfinite(values[:-1]))
        assert np.isnan(values[-1])
        # the metric dominates the squared mean-iterate gradient
        for d_k, grad_norm_sq in zip(trace.d_k[:-1], trace.grad_norm_sq[:-1]):
            assert d_k >= grad_norm_sq - 1e-15

    @pytest.mark.parametrize("variant", ["exact", "lt_admm", "lt_admm_vr"])
    def test_dk_pairs_each_epoch_with_its_start_state(self, variant):
        inst = generate_classification(5, 4, 3, 6)
        topo = build_ring(4)
        cfg = base_config(variant=variant, record_dk=True, outer_iterations=4, gamma=0.1, tau=3)
        X = initial_iterates(cfg, topo.num_agents, inst.dimension, 0)
        Z = X[topo.src]
        states = init_states(inst, topo, cfg, 0)
        expected = []
        for k in range(cfg.outer_iterations):
            x_bar = X.mean(axis=0)
            log = []
            outer_step(states, inst, topo, cfg, k, X, Z, log)
            inner = 0.0
            for phi, _ in log:
                mean = np.mean([local_full_gradient(inst, i, row) for i, row in enumerate(phi)], axis=0)
                inner += float(mean @ mean)
            expected.append(global_gradient_norm_sq(inst, x_bar) + inner / cfg.tau)
        d_k = simulate_replicate(inst, topo, cfg, 0).d_k
        for k, value in enumerate(expected):
            assert d_k[k] == pytest.approx(value, rel=1e-12)
