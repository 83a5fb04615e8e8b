import dataclasses

import numpy as np
import pytest

from ltadmm import algorithms, oracles
from ltadmm.algorithms import (
    RunConfig,
    exchange,
    init_states,
    initial_iterates,
    local_training_epoch,
    outer_step,
    run,
    shared_inputs,
    simulate_replicate,
    simulate_replicates,
)
from ltadmm.graph import build_from_edges, build_ring
from ltadmm.metrics import compute_dk, iteration_evals, refresh_steps
from ltadmm.oracles import draw_batch
from ltadmm.problems import (
    LEAST_SQUARES,
    ProblemInstance,
    generate_classification,
    global_gradient_norm_sq,
    local_full_gradient,
    local_gradients,
)

from conftest import fresh_streams, random_connected_topology
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


def epoch(inst, topo, cfg, x0, Z=None, k=0, streams=None):
    """One local epoch of one replicate from iterates ``x0``; edge variables default to the owners' rows."""
    structure = build_structure(topo)
    if Z is None:
        Z = structure.selector @ x0
    if streams is None:
        streams = fresh_streams(inst, topo, cfg, [0])
    return local_training_epoch(
        streams, inst, cfg, k, x0[None], (structure.selector.T @ Z)[None], structure.degrees
    )[0]


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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tau", 2.5),
            ("tau", 2.0),
            ("tau", True),
            ("batch_size", 1.5),
            ("outer_iterations", 2.5),
            ("monte_carlo_runs", 1.5),
            ("master_seed", 1.5),
            ("master_seed", "1"),
            ("master_seed", np.float64(1.0)),
            ("batch_replacement", "no"),
            ("batch_replacement", 0),
            ("record_dk", 1),
            ("record_dk", None),
            ("gamma", True),
            ("gamma", "0.1"),
            ("rho", np.True_),
            ("t_g", False),
            ("t_c", True),
            ("init_std", False),
            ("init_std", None),
        ],
    )
    def test_rejects_wrongly_typed_values(self, field, value):
        with pytest.raises(TypeError, match=field):
            base_config(**{field: value})

    @pytest.mark.parametrize(
        "field,value", [("tau", 0), ("rho", -1.0), ("outer_iterations", -2), ("monte_carlo_runs", 0)]
    )
    def test_checked_values_cannot_be_changed(self, field, value):
        cfg = RunConfig(variant="lt_admm", gamma=0.05, rho=1.0, tau=2, outer_iterations=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, **{field: value})
        assert dataclasses.replace(cfg) == cfg

    def test_numpy_integers_and_booleans_become_python_values(self):
        values = dict(
            tau=2, outer_iterations=3, batch_size=2, master_seed=5, monte_carlo_runs=2,
            batch_replacement=False, record_dk=True,
        )
        numpy_types = dict(
            tau=np.int64, outer_iterations=np.int32, batch_size=np.uint8, master_seed=np.uint64,
            monte_carlo_runs=np.int16, batch_replacement=np.bool_, record_dk=np.bool_,
        )
        numpy_typed = base_config(**{name: numpy_types[name](value) for name, value in values.items()})
        assert numpy_typed == base_config(**values)
        for name, value in values.items():
            assert type(getattr(numpy_typed, name)) is type(value), name

    def test_numbers_become_python_floats(self):
        numbers = dict(gamma=np.float32(0.5), rho=1, t_g=np.int64(2), t_c=np.float64(0.25), init_std=3)
        cfg = base_config(**numbers)
        for name, value in numbers.items():
            assert type(getattr(cfg, name)) is float and getattr(cfg, name) == value, name


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
        streams = fresh_streams(inst, topo, cfg, [0])
        x0 = np.full((3, 1), 1e13)
        got = epoch(inst, topo, cfg, x0, k=2, streams=streams)
        error = streams.diverged[0]
        assert (error.agent, error.outer_iteration, error.inner_step) == (0, 2, 0)
        # the epoch runs to its end, its rows reset to the start at every step
        assert np.array_equal(got, x0)
        assert (streams.tally == cfg.tau).all()


# (exact_estimate calls, saga_refresh calls, draw_batch calls) of the epochs
# at k = 0 and k = 1, by variant and tau: a run that draws no batch
# (exact, and lt_admm_vr at tau = 1) keeps no table
EPOCH_CALLS = {
    ("exact", 1): ((1, 0, 0), (1, 0, 0)),
    ("exact", 4): ((4, 0, 0), (4, 0, 0)),
    ("lt_admm", 1): ((0, 0, 1), (0, 0, 1)),
    ("lt_admm", 4): ((0, 0, 4), (0, 0, 4)),
    ("lt_admm_vr", 1): ((1, 0, 0), (1, 0, 0)),
    ("lt_admm_vr", 4): ((0, 1, 3), (0, 1, 3)),
    ("lt_admm_vr_v2", 1): ((0, 1, 0), (0, 0, 1)),
    ("lt_admm_vr_v2", 4): ((0, 1, 3), (0, 0, 4)),
}


@pytest.mark.parametrize("variant,tau", sorted(EPOCH_CALLS))
def test_refreshes_and_draws_per_epoch(monkeypatch, variant, tau, rng):
    calls = {"exact_estimate": 0, "saga_refresh": 0, "draw_batch": 0}

    def counting(name):
        original = getattr(algorithms, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(algorithms, name, counting(name))
    inst, topo = generate_classification(2, 3, 2, 5), build_ring(3)
    cfg = base_config(variant=variant, tau=tau, batch_size=2)
    streams = fresh_streams(inst, topo, cfg, [0])
    x0 = rng.normal(size=(3, 2))
    for k, expected in enumerate(EPOCH_CALLS[variant, tau]):
        calls.update(exact_estimate=0, saga_refresh=0, draw_batch=0)
        epoch(inst, topo, cfg, x0, k=k, streams=streams)
        assert tuple(calls.values()) == expected, k


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


    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_has_the_bits_of_the_fancy_index_form(self, rng, stack):
        topo = random_connected_topology(rng, 7)
        Z = rng.normal(size=stack + (topo.num_directed_edges, 4))
        X = rng.normal(size=stack + (7, 4))
        payload = Z - 2.0 * 0.7 * X[..., topo.src, :]
        expected = 0.5 * (Z - payload[..., topo.rev, :])
        assert exchange(topo, Z, X, 0.7).tobytes() == expected.tobytes()


class TestOuterStep:
    @pytest.mark.parametrize("variant", ["exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2"])
    def test_conservation_every_iteration(self, variant, rng):
        topo = random_connected_topology(rng, 6)
        inst = generate_classification(5, 6, 3, 8)
        cfg = base_config(variant=variant, gamma=0.02, rho=1.4, outer_iterations=15)
        trace = simulate_replicate(inst, topo, cfg, replicate=0)
        for grad_norm_sq, residual in zip(trace.grad_norm_sq[1:, 0], trace.conservation_residual[1:, 0]):
            scale = max(1.0, np.sqrt(grad_norm_sq) + 1.0)
            assert residual <= 1e-10 * scale

    def test_metrics_have_the_bits_of_the_reference_forms(self):
        """The metrics equal, bit for bit, the mean and ``np.linalg.norm`` forms they replaced."""
        inst = generate_classification(5, 6, 3, 8)
        topo = build_from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (2, 5)])
        cfg = base_config(variant="lt_admm_vr", gamma=0.05, rho=1.4, batch_size=2, monte_carlo_runs=3)
        X = initial_iterates(cfg, 6, 3, range(3))
        Z = X[:, topo.src]
        streams = fresh_streams(inst, topo, cfg, range(3))
        degrees = np.asarray(topo.degrees)
        for k in range(4):
            step = outer_step(streams, inst, topo, cfg, k, X, Z)
            residual = np.linalg.norm(Z.sum(axis=1) - cfg.rho * (degrees[:, None] * X).sum(axis=1), axis=-1)
            consensus = np.max(np.linalg.norm(X - X.mean(axis=1, keepdims=True), axis=-1), axis=-1)
            assert step.conservation_residual.tobytes() == residual.tobytes()
            assert step.consensus_err.tobytes() == consensus.tobytes()
            assert step.grad_norm_sq.tobytes() == global_gradient_norm_sq(inst, X.mean(axis=1)).tobytes()

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
        xa = initial_iterates(cfg_a, 5, 3, [2])
        xb = initial_iterates(cfg_b, 5, 3, [2])
        assert np.array_equal(xa, xb)

    def test_generators_equal_the_per_stream_seed_sequences(self, monkeypatch):
        inst = generate_classification(5, 4, 3, 6)
        topo = build_ring(4)
        cfg = base_config(variant="lt_admm", master_seed=2**40 + 7, init_std=3.0)
        replicates = [3, 0, 7]

        def reference(r, tag):
            return np.random.default_rng(np.random.SeedSequence([cfg.master_seed, r, tag]))

        # blocks of one step: the run's draws do not fit in the shared block,
        # so its streams hold generators
        monkeypatch.setattr(oracles, "_BLOCK_ENTRIES", 1)
        streams = list(fresh_streams(inst, topo, cfg, replicates))
        assert len(streams) == len(replicates) * topo.num_agents
        for stream, (r, i) in zip(streams, [(r, i) for r in replicates for i in range(4)]):
            assert stream.rng.bit_generator.state == reference(r, 1 + i).bit_generator.state
        X = initial_iterates(cfg, topo.num_agents, inst.dimension, replicates)
        assert X.shape == (3, topo.num_agents, inst.dimension)
        for row, r in zip(X, replicates):
            expected = reference(r, 0).normal(0.0, cfg.init_std, size=(topo.num_agents, inst.dimension))
            assert np.array_equal(row, expected)

    def test_shared_inputs_belong_to_one_random_key(self):
        inst = generate_classification(5, 4, 3, 6)
        topo = build_ring(4)
        vr = base_config(variant="lt_admm_vr", outer_iterations=3)
        shared = shared_inputs(
            inst, topo, [vr, base_config(variant="lt_admm", tau=4, gamma=0.2, outer_iterations=3)], range(2)
        )
        # the run that draws most sizes the block: lt_admm, 3 x 4 draws
        assert [f.name for f in dataclasses.fields(shared)] == ["key", "iterates", "block"]
        assert shared.block.shape == (2, 4, 12, 1)
        with pytest.raises(ValueError, match="random key"):
            simulate_replicates(inst, topo, vr, range(3), shared)
        with pytest.raises(ValueError, match="random key"):
            init_states(inst, topo, vr, range(3), shared)
        with pytest.raises(ValueError, match="random key"):
            simulate_replicates(inst, topo, base_config(variant="lt_admm_vr", master_seed=8), range(2), shared)
        with pytest.raises(ValueError, match="init_std"):
            shared_inputs(inst, topo, [vr, base_config(init_std=1.0)], range(2))

    def test_shared_inputs_are_read_only(self):
        inst = generate_classification(5, 4, 3, 6)
        shared = shared_inputs(inst, build_ring(4), [base_config(variant="lt_admm")], range(2))
        for name in ("iterates", "block"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(shared, name)[0, 0, 0] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(shared, name, getattr(shared, name).copy())

    def test_the_shared_block_holds_only_the_runs_that_fit(self, monkeypatch):
        inst = generate_classification(5, 4, 3, 6)
        topo = build_ring(4)
        # blocks of 10 steps for the 2 x 4 streams: lt_admm_vr draws 8
        # batches and fits, lt_admm draws 12 and does not
        monkeypatch.setattr(oracles, "_BLOCK_ENTRIES", 10 * 8)
        vr = base_config(variant="lt_admm_vr", tau=3, outer_iterations=4)
        sgd = base_config(variant="lt_admm", tau=3, outer_iterations=4)
        shared = shared_inputs(inst, topo, [vr, sgd], range(2))
        assert shared.block.shape == (2, 4, 8, 1)
        assert init_states(inst, topo, vr, range(2), shared).block is shared.block
        longer = init_states(inst, topo, sgd, range(2), shared)
        assert longer.block is None and len(longer.rngs) == 8
        # a group in which no run fits draws no block
        assert shared_inputs(inst, topo, [sgd], range(2)).block.shape == (2, 4, 0, 1)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"variant": "exact"},
            {"variant": "lt_admm", "outer_iterations": 0},
            {"variant": "lt_admm_vr", "tau": 1},
            {"variant": "lt_admm_vr_v2", "tau": 1, "outer_iterations": 1},
        ],
        ids=["exact", "no-iterations", "vr-tau-1", "vr-v2-one-step"],
    )
    def test_a_run_that_never_draws_holds_and_seeds_no_generators(self, monkeypatch, overrides):
        inst = generate_classification(5, 4, 3, 6)
        topo = build_ring(4)
        cfg = base_config(**overrides)
        assert algorithms.batch_draws(cfg) == 0
        seeded = []
        seed = algorithms._seeded_generators

        def counting_seed(master_seed, rows):
            seeded.append(np.asarray(rows).copy())
            return seed(master_seed, rows)

        monkeypatch.setattr(algorithms, "_seeded_generators", counting_seed)
        shared = shared_inputs(inst, topo, [cfg], range(2))
        # one pass seeds the initial iterates' generators, tag 0, and nothing else
        assert len(seeded) == 1 and np.array_equal(seeded[0], [[0, 0], [1, 0]])
        assert shared.block.shape[2] == 0
        streams = init_states(inst, topo, cfg, range(2), shared)
        assert streams.rngs == [] and all(stream.rng is None for stream in streams)
        simulate_replicates(inst, topo, cfg, range(2), shared)
        assert len(seeded) == 1

    def test_a_run_longer_than_the_shared_block_has_generators_of_its_own(self, monkeypatch):
        inst = generate_classification(5, 4, 3, 6)
        topo = build_ring(4)
        short = base_config(variant="lt_admm", outer_iterations=2, record_dk=True)
        long = base_config(variant="lt_admm", outer_iterations=5, record_dk=True)
        shared = shared_inputs(inst, topo, [short], range(2))
        assert shared.block.shape[2] == 6
        block = shared.block.copy()
        started = []

        def recording_init_states(*args):
            started.append(init_states(*args))
            return started[-1]

        monkeypatch.setattr(algorithms, "init_states", recording_init_states)
        record = simulate_replicates(inst, topo, long, range(2), shared)
        alone = simulate_replicates(inst, topo, long, range(2))
        assert record.diverged_at == alone.diverged_at
        for name in ("grad_norm_sq", "consensus_err", "conservation_residual", "d_k", "component_evals"):
            assert getattr(record, name).tobytes() == getattr(alone, name).tobytes(), name
        # the 15 draws came from generators of the run's own, each advanced by
        # exactly them, and the shared block stayed as it was
        streams = started[0]
        assert len(streams.rngs) == 8 and not any(rng is other for rng in streams.rngs for other in started[1].rngs)
        for index, stream in enumerate(streams):
            r, i = divmod(index, 4)
            reference = np.random.default_rng(np.random.SeedSequence([long.master_seed, r, 1 + i]))
            for _ in range(15):
                reference.integers(0, stream.num_points, size=1)
            assert stream.rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(shared.block, block)

    def test_draw_batch_stops_at_the_end_of_a_shared_block(self):
        inst = generate_classification(5, 4, 3, 6)
        topo = build_ring(4)
        cfg = base_config(variant="lt_admm", tau=2, outer_iterations=1)
        shared = shared_inputs(inst, topo, [cfg], range(2))
        streams = init_states(inst, topo, cfg, range(2), shared)
        assert streams.block is shared.block and shared.block.shape[2] == 2
        assert streams.rngs == []
        batches = np.stack([draw_batch(streams) for _ in range(2)], axis=2)
        assert np.array_equal(batches, shared.block)
        with pytest.raises(RuntimeError, match="whole block"):
            draw_batch(streams)

    def test_initial_scale(self):
        cfg = base_config()
        x0 = initial_iterates(cfg, 400, 5, [0])
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
        for a, b in zip(t_exact.grad_norm_sq[:, 0], t_sgd.grad_norm_sq[:, 0]):
            assert abs(a - b) <= 1e-13 * max(1.0, a)
        for a, b in zip(t_exact.consensus_err[:, 0], t_sgd.consensus_err[:, 0]):
            assert abs(a - b) <= 1e-13

    def test_vr_variants_identical_first_iteration(self):
        inst = generate_classification(6, 4, 3, 7)
        topo = build_ring(4)
        cfg_vr = base_config(variant="lt_admm_vr", gamma=0.04, outer_iterations=1)
        cfg_v2 = base_config(variant="lt_admm_vr_v2", gamma=0.04, outer_iterations=1)
        s_vr = simulate_replicate(inst, topo, cfg_vr, 0)
        s_v2 = simulate_replicate(inst, topo, cfg_v2, 0)
        assert s_vr.grad_norm_sq[-1, 0] == s_v2.grad_norm_sq[-1, 0]
        assert s_vr.consensus_err[-1, 0] == s_v2.consensus_err[-1, 0]

    def test_vr_variants_diverge_later(self):
        inst = generate_classification(6, 4, 3, 7)
        topo = build_ring(4)
        cfg_vr = base_config(variant="lt_admm_vr", gamma=0.04, outer_iterations=6)
        cfg_v2 = base_config(variant="lt_admm_vr_v2", gamma=0.04, outer_iterations=6)
        s_vr = simulate_replicate(inst, topo, cfg_vr, 0)
        s_v2 = simulate_replicate(inst, topo, cfg_v2, 0)
        assert s_vr.grad_norm_sq[-1, 0] != s_v2.grad_norm_sq[-1, 0]


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
    @pytest.mark.filterwarnings("error")
    def test_diverged_replicate_not_fatal(self):
        inst = scalar_quadratic(4)
        topo = build_ring(4)
        cfg = base_config(variant="exact", gamma=50.0, rho=3.0, tau=8, outer_iterations=200, monte_carlo_runs=2)
        trace = run(inst, topo, cfg)
        assert trace.num_diverged >= 1
        assert sum(at is not None for at in trace.replicates.diverged_at) == trace.num_diverged


    def test_guard_matches_the_per_row_check(self, rng):
        """The one-bound guard flags the rows the per-row norm check flags, on stacks that straddle the bound."""
        limit = algorithms.DIVERGENCE_NORM
        n = 5
        bound = limit / (2.0 * np.sqrt(n))
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        rows = {
            "above": limit * (1 + 1e-9) * direction,
            "below": limit * (1 - 1e-9) * direction,
            "huge": np.array([1e300, 0.0, 0.0, 0.0, 0.0]),
            "nan": np.array([0.0, np.nan, 0.0, 0.0, 0.0]),
            "inf": np.array([0.0, 0.0, np.inf, 0.0, 0.0]),
            "-inf": np.array([0.0, 0.0, 0.0, -np.inf, 0.0]),
            "at the bound": np.full(n, -bound),
        }
        for name, row in rows.items():
            phi = rng.normal(size=(3, 4, n))
            phi[1, 2] = row
            reference = ~(np.einsum("rij,rij->ri", phi, phi) <= limit**2)
            left = algorithms._outside(phi)
            if name == "at the bound":
                assert left is None and not reference.any()
                continue
            assert not (np.abs(phi) <= bound).all()  # the per-row check runs
            assert reference[1, 2] == (name != "below") and reference.sum() == reference[1, 2]
            if reference.any():
                assert np.array_equal(left, reference), name
            else:
                assert left is None, name
        assert algorithms._outside(np.zeros((2, 3, n))) is None


class TestRecordDk:
    def test_dk_attached_to_epoch_start_record(self):
        inst = generate_classification(5, 3, 2, 6)
        topo = build_ring(3)
        cfg = base_config(record_dk=True, outer_iterations=4)
        trace = simulate_replicate(inst, topo, cfg, 0)
        values = trace.d_k[:, 0]
        assert all(np.isfinite(values[:-1]))
        assert np.isnan(values[-1])
        # the metric dominates the squared mean-iterate gradient
        for d_k, grad_norm_sq in zip(values[:-1], trace.grad_norm_sq[:-1, 0]):
            assert d_k >= grad_norm_sq - 1e-15

    @pytest.mark.parametrize("variant", ["exact", "lt_admm", "lt_admm_vr"])
    def test_dk_pairs_each_epoch_with_its_start_state(self, variant):
        inst = generate_classification(5, 4, 3, 6)
        topo = build_ring(4)
        cfg = base_config(variant=variant, record_dk=True, outer_iterations=4, gamma=0.1, tau=3)
        X = initial_iterates(cfg, topo.num_agents, inst.dimension, [0])
        Z = X[:, topo.src]
        streams = fresh_streams(inst, topo, cfg, [0])
        expected = []
        for k in range(cfg.outer_iterations):
            x_bar = X[0].mean(axis=0)
            log = []
            outer_step(streams, inst, topo, cfg, k, X, Z, log)
            inner = 0.0
            for phi, _ in log:
                mean = np.mean([local_full_gradient(inst, i, row) for i, row in enumerate(phi[0])], axis=0)
                inner += float(mean @ mean)
            expected.append(global_gradient_norm_sq(inst, x_bar) + inner / cfg.tau)
        d_k = simulate_replicate(inst, topo, cfg, 0).d_k[:, 0]
        for k, value in enumerate(expected):
            assert d_k[k] == pytest.approx(value, rel=1e-12)


    @pytest.mark.parametrize("variant", algorithms.VARIANTS)
    def test_refreshed_gradients_stand_in_for_local_gradients(self, monkeypatch, variant):
        inst, topo = unequal_problem(), build_ring(5)
        cfg = base_config(
            variant=variant, record_dk=True, outer_iterations=4, gamma=0.1, tau=3, batch_size=2
        )
        stacked = []

        def counted(instance, x):
            stacked.append(len(x))
            return local_gradients(instance, x)

        monkeypatch.setattr(algorithms, "local_gradients", counted)
        replicates = simulate_replicates(inst, topo, cfg, [0, 1])
        d_k = replicates.d_k
        # the reference evaluates local_gradients at every logged Phi_t
        X = initial_iterates(cfg, topo.num_agents, inst.dimension, [0, 1])
        Z = X[:, topo.src]
        streams = fresh_streams(inst, topo, cfg, [0, 1])
        expected = np.full(d_k.shape, np.nan)
        for k in range(cfg.outer_iterations):
            log = []
            outer_step(streams, inst, topo, cfg, k, X, Z, log)
            inner = np.add.reduce(local_gradients(inst, np.stack([phi for phi, _ in log])), axis=-2) / 5
            expected[k] = compute_dk(replicates.grad_norm_sq[k], inner, cfg.tau)
        schedule = [cfg.tau - refresh_steps(variant, cfg.tau, k) for k in range(cfg.outer_iterations)]
        assert stacked == [steps for steps in schedule if steps]  # none for exact
        assert np.isfinite(d_k[:-1]).all()
        if variant == "lt_admm":
            assert d_k.tobytes() == expected.tobytes()
        else:
            np.testing.assert_allclose(d_k, expected, rtol=1e-12, atol=0)


def unequal_problem(seed=4, points=(3, 7, 1, 5, 9), dimension=3):
    """Logistic problem whose agents hold different numbers of points."""
    rng = np.random.default_rng(seed)
    return ProblemInstance(
        kind="logistic_nonconvex",
        features=tuple(rng.normal(size=(m, dimension)) for m in points),
        labels=tuple(rng.choice([-1.0, 1.0], size=m) for m in points),
        epsilon=0.01,
    )


def assert_same_trace(a, r, b, s, rel=1e-12):
    """Column r of the stacked replicates ``a`` matches column s of ``b``.

    The states, and so the metrics that reduce each replicate's own rows,
    keep their bits in any stack.  ``grad_norm_sq`` and ``d_k`` come from
    matrix products over all replicates' rows, whose BLAS kernel may round
    a row differently with the number of rows: OpenBLAS takes a one-row
    path for a lone replicate, and on some hosts groups rows into blocks
    (measured: the rows of 1, of 2-3 and of 4-5 points of one 45 x 3
    problem round alike within a group, not across).  Those two are held
    to ``rel``.
    """
    assert a.diverged_at[r] == b.diverged_at[s]
    assert np.array_equal(a.component_evals, b.component_evals)
    assert np.array_equal(a.comms, b.comms)
    for name in ("consensus_err", "conservation_residual"):
        assert getattr(a, name)[:, r].tobytes() == getattr(b, name)[:, s].tobytes(), name
    for name in ("grad_norm_sq", "d_k"):
        x, y = getattr(a, name)[:, r], getattr(b, name)[:, s]
        assert x.shape == y.shape
        assert np.array_equal(np.isnan(x), np.isnan(y))
        finite = ~np.isnan(x)
        assert np.all(np.abs(x - y)[finite] <= rel * np.abs(y)[finite])


class TestReplicateAxis:
    """Stacking replicates changes no replicate's trajectory."""

    @pytest.mark.parametrize("variant", ["exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2"])
    @pytest.mark.parametrize("batch_size,replacement", [(1, True), (2, True), (1, False), (2, False)])
    def test_replicate_equals_smaller_stack_and_solo_run(self, variant, batch_size, replacement):
        # a batch drawn without replacement needs b points at every agent
        inst = unequal_problem(points=(3, 7, 1 if replacement else batch_size, 5, 9))
        topo = build_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
        cfg = base_config(
            variant=variant,
            gamma=0.05,
            rho=1.2,
            tau=3,
            outer_iterations=6,
            batch_size=batch_size,
            batch_replacement=replacement,
            record_dk=True,
            monte_carlo_runs=3,
        )
        stacked = simulate_replicates(inst, topo, cfg, range(3))
        for r in range(3):
            assert_same_trace(stacked, r, simulate_replicates(inst, topo, cfg, range(r + 1)), r)
            assert_same_trace(stacked, r, simulate_replicate(inst, topo, cfg, r), 0)

    @pytest.mark.filterwarnings("error")
    def test_diverged_replicate_is_frozen_while_others_run_on(self):
        # replicates 2 and 4 leave the range in iteration 5, the others finish
        inst = generate_classification(5, 4, 3, 10)
        topo = build_ring(4)
        cfg = base_config(
            variant="lt_admm_vr", gamma=1.5, rho=1.0, tau=6, outer_iterations=6,
            master_seed=1, init_std=30.0, monte_carlo_runs=6,
        )
        replicates = run(inst, topo, cfg).replicates
        assert replicates.diverged_at == [None, None, 5, None, 5, None]
        for r in range(6):
            assert_same_trace(replicates, r, simulate_replicate(inst, topo, cfg, r), 0)

        X = initial_iterates(cfg, 4, 3, range(6))
        Z = X[:, topo.src]
        streams = fresh_streams(inst, topo, cfg, range(6))
        for k in range(cfg.outer_iterations):
            before = X.copy(), Z.copy()
            outer_step(streams, inst, topo, cfg, k, X, Z)
            if k == 5:
                frozen = before
        assert sorted(streams.diverged) == [2, 4]
        for r in (2, 4):
            assert np.array_equal(X[r], frozen[0][r]) and np.array_equal(Z[r], frozen[1][r])
            solo = fresh_streams(inst, topo, cfg, [r])
            X1 = initial_iterates(cfg, 4, 3, [r])
            Z1 = X1[:, topo.src]
            for k in range(cfg.outer_iterations):
                outer_step(solo, inst, topo, cfg, k, X1, Z1)
            error, alone = streams.diverged[r], solo.diverged[0]
            assert error.outer_iteration == 5
            assert (error.agent, error.outer_iteration, error.inner_step) == (
                alone.agent, alone.outer_iteration, alone.inner_step
            )
            assert np.max(np.abs(X[r] - X1[0])) <= 1e-12 * np.max(np.abs(X1[0]))

    @pytest.mark.filterwarnings("error")
    def test_held_columns_are_blank_after_divergence(self):
        # the config above with d_k recorded: replicates 2 and 4 leave in iteration 5 of 6
        inst = generate_classification(5, 4, 3, 10)
        topo = build_ring(4)
        cfg = base_config(
            variant="lt_admm_vr", gamma=1.5, rho=1.0, tau=6, outer_iterations=6,
            master_seed=1, init_std=30.0, monte_carlo_runs=6, record_dk=True,
        )
        replicates = simulate_replicates(inst, topo, cfg, range(6))
        assert replicates.diverged_at == [None, None, 5, None, 5, None]
        for r, at in enumerate(replicates.diverged_at):
            last = cfg.outer_iterations if at is None else at
            for name in ("grad_norm_sq", "consensus_err", "conservation_residual"):
                column = getattr(replicates, name)[:, r]
                assert np.isfinite(column[: last + 1]).all()
                assert np.isnan(column[last + 1 :]).all()
            assert np.isfinite(replicates.d_k[:last, r]).all()
            assert np.isnan(replicates.d_k[last:, r]).all()

    @pytest.mark.parametrize("variant", ["exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2"])
    def test_component_evals_is_every_replicates_count(self, variant):
        inst = unequal_problem()
        topo = build_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
        cfg = base_config(
            variant=variant, gamma=0.05, rho=1.2, tau=3, outer_iterations=6,
            batch_size=2, monte_carlo_runs=3,
        )
        replicates = simulate_replicates(inst, topo, cfg, range(3))
        X = initial_iterates(cfg, 5, inst.dimension, range(3))
        Z = X[:, topo.src]
        streams = fresh_streams(inst, topo, cfg, range(3))
        counts = [np.zeros(3, dtype=np.int64)]
        for k in range(cfg.outer_iterations):
            before = streams.tally.copy()
            outer_step(streams, inst, topo, cfg, k, X, Z)
            # each replicate's round waits for its own slowest agent
            counts.append(counts[-1] + (streams.tally - before).max(axis=1))
        for r in range(3):
            assert np.array_equal(replicates.component_evals, [count[r] for count in counts])

    @pytest.mark.filterwarnings("error")
    def test_held_replicate_keeps_its_start_over_a_long_tail(self):
        inst = unequal_problem()
        topo = build_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
        cfg = base_config(
            variant="lt_admm_vr", gamma=0.05, rho=1.2, tau=3, outer_iterations=30,
            batch_size=2, monte_carlo_runs=3,
        )
        solo_start = {r: initial_iterates(cfg, 5, 3, [r]) for r in (0, 2)}
        X = np.concatenate([solo_start[0], np.full((1, 5, 3), 1e13), solo_start[2]])
        Z = X[:, topo.src]
        start = X[1].copy(), Z[1].copy()
        streams = fresh_streams(inst, topo, cfg, range(3))
        for k in range(cfg.outer_iterations):
            outer_step(streams, inst, topo, cfg, k, X, Z)
        assert np.array_equal(X[1], start[0]) and np.array_equal(Z[1], start[1])
        assert list(streams.diverged) == [1]
        error = streams.diverged[1]
        assert (error.outer_iteration, error.inner_step) == (0, 0)
        for r, X1 in solo_start.items():
            Z1 = X1[:, topo.src]
            solo = fresh_streams(inst, topo, cfg, [r])
            for k in range(cfg.outer_iterations):
                outer_step(solo, inst, topo, cfg, k, X1, Z1)
            assert np.max(np.abs(X[r] - X1[0])) <= 1e-12 * np.max(np.abs(X1[0]))
            assert np.max(np.abs(Z[r] - Z1[0])) <= 1e-12 * np.max(np.abs(Z1[0]))

    @pytest.mark.filterwarnings("error")
    def test_last_replicates_to_leave_are_recorded_where_they_left(self):
        # replicate 0 leaves at once; 1 and 2 start alike and leave together later
        inst = scalar_quadratic()
        topo = build_ring(3)
        cfg = base_config(variant="exact", gamma=50.0, rho=3.0, tau=2, monte_carlo_runs=3)
        x = initial_iterates(cfg, 3, 1, [1])[0]
        X = np.stack([np.full((3, 1), 1e13), x, x])
        Z = X[:, topo.src]
        streams = fresh_streams(inst, topo, cfg, range(3))
        for k in range(cfg.outer_iterations):
            outer_step(streams, inst, topo, cfg, k, X, Z)
        first, *last = (streams.diverged[r] for r in range(3))
        assert (first.agent, first.outer_iteration, first.inner_step) == (0, 0, 0)
        where = {(e.agent, e.outer_iteration, e.inner_step) for e in last}
        assert where == {(0, 2, 0)}
        # every replicate is held from then on, and its rows stay finite
        assert np.isfinite(X).all() and np.isfinite(Z).all()
        assert np.array_equal(X[1], X[2]) and np.array_equal(Z[1], Z[2])
        assert (streams.tally == cfg.outer_iterations * cfg.tau).all()

    @pytest.mark.parametrize("gamma", [10.0, 80000.0])
    @pytest.mark.parametrize("variant", ["exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2"])
    def test_all_diverged_run_counts_every_iteration(self, monkeypatch, variant, gamma):
        steps = []

        def counted_outer_step(*args):
            steps.append(args[4])
            return outer_step(*args)

        monkeypatch.setattr(algorithms, "outer_step", counted_outer_step)
        inst = unequal_problem()
        topo = build_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
        cfg = base_config(
            variant=variant, gamma=gamma, rho=1.2, tau=3, outer_iterations=6,
            batch_size=2, monte_carlo_runs=3, record_dk=True,
        )
        replicates = simulate_replicates(inst, topo, cfg, range(3))
        assert None not in replicates.diverged_at
        # the run stops once the last replicate has diverged
        assert steps == list(range(max(replicates.diverged_at) + 1))
        assert len(steps) < cfg.outer_iterations
        charges = [iteration_evals(variant, 3, inst.max_points, 2, k) for k in range(6)]
        assert np.array_equal(replicates.component_evals, np.cumsum([0] + charges))
        assert np.array_equal(replicates.comms, topo.num_directed_edges * np.arange(7))

    @pytest.mark.filterwarnings("error")
    def test_held_rows_stay_finite_through_a_long_epoch(self):
        # at this step size a nonzero state grows about 349-fold per inner step
        inst = scalar_quadratic()
        topo = build_ring(3)
        cfg = base_config(gamma=50.0, rho=3.0, tau=200, outer_iterations=1, monte_carlo_runs=2)
        X = np.stack([np.zeros((3, 1)), np.ones((3, 1))])
        Z = X[:, topo.src]
        streams = fresh_streams(inst, topo, cfg, range(2))
        outer_step(streams, inst, topo, cfg, 0, X, Z)
        assert list(streams.diverged) == [1]
        assert np.array_equal(X, np.stack([np.zeros((3, 1)), np.ones((3, 1))]))
