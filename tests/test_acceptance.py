"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion (a failure shows up as the usual pytest FAILED line).
"""

import copy
import time

import numpy as np
import pytest

from ltadmm.algorithms import (
    RunConfig,
    initial_iterates,
    measure,
    outer_step,
    run,
)
from ltadmm.graph import build_ring
from ltadmm.metrics import iteration_charge, iteration_evals
from ltadmm.oracles import (
    Streams,
    saga_estimate_update,
    saga_refresh,
    sgd_estimate,
)
from ltadmm.problems import (
    LEAST_SQUARES,
    generate_classification,
    local_full_gradient,
)
from ltadmm.runner import preset_fig2, run_experiment, stopping_time
from ltadmm.stepsize import build_v_hat_inverse_norm, evaluate_bounds

from conftest import agent_components, fresh_streams, random_bound_context, random_connected_topology
from matrix_form import build_structure, compact_init, compact_step


def report(number: int, message: str) -> None:
    print(f"\n[criterion {number:2d}] PASS: {message}")


BENCH_PROBLEM = dict(seed=31, n_agents=10, dimension=5, points_per_agent=100, epsilon=0.01)


def benchmark_instance():
    return generate_classification(
        BENCH_PROBLEM["seed"],
        BENCH_PROBLEM["n_agents"],
        BENCH_PROBLEM["dimension"],
        BENCH_PROBLEM["points_per_agent"],
        epsilon=BENCH_PROBLEM["epsilon"],
    )


def single_streams(instance):
    """Estimator streams of one replicate, with a zero table."""
    N = instance.num_agents
    rngs = [np.random.default_rng(i) for i in range(N)]
    streams = Streams(rngs, instance.sizes, np.zeros((1, N), dtype=np.int64), 1, True, pending=0)
    streams.table = np.zeros((1, instance.num_agents, instance.max_points, instance.dimension))
    streams.table_sum = np.zeros((1, instance.num_agents, instance.dimension))
    return streams


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    worst = 0.0
    for n in (3, 5, 8):
        rng = np.random.default_rng(200 + n)
        topo = random_connected_topology(rng, n)
        inst = generate_classification(40 + n, n, 3, 8)
        cfg = RunConfig(variant="exact", gamma=0.02, rho=1.0, tau=3, outer_iterations=20, master_seed=2)
        x0 = initial_iterates(cfg, n, 3, [0])[0]
        streams = fresh_streams(inst, topo, cfg, [0])
        cstate = compact_init(build_structure(topo), x0)
        X, Z = x0[None].copy(), cstate.Z[None].copy()
        for k in range(20):
            outer_step(streams, inst, topo, cfg, k, X, Z)
            cstate = compact_step(cstate, inst, cfg)
        worst = max(worst, float(np.max(np.abs(X[0] - cstate.X))))
        worst = max(worst, float(np.max(np.abs(Z[0] - cstate.Z))))
    elapsed = time.monotonic() - started
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, f"agent-level and matrix-form trajectories agree (max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_conservation_identity():
    worst_ratio = check_conservation_identity()
    report(2, f"edge-variable conservation holds every iteration (worst residual ratio {worst_ratio:.2e})")


def check_conservation_identity() -> float:
    """Criterion 2's check; returns the worst residual over its scale."""
    worst_ratio = 0.0
    for variant in ("exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2"):
        for topo_seed, n in ((1, 6), (2, 10)):
            rng = np.random.default_rng(topo_seed)
            topo = build_ring(n) if topo_seed == 2 else random_connected_topology(rng, n)
            inst = generate_classification(7, n, 3, 9)
            cfg = RunConfig(
                variant=variant, gamma=0.05, rho=1.3, tau=4, outer_iterations=30, master_seed=3
            )
            X = initial_iterates(cfg, n, 3, [0])[0]
            Z = compact_init(build_structure(topo), X).Z[None]
            X = X[None]
            streams = fresh_streams(inst, topo, cfg, [0])
            for k in range(cfg.outer_iterations):
                outer_step(streams, inst, topo, cfg, k, X, Z)
                residual = measure(inst, X, Z, topo.degree_vector, cfg.rho).conservation_residual[0]
                scale = max(1.0, float(np.linalg.norm(X)))
                assert residual <= 1e-10 * scale
                worst_ratio = max(worst_ratio, residual / scale)
    return worst_ratio


def test_criterion_3_estimator_unbiasedness():
    rng = np.random.default_rng(9)
    worst = 0.0
    for m in (3, 4, 5):
        inst = generate_classification(60 + m, 1, 3, m)
        for trial in range(3):
            x = rng.normal(size=3, scale=2.0)
            full = local_full_gradient(inst, 0, x)
            at_x = x[None, None]
            streams = single_streams(inst)
            sgd_mean = sum(
                sgd_estimate(streams, inst, at_x, np.array([[[h]]]))[0, 0] for h in range(m)
            ) / m
            for h in range(m):
                stale_point = rng.normal(size=3, scale=3.0)
                streams.table[0, 0, h] = agent_components(inst, 0, np.array([h]), stale_point)[0]
            streams.table_sum[0, 0] = streams.table[0, 0].sum(axis=0)
            saga_mean = sum(
                saga_estimate_update(copy.deepcopy(streams), inst, at_x, np.array([[[h]]]))[0, 0]
                for h in range(m)
            ) / m
            worst = max(worst, float(np.max(np.abs(sgd_mean - full))))
            worst = max(worst, float(np.max(np.abs(saga_mean - full))))
    assert worst <= 1e-13
    report(3, f"both estimators are unbiased under exhaustive enumeration (max dev {worst:.2e})")


def test_criterion_4_anchor_collapse():
    rng = np.random.default_rng(10)
    inst = generate_classification(77, 2, 4, 12)
    worst = 0.0
    for agent in range(2):
        streams = single_streams(inst)
        anchor = rng.normal(size=4, scale=2.0)
        saga_refresh(streams, inst, np.tile(anchor, (1, 2, 1)))
        full = local_full_gradient(inst, agent, anchor)
        for batch in ([0], [3, 7], [1, 1, 5], list(range(12))):
            g = saga_estimate_update(
                copy.deepcopy(streams), inst, np.tile(anchor, (1, 2, 1)), np.tile(batch, (1, 2, 1))
            )[0, agent]
            worst = max(worst, float(np.max(np.abs(g - full))))
    assert worst <= 1e-14
    report(4, f"fresh-table estimate collapses to the full gradient (max dev {worst:.2e})")


def test_criterion_5_exact_convergence_convex():
    started = time.monotonic()
    inst = generate_classification(11, 10, 5, 20, kind=LEAST_SQUARES, epsilon=0.0)
    topo = build_ring(10)
    cfg = RunConfig(variant="exact", gamma=0.05, rho=1.0, tau=5, outer_iterations=600, master_seed=5)
    trace = run(inst, topo, cfg)
    elapsed = time.monotonic() - started
    assert cfg.outer_iterations <= 10_000
    assert np.max(trace.replicates.conservation_residual[1:]) <= 1e-8
    columns = trace.columns
    k_grad = next((k for k, g in zip(columns["k"], columns["grad_norm_sq_mean"]) if g < 1e-8), None)
    k_cons = next((k for k, c in zip(columns["k"], columns["consensus_err_mean"]) if c < 1e-6), None)
    assert k_grad is not None and k_grad <= 10_000
    assert k_cons is not None and k_cons <= 10_000
    assert columns["grad_norm_sq_mean"][-1] < 1e-8
    assert columns["consensus_err_mean"][-1] < 1e-6
    assert elapsed < 10.0
    report(
        5,
        f"exact mode solves the convex benchmark (grad < 1e-8 at k={k_grad}, "
        f"consensus < 1e-6 at k={k_cons}, {elapsed:.1f}s)",
    )


def test_criterion_6_variance_reduced_reaches_threshold():
    started = time.monotonic()
    inst = benchmark_instance()
    topo = build_ring(10)
    cfg = RunConfig(
        variant="lt_admm_vr",
        gamma=0.8,
        rho=1.0,
        tau=5,
        batch_size=1,
        outer_iterations=1300,
        master_seed=5,
        monte_carlo_runs=20,
    )
    trace = run(inst, topo, cfg)
    elapsed = time.monotonic() - started
    assert trace.num_diverged == 0
    assert np.max(trace.replicates.conservation_residual[1:]) <= 1e-8
    hit = stopping_time(trace, 1e-9)
    assert hit is not None
    assert np.isfinite(hit["model_time"])
    assert elapsed < 120.0
    report(
        6,
        f"variance-reduced variant reaches 1e-9 over 20 replicates "
        f"(k={hit['k']}, model time {hit['model_time']:.0f}, {elapsed:.0f}s)",
    )


def test_criterion_7_stochastic_plateau_and_step_size_ordering():
    inst = benchmark_instance()
    topo = build_ring(10)

    def plateau(gamma):
        cfg = RunConfig(
            variant="lt_admm",
            gamma=gamma,
            rho=1.0,
            tau=5,
            batch_size=1,
            outer_iterations=900,
            master_seed=5,
            monte_carlo_runs=20,
        )
        trace = run(inst, topo, cfg)
        assert trace.num_diverged == 0
        tail = trace.columns["grad_norm_sq_mean"][trace.columns["k"] > 650]
        return float(np.mean(tail))

    level = plateau(0.4)
    halved = plateau(0.2)
    assert 1e-5 <= level <= 1e-2
    assert halved < level
    report(
        7,
        f"mini-batch variant plateaus in band (gamma 0.4 -> {level:.2e}; "
        f"halving lowers it to {halved:.2e})",
    )


def test_criterion_8_cost_model_consistency():
    rng = np.random.default_rng(123)
    variants = ("lt_admm", "lt_admm_vr", "lt_admm_vr_v2")
    for trial in range(100):
        variant = variants[trial % 3]
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 30))
        tau = int(rng.integers(1, 7))
        batch = int(rng.integers(1, m + 1))
        iters = int(rng.integers(1, 5))
        t_g = float(rng.integers(0, 5))
        t_c = float(rng.integers(0, 5))
        inst = generate_classification(int(rng.integers(0, 1000)), n, 2, m)
        topo = build_ring(n)
        cfg = RunConfig(
            variant=variant,
            gamma=0.01,
            rho=1.0,
            tau=tau,
            batch_size=batch,
            outer_iterations=iters,
            master_seed=int(rng.integers(0, 1000)),
            t_g=t_g,
            t_c=t_c,
        )
        timed = run(inst, topo, cfg)
        replicates = timed.replicates
        evals = 0
        model_time = 0.0
        for k in range(iters):
            evals += iteration_evals(variant, tau, m, batch, k)
            model_time += iteration_charge(cfg, m, k)
            assert replicates.component_evals[k + 1] == evals
            assert timed.columns["model_time"][k + 1] == model_time
    report(8, "evaluation counters and cost-table charges agree exactly on 100 random configs")


def test_criterion_9_local_step_sweep_has_interior_optimum(tmp_path):
    cfg = preset_fig2(out_dir=str(tmp_path))
    result = run_experiment(cfg, out_dir=tmp_path)
    taus = []
    times = []
    for point in result.manifest["points"]:
        assert point["num_diverged"] == 0
        assert point["stopping"] is not None, f"threshold missed at tau={point['overrides']['tau']}"
        taus.append(point["overrides"]["tau"])
        times.append(point["stopping"]["model_time"])
    order = np.argsort(taus)
    taus = [taus[i] for i in order]
    times = [times[i] for i in order]
    best = int(np.argmin(times))
    assert 0 < best < len(taus) - 1, f"minimizer at the boundary: {list(zip(taus, times))}"
    diffs = np.diff(times)
    assert (diffs < 0).any() and (diffs > 0).any()
    report(
        9,
        "time-to-threshold over local-step counts "
        + ", ".join(f"{t}:{v:.0f}" for t, v in zip(taus, times))
        + f" has interior optimum at tau={taus[best]}",
    )


def test_criterion_10_bound_report_self_consistency():
    rng = np.random.default_rng(77)
    for _ in range(20):
        ctx = random_bound_context(rng)
        rep = evaluate_bounds(ctx)
        assert rep.gamma_bar_sgd == min(rep.gamma_bars[i] for i in (1, 2, 3, 4, 5, 6, 7))
        assert rep.gamma_bar_sarah == min(
            rep.gamma_bars[i] for i in (1, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)
        )
    from ltadmm.graph import spectral_quantities
    from ltadmm.stepsize import BoundContext

    spec = spectral_quantities(build_ring(10))
    v = build_v_hat_inverse_norm(spec, 1.0, 5, 0.01)
    ctx = BoundContext(
        L=2.0,
        rho=1.0,
        tau=5,
        gamma_candidate=0.01,
        d_u=spec.max_degree,
        lambda_tilde_min_abs=spec.lambda_tilde_min_abs,
        lambda_tilde_max_abs=spec.lambda_tilde_max_abs,
        m_l=100,
        m_u=100,
        num_agents=10,
        v_inv_norm=v,
    )
    first_bound = evaluate_bounds(ctx).gamma_bars[1]
    assert first_bound == pytest.approx(0.1, rel=1e-9)
    report(10, f"regime minima match their components; first bound on the 10-ring is {first_bound:.3f}")
