import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from ltadmm.algorithms import VARIANTS, RunConfig
from ltadmm.graph import build_from_edges, build_ring, spectral_quantities
from ltadmm.problems import KINDS, generate_classification
from ltadmm.stepsize import (
    BoundContext,
    IllConditionedBlockError,
    StepSizePreconditionError,
    build_v_hat_inverse_norm,
    certified_run_check,
    evaluate_bounds,
    make_context,
)

SGD_INDICES = (1, 2, 3, 4, 5, 6, 7)
SARAH_INDICES = (1, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)


def ring_context(L=2.0, rho=1.0, tau=5, gamma=0.01, n=10, m_l=100, m_u=100):
    spec = spectral_quantities(build_ring(n))
    v = build_v_hat_inverse_norm(spec, rho, tau, gamma)
    return BoundContext(
        L=L,
        rho=rho,
        tau=tau,
        gamma_candidate=gamma,
        d_u=spec.max_degree,
        lambda_tilde_min_abs=spec.lambda_tilde_min_abs,
        lambda_tilde_max_abs=spec.lambda_tilde_max_abs,
        m_l=m_l,
        m_u=m_u,
        num_agents=n,
        v_inv_norm=v,
    )


from conftest import random_bound_context as random_context


class TestBlockInverseNorm:
    def test_reproducible_and_positive(self):
        spec = spectral_quantities(build_ring(10))
        a = build_v_hat_inverse_norm(spec, 1.0, 5, 0.01)
        b = build_v_hat_inverse_norm(spec, 1.0, 5, 0.01)
        assert a == b
        assert a > 0 and math.isfinite(a)

    def test_tiny_gamma_reports_ill_conditioning(self):
        spec = spectral_quantities(build_ring(10))
        with pytest.raises(IllConditionedBlockError) as exc:
            build_v_hat_inverse_norm(spec, 1.0, 5, 1e-27)
        assert exc.value.eigenvalue > 0

    def test_precondition_violation(self):
        spec = spectral_quantities(build_ring(10))
        # 4 * 1 * 5 * 0.2 = 4 >= 2
        with pytest.raises(StepSizePreconditionError):
            build_v_hat_inverse_norm(spec, 1.0, 5, 0.2)

    def test_blocks_are_complex_conjugate(self):
        # on the admissible range the radicand is negative, so the two
        # off-diagonal columns are complex conjugates
        from ltadmm.stepsize import eigenvector_block

        block = eigenvector_block(-0.5, 1.0, 5, 0.01)
        assert np.allclose(block[:, 1], np.conj(block[:, 2]))
        assert block[:, 1].imag.any()

    @pytest.mark.parametrize(
        "lam,rho,tau,gamma",
        [(-0.38, 1.0, 5, 0.05), (-4.0, 1.0, 5, 0.05), (-1.0, 0.3, 2, 0.1), (-2.0, 2.0, 8, 0.01)],
    )
    def test_block_columns_are_eigenvectors(self, lam, rho, tau, gamma):
        # independent check against the per-eigenvalue iteration block built
        # straight from the stacked dynamics
        from ltadmm.stepsize import eigenvector_block

        gt = gamma * tau
        iteration_block = np.array(
            [
                [1.0, gt, 0.0],
                [rho * lam, rho * lam * gt + 0.5, -0.5],
                [0.0, -0.5, 0.5],
            ],
            dtype=complex,
        )
        V = eigenvector_block(lam, rho, tau, gamma)
        for j in range(3):
            v = V[:, j]
            image = iteration_block @ v
            eigenvalue = (np.conj(v) @ image) / (np.conj(v) @ v)
            assert np.linalg.norm(image - eigenvalue * v) <= 1e-12


class TestBoundValues:
    def test_bound_1_ring10(self):
        report = evaluate_bounds(ring_context(rho=1.0, tau=5))
        assert report.gamma_bars[1] == pytest.approx(0.1, rel=1e-9)

    def test_bound_3(self):
        report = evaluate_bounds(ring_context(L=2.0, tau=5))
        assert report.gamma_bars[3] == pytest.approx(3.0 / 160.0, rel=1e-12)
        assert report.gamma_bars[13] == report.gamma_bars[3]

    def test_bound_8(self):
        report = evaluate_bounds(ring_context(L=2.0, m_l=50, m_u=50))
        assert report.gamma_bars[8] == pytest.approx(1.0 / 32.0, rel=1e-12)

    def test_tau_one_degenerate_bounds_are_infinite(self):
        report = evaluate_bounds(ring_context(tau=1, gamma=0.05))
        assert math.isinf(report.gamma_bars[2])
        assert math.isinf(report.gamma_bars[11])
        assert math.isfinite(report.gamma_bar_sgd)

    def test_minima_recomputed_independently(self, rng):
        for _ in range(20):
            ctx = random_context(rng)
            report = evaluate_bounds(ctx)
            assert report.gamma_bar_sgd == min(report.gamma_bars[i] for i in SGD_INDICES)
            assert report.gamma_bar_sarah == min(report.gamma_bars[i] for i in SARAH_INDICES)
            assert report.gamma_bar_sgd <= report.gamma_bars[1]
            assert report.gamma_bar_sarah <= report.gamma_bars[1]
            assert report.gamma_bars[report.binding_sgd] == report.gamma_bar_sgd
            assert report.gamma_bars[report.binding_sarah] == report.gamma_bar_sarah

    def test_report_is_deterministic(self):
        a = evaluate_bounds(ring_context())
        b = evaluate_bounds(ring_context())
        assert a.gamma_bars == b.gamma_bars
        assert a.constants == b.constants

    def test_report_serializes_to_json(self):
        report = evaluate_bounds(ring_context())
        text = json.dumps(asdict(report))
        assert "gamma_bar_sgd" in text
        assert len(report.notes) == 2


class TestMonotonicity:
    def test_bound_3_decreases_in_smoothness_and_local_steps(self):
        base = evaluate_bounds(ring_context(L=1.0, tau=4)).gamma_bars[3]
        more_l = evaluate_bounds(ring_context(L=2.0, tau=4)).gamma_bars[3]
        more_tau = evaluate_bounds(ring_context(L=1.0, tau=8)).gamma_bars[3]
        assert more_l < base
        assert more_tau < base

    def test_bound_8_tracks_balance_ratio(self):
        balanced = evaluate_bounds(ring_context(m_l=100, m_u=100)).gamma_bars[8]
        skewed = evaluate_bounds(ring_context(m_l=25, m_u=100)).gamma_bars[8]
        assert skewed == pytest.approx(0.25 * balanced, rel=1e-12)

    def test_bounds_5_6_shrink_on_longer_rings(self):
        values = []
        for n in (6, 10, 20):
            report = evaluate_bounds(ring_context(n=n, gamma=0.001, tau=5, rho=1.0))
            values.append((report.gamma_bars[5], report.gamma_bars[6]))
        assert values[0][0] >= values[1][0] >= values[2][0]
        assert values[0][1] >= values[1][1] >= values[2][1]


@pytest.fixture(scope="module")
def setup():
    instance = generate_classification(1, 10, 5, 100)
    topology = build_ring(10)
    return instance, topology


class TestCertification:

    def test_large_gamma_not_certified(self, setup):
        instance, topology = setup
        cfg = RunConfig(variant="lt_admm", gamma=10.0, rho=1.0, tau=5, outer_iterations=1)
        report = certified_run_check(instance, topology, cfg)
        assert not report.certified
        assert report.findings  # the domain violation is reported, not raised

    def test_half_the_minimum_satisfies_fixed_context(self, setup):
        # strict-minimum comparison: against a frozen context, any candidate
        # below the regime minimum is reported satisfied
        from dataclasses import replace

        instance, topology = setup
        probe = make_context(instance, topology, rho=1.0, tau=5, gamma=1e-4)
        report = evaluate_bounds(probe)
        halved = replace(probe, gamma_candidate=report.gamma_bar_sgd / 2.0)
        assert evaluate_bounds(halved).sgd_satisfied
        halved_vr = replace(probe, gamma_candidate=report.gamma_bar_sarah / 2.0)
        assert evaluate_bounds(halved_vr).sarah_satisfied
        at_bound = replace(probe, gamma_candidate=report.gamma_bar_sgd)
        assert not evaluate_bounds(at_bound).sgd_satisfied

    def test_vr_variant_uses_sarah_regime(self, setup):
        instance, topology = setup
        cfg = RunConfig(variant="lt_admm_vr", gamma=0.05, rho=1.0, tau=5, outer_iterations=1)
        report = certified_run_check(instance, topology, cfg)
        assert report.regime == "sarah"
        assert report.binding_bound is not None

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("tau", [1, 5])
    def test_every_outcome_is_read_at_its_binding_index(self, kind, tau):
        instance = generate_classification(2, 10, 3, 20, kind=kind)
        topology = build_ring(10)
        outcomes = set()
        for variant in VARIANTS:
            regime = SARAH_INDICES if variant in ("lt_admm_vr", "lt_admm_vr_v2") else SGD_INDICES
            # 1e-27 makes the blocks singular; 2.0 breaks the precondition of bound 1
            for gamma in (1e-27, 1e-4, 0.01, 0.05, 2.0):
                cfg = RunConfig(variant=variant, gamma=gamma, rho=1.0, tau=tau, outer_iterations=1)
                check = certified_run_check(instance, topology, cfg)
                if check.report is None:
                    assert not check.certified
                    assert len(check.findings) == 1
                    assert check.bound_value is None
                    outcomes.add("precondition" if check.binding_bound == 1 else "ill-conditioned")
                    continue
                assert check.findings == ()
                assert check.binding_bound in regime
                assert check.bound_value == check.report.gamma_bars[check.binding_bound]
                assert check.certified == (gamma < check.bound_value)
                outcomes.add("evaluated")
        # the bounds are conservative enough that no gamma here certifies
        assert outcomes == {"precondition", "ill-conditioned", "evaluated"}

    def test_one_agent_has_one_finding_and_no_report(self):
        instance = generate_classification(2, 1, 3, 20)
        cfg = RunConfig(variant="lt_admm_vr", gamma=0.01, rho=1.0, tau=5, outer_iterations=1)
        check = certified_run_check(instance, build_from_edges(1, []), cfg)
        assert (check.certified, check.binding_bound, check.bound_value, check.report) == (False, None, None, None)
        assert len(check.findings) == 1 and "one agent" in check.findings[0]


class TestConstants:
    def test_all_positive(self, rng):
        for _ in range(5):
            constants = evaluate_bounds(random_context(rng)).constants
            assert all(v > 0 for v in constants.values())

    def test_context_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ring_context(L=-1.0)
        # a NaN bound drops out of min(), so a NaN context would certify
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive"):
                ring_context(L=bad)
            with pytest.raises(ValueError, match="positive"):
                replace(ring_context(), v_inv_norm=bad)
        with pytest.raises(ValueError, match="m_l"):
            ring_context(m_l=200, m_u=100)
