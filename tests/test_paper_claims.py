"""The paper's qualitative claims, one check per claim and variant.

The ten acceptance criteria (``test_acceptance.py``) stay the contract; the
checks here add claims of the abstract that the criteria do not cover.  Each
seed and threshold was fixed before any other seed was run: a failure at
another seed is a finding about the claim, not a reason to re-seed.
"""

import numpy as np
import pytest

from ltadmm import algorithms
from ltadmm.algorithms import RunConfig, run
from ltadmm.graph import build_ring
from ltadmm.problems import generate_classification
from ltadmm.runner import stopping_time


def test_second_variance_reduced_variant_converges_exactly():
    """``lt_admm_vr_v2``, whose table carries over between epochs, reaches
    criterion 6's threshold in criterion 6's configuration: the presets'
    problem (seed 31, 10 agents, n = 5, 100 points each) on a ring of 10."""
    cfg = RunConfig(
        variant="lt_admm_vr_v2",
        gamma=0.8,
        rho=1.0,
        tau=5,
        batch_size=1,
        outer_iterations=1300,
        master_seed=5,
        monte_carlo_runs=20,
    )
    preset_problem = generate_classification(31, 10, 5, 100, epsilon=0.01)
    trace = run(preset_problem, build_ring(10), cfg)
    assert trace.num_diverged == 0
    assert np.max(trace.replicates.conservation_residual[1:]) <= 1e-8
    assert stopping_time(trace, 1e-9) is not None


def assert_converges_at_a_rate(variant):
    """``variant`` at criterion 6's step size (gamma = 0.8, tau = 5, unit
    batches, seed 5) on the presets' problem, 8 replicates: in each window
    of 200 rounds from k = 600 to 1400, ``grad_norm_sq_mean`` ends at most
    0.1 times where it started.  When the windows and the bound were fixed,
    clean runs had ratios of at most 1.9e-2 (v2), and a constant estimator
    bias of 1e-6 left a floor near 3e-12 (ratios near 1).  The last window
    ends at 5e-19 (``lt_admm_vr``) and 3e-16 (v2), above the rounding floor."""
    cfg = RunConfig(
        variant=variant,
        gamma=0.8,
        rho=1.0,
        tau=5,
        batch_size=1,
        outer_iterations=1400,
        master_seed=5,
        monte_carlo_runs=8,
    )
    preset_problem = generate_classification(31, 10, 5, 100, epsilon=0.01)
    trace = run(preset_problem, build_ring(10), cfg)
    assert trace.num_diverged == 0
    means = trace.columns["grad_norm_sq_mean"][trace.columns["k"] >= 600][::200]
    ratios = means[1:] / means[:-1]
    assert len(ratios) == 4 and np.all(ratios <= 0.1), f"ratios per window {ratios}"


@pytest.mark.parametrize("variant", ["lt_admm_vr", "lt_admm_vr_v2"])
def test_variance_reduction_converges_at_a_linear_rate(variant):
    """Exact convergence as a rate: no floor, which criterion 6's
    threshold of 1e-9 alone would pass (ROADMAP item 15)."""
    assert_converges_at_a_rate(variant)


def test_rate_check_fails_under_a_biased_estimator(monkeypatch):
    """The control: a constant bias of 1e-6 in every variance-reduced batch
    estimate still reaches criterion 6's threshold, but trips the rate check."""
    unbiased = algorithms.saga_estimate_update
    monkeypatch.setattr(algorithms, "saga_estimate_update", lambda *args: unbiased(*args) + 1e-6)
    with pytest.raises(AssertionError, match="ratios per window"):
        assert_converges_at_a_rate("lt_admm_vr")


def test_local_training_accelerates_convergence_per_round():
    """``lt_admm_vr`` at one step size needs strictly fewer communication
    rounds to reach 1e-9 as the local steps go from tau = 1 to 2 to 5, on
    the presets' problem (1330, 943 and 801 rounds when the check was set).
    Each run's budget is the rounds the run before it needed, so reaching
    the threshold at all is the strict decrease."""
    preset_problem = generate_classification(31, 10, 5, 100, epsilon=0.01)
    budget = 1500
    for tau in (1, 2, 5):
        cfg = RunConfig(
            variant="lt_admm_vr",
            gamma=0.3,
            rho=1.0,
            tau=tau,
            batch_size=1,
            outer_iterations=budget,
            master_seed=5,
            monte_carlo_runs=4,
        )
        trace = run(preset_problem, build_ring(10), cfg)
        assert trace.num_diverged == 0, tau
        reached = stopping_time(trace, 1e-9)
        assert reached is not None and reached["k"] < budget, (tau, budget)
        budget = reached["k"]


def test_stochastic_neighbourhood_shrinks_with_the_batch():
    """``lt_admm`` at criterion 7's step size 0.4 (tau = 5, 20 replicates,
    seed 5) plateaus strictly lower as the batch grows from 1 to 2, 4 and
    16: the mean squared gradient over k > 650 was 2.76e-4, 1.43e-4,
    6.29e-5 and 1.69e-5 when the check was set, close to 1/b.  Each
    plateau times b also stays within a factor of 2 of b = 1's (0.91 to
    1.04 when the band was set): the order alone passes a random one of
    four plateaus 1 time in 24, and a batch size that is ignored puts the
    ratios at 2.1, 4.3 and 14.8."""
    preset_problem = generate_classification(31, 10, 5, 100, epsilon=0.01)
    plateaus = []
    for b in (1, 2, 4, 16):
        cfg = RunConfig(
            variant="lt_admm",
            gamma=0.4,
            rho=1.0,
            tau=5,
            batch_size=b,
            outer_iterations=900,
            master_seed=5,
            monte_carlo_runs=20,
        )
        trace = run(preset_problem, build_ring(10), cfg)
        assert trace.num_diverged == 0, b
        plateaus.append(float(np.mean(trace.columns["grad_norm_sq_mean"][trace.columns["k"] > 650])))
    assert all(later < earlier for earlier, later in zip(plateaus, plateaus[1:])), plateaus
    scaled = [b * plateau / plateaus[0] for b, plateau in zip((1, 2, 4, 16), plateaus)]
    assert all(0.5 <= ratio <= 2.0 for ratio in scaled), scaled
