"""The paper's qualitative claims, one check per claim and variant.

The ten acceptance criteria (``test_acceptance.py``) stay the contract; the
checks here add claims of the abstract that the criteria do not cover.  Each
seed and threshold was fixed before any other seed was run: a failure at
another seed is a finding about the claim, not a reason to re-seed.
"""

import numpy as np

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
    6.29e-5 and 1.69e-5 when the check was set, close to 1/b."""
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
