import numpy as np
import pytest

from ltadmm.algorithms import RunConfig, run
from ltadmm.graph import build_ring
from ltadmm.metrics import (
    Replicates,
    Trace,
    aggregate_replicates,
    compute_dk,
    consensus_error,
    iteration_charge,
    iteration_evals,
    reference_charges,
    with_model_time,
)
from ltadmm.problems import generate_classification, global_gradient, global_gradient_norm_sq


class TestComputeDk:
    def test_all_zero(self):
        inst = generate_classification(1, 3, 2, 4)
        # zero point of the regularizer-free part is not stationary, so use a
        # synthetic instance with zero data instead
        from ltadmm.problems import LEAST_SQUARES, ProblemInstance

        zero = ProblemInstance(
            kind=LEAST_SQUARES,
            features=(np.zeros((2, 2)),) * 3,
            labels=(np.zeros(2),) * 3,
        )
        value = compute_dk(global_gradient_norm_sq(zero, np.zeros(2)), [np.zeros(2), np.zeros(2)], tau=2)
        assert value == 0.0

    def test_tau_one_at_mean_doubles(self):
        inst = generate_classification(1, 3, 2, 4)
        x_bar = np.array([0.3, -0.7])
        g = global_gradient(inst, x_bar)
        value = compute_dk(global_gradient_norm_sq(inst, x_bar), [g], tau=1)
        assert value == pytest.approx(2.0 * float(g @ g), rel=1e-14)

    def test_matches_independent_formula(self, rng):
        inst = generate_classification(2, 4, 3, 5)
        x_bar = rng.normal(size=3)
        inner = [rng.normal(size=3) for _ in range(4)]
        value = compute_dk(global_gradient_norm_sq(inst, x_bar), inner, tau=4)
        # independent re-implementation
        g = global_gradient(inst, x_bar)
        expected = float(g @ g) + sum(float(v @ v) for v in inner) / 4.0
        assert value == pytest.approx(expected, rel=1e-13)

    def test_length_mismatch_rejected(self):
        inst = generate_classification(1, 2, 2, 3)
        with pytest.raises(ValueError, match="inner average gradients"):
            compute_dk(global_gradient_norm_sq(inst, np.zeros(2)), [np.zeros(2)], tau=3)

    def test_dominates_gradient_term(self, rng):
        inst = generate_classification(2, 4, 3, 5)
        x_bar = rng.normal(size=3)
        inner = [rng.normal(size=3) for _ in range(3)]
        g = global_gradient(inst, x_bar)
        assert compute_dk(global_gradient_norm_sq(inst, x_bar), inner, tau=3) >= float(g @ g)


    def test_stacked_replicates_equal_scalar_form(self, rng):
        inst = generate_classification(2, 4, 3, 5)
        tau, L = 3, 4
        x_bar = rng.normal(size=(L, 3))
        inner = rng.normal(size=(tau, L, 3))
        stacked = compute_dk(global_gradient_norm_sq(inst, x_bar), inner, tau=tau)
        assert stacked.shape == (L,)
        for r in range(L):
            one = compute_dk(global_gradient_norm_sq(inst, x_bar[r]), list(inner[:, r]), tau=tau)
            assert stacked[r] == pytest.approx(one, rel=1e-15)

    def test_stacked_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner average gradients"):
            compute_dk(np.zeros(2), np.zeros((2, 2, 3)), tau=3)


def cost_config(variant="lt_admm", **costs) -> RunConfig:
    """A run configuration at tau = 5 and unit batches with the given cost constants."""
    return RunConfig(variant=variant, gamma=0.1, rho=1.0, tau=5, outer_iterations=1, batch_size=1, **costs)


class TestCostModel:
    def test_sgd_variant_charge(self):
        config = cost_config("lt_admm", t_g=1.0, t_c=10.0)
        assert iteration_charge(config, m_i_max=100, k=0) == 15.0

    def test_vr_variant_charge(self):
        config = cost_config("lt_admm_vr", t_g=1.0, t_c=10.0)
        assert iteration_charge(config, m_i_max=100, k=3) == 114.0

    def test_zero_costs(self):
        config = cost_config("lt_admm_vr", t_g=0.0, t_c=0.0)
        time = 0.0
        for k in range(5):
            time += iteration_charge(config, 100, k)
        assert time == 0.0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            iteration_evals("mystery", 5, 100, 1, 0)

    def test_negative_costs_rejected(self):
        for field in ("t_g", "t_c"):
            with pytest.raises(ValueError):
                cost_config(**{field: -1.0})

    @pytest.mark.parametrize("field", ["t_g", "t_c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_costs_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            cost_config(**{field: value})

    def test_v2_first_iteration_pays_table_init(self):
        config = cost_config("lt_admm_vr_v2", t_g=1.0, t_c=0.0)
        first = iteration_charge(config, m_i_max=100, k=0)
        later = iteration_charge(config, m_i_max=100, k=1)
        assert first == 104.0
        assert later == 5.0

    def test_reference_charges_match_published_forms(self):
        config = cost_config(t_g=1.0, t_c=10.0)
        ref = reference_charges(config, m_i_max=100)
        assert ref["led_kgt"] == 5 * 1.0 + 2 * 10.0
        assert ref["gt_sarah"] == 104 * 1.0 + 2 * 5 * 10.0
        assert ref["gt_saga"] == 5 * (1.0 + 2 * 10.0)
        assert ref["lt_admm"] == 15.0
        assert ref["lt_admm_vr"] == 114.0


# evaluations of outer iterations k = 0 and k = 1 at m = 100, by (variant,
# tau, batch size), worked out by hand from the variants' schedules
ITERATION_EVALS = {
    ("exact", 1, 1): (100, 100),
    ("exact", 1, 3): (100, 100),
    ("exact", 5, 1): (500, 500),
    ("exact", 5, 3): (500, 500),
    ("lt_admm", 1, 1): (1, 1),
    ("lt_admm", 1, 3): (3, 3),
    ("lt_admm", 5, 1): (5, 5),
    ("lt_admm", 5, 3): (15, 15),
    ("lt_admm_vr", 1, 1): (100, 100),
    ("lt_admm_vr", 1, 3): (100, 100),
    ("lt_admm_vr", 5, 1): (104, 104),
    ("lt_admm_vr", 5, 3): (112, 112),
    ("lt_admm_vr_v2", 1, 1): (100, 1),
    ("lt_admm_vr_v2", 1, 3): (100, 3),
    ("lt_admm_vr_v2", 5, 1): (104, 5),
    ("lt_admm_vr_v2", 5, 3): (112, 15),
}


@pytest.mark.parametrize("variant,tau,batch_size", sorted(ITERATION_EVALS))
def test_iteration_evals_by_hand(variant, tau, batch_size):
    # the engine and the cost model read one schedule, so the counters agree
    # with it whatever it says; these literal numbers pin what it says
    evals = tuple(iteration_evals(variant, tau, 100, batch_size, k) for k in (0, 1))
    assert evals == ITERATION_EVALS[variant, tau, batch_size]


class TestCounterFormulaAgreement:
    @pytest.mark.parametrize("variant", ["lt_admm", "lt_admm_vr", "lt_admm_vr_v2", "exact"])
    def test_counters_match_charges(self, variant):
        inst = generate_classification(3, 4, 3, 11)
        topo = build_ring(4)
        cfg = RunConfig(
            variant=variant, gamma=0.02, rho=1.0, tau=4, outer_iterations=6,
            batch_size=2, master_seed=1, t_g=3.0, t_c=7.0,
        )
        timed = run(inst, topo, cfg)
        replicates = timed.replicates
        expected_evals = 0
        expected_time = 0.0
        for k in range(cfg.outer_iterations):
            expected_evals += iteration_evals(variant, cfg.tau, 11, cfg.batch_size, k)
            expected_time += iteration_charge(cfg, 11, k)
            assert replicates.component_evals[k + 1] == expected_evals
            assert timed.columns["model_time"][k + 1] == expected_time
            assert replicates.comms[k + 1] == (k + 1) * topo.num_directed_edges


class TestHeterogeneousDatasets:
    def test_slowest_agent_paces_the_round(self):
        # agents with different dataset sizes: the refresh of the largest one
        # sets the round's evaluation count
        from ltadmm.problems import LOGISTIC_NONCONVEX, ProblemInstance

        rng = np.random.default_rng(4)
        sizes = (5, 17, 9)
        inst = ProblemInstance(
            kind=LOGISTIC_NONCONVEX,
            features=tuple(rng.normal(size=(m, 2)) for m in sizes),
            labels=tuple(np.where(rng.random(m) < 0.5, -1.0, 1.0) for m in sizes),
            epsilon=0.01,
        )
        topo = build_ring(3)
        cfg = RunConfig(
            variant="lt_admm_vr", gamma=0.01, rho=1.0, tau=3, outer_iterations=4,
            batch_size=2, master_seed=0, t_g=1.0, t_c=0.0,
        )
        timed = run(inst, topo, cfg)
        replicates = timed.replicates
        per_round = max(sizes) + (cfg.tau - 1) * cfg.batch_size
        for k in range(1, cfg.outer_iterations + 1):
            assert replicates.component_evals[k] == k * per_round
            assert timed.columns["model_time"][k] == k * per_round * cfg.t_g


def stacked_replicates(grad_norm_sq, consensus_err, diverged_at):
    """Hand-built stacked replicates, (K+1, R) columns, whose counters and residuals are zero."""
    grad_norm_sq = np.asarray(grad_norm_sq, dtype=float)
    zeros = np.zeros(len(grad_norm_sq), dtype=int)
    return Replicates(
        grad_norm_sq=grad_norm_sq,
        consensus_err=np.asarray(consensus_err, dtype=float),
        conservation_residual=np.zeros(grad_norm_sq.shape),
        d_k=np.full(grad_norm_sq.shape, np.nan),
        component_evals=zeros,
        comms=zeros,
        diverged_at=list(diverged_at),
    )


class TestAggregation:
    def test_mean_and_std(self):
        inst = generate_classification(3, 4, 3, 11)
        topo = build_ring(4)
        cfg = RunConfig(
            variant="lt_admm", gamma=0.02, rho=1.0, tau=2, outer_iterations=5,
            master_seed=1, monte_carlo_runs=4,
        )
        trace = run(inst, topo, cfg)
        assert len(trace.columns["k"]) == 6
        reps = trace.replicates
        for k in range(6):
            values = reps.grad_norm_sq[k]
            assert trace.columns["grad_norm_sq_mean"][k] == pytest.approx(float(np.mean(values)), rel=1e-15)
            assert trace.columns["grad_norm_sq_std"][k] == pytest.approx(float(np.std(values)), rel=1e-12, abs=1e-300)

    def test_rows_reduce_like_a_per_replicate_mean(self, rng):
        # byte-identical CSVs need each row reduced in the order of a 1-D
        # mean over the replicates, also past numpy's 8-way unrolled sums
        columns = [(rng.lognormal(size=7), rng.random(7)) for _ in range(13)]
        reps = stacked_replicates(
            np.stack([g for g, _ in columns], axis=1), np.stack([c for _, c in columns], axis=1), [None] * 13
        )
        trace = aggregate_replicates(reps, record_dk=False)
        for k in range(7):
            grads = np.array([g[k] for g, _ in columns])
            cons = np.array([c[k] for _, c in columns])
            assert trace.columns["grad_norm_sq_mean"][k] == grads.mean()
            assert trace.columns["grad_norm_sq_std"][k] == grads.std()
            assert trace.columns["consensus_err_mean"][k] == cons.mean()

    def test_diverged_replicates_excluded(self):
        # replicate 1 diverged in iteration 0: its state-0 values are not averaged
        reps = stacked_replicates([[1.0, 7.0]], [[0.5, 9.0]], diverged_at=[None, 0])
        trace = aggregate_replicates(reps, record_dk=False)
        assert trace.num_diverged == 1
        assert len(trace.columns["k"]) == 1
        assert trace.columns["grad_norm_sq_mean"][0] == 1.0

    def test_all_diverged_empty_aggregate(self):
        bad = stacked_replicates([[1.0], [2.0], [3.0]], [[0.5], [0.4], [0.3]], diverged_at=[2])
        trace = aggregate_replicates(bad, record_dk=False)
        assert all(len(column) == 0 for column in trace.columns.values())
        assert trace.num_diverged == 1


class TestModelTime:
    def config(self, variant="lt_admm_vr_v2", t_g=1.0 / 3.0, t_c=7.7):
        return RunConfig(
            variant=variant, gamma=0.1, rho=1.0, tau=3, outer_iterations=1300,
            batch_size=2, t_g=t_g, t_c=t_c,
        )

    @pytest.mark.parametrize("variant", ["exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2"])
    def test_column_is_the_sequential_sum_of_charges(self, variant):
        # the bits of adding each iteration's charge in turn, which the
        # solver did before the column moved out of it
        cfg = self.config(variant)
        untimed = Trace(columns={"k": np.arange(1301)}, replicates=[], num_diverged=0)
        column = with_model_time(untimed, cfg, 11).columns["model_time"]
        expected = [0.0]
        for k in range(1300):
            expected.append(expected[-1] + iteration_charge(cfg, 11, k))
        assert column.tolist() == expected

    def test_column_follows_k_and_replaces_an_earlier_one(self):
        columns = {"k": np.arange(3), "grad_norm_sq_mean": np.ones(3)}
        untimed = Trace(columns=columns, replicates=[], num_diverged=0)
        slow = with_model_time(untimed, self.config(t_g=10.0, t_c=1.0), 11)
        fast = with_model_time(slow, self.config(t_g=0.1, t_c=1.0), 11)
        assert list(fast.columns) == ["k", "model_time", "grad_norm_sq_mean"]
        # iteration 0 of lt_admm_vr_v2: an 11-row refresh and two batches of 2
        assert fast.columns["model_time"][1] == 15 * 0.1 + 1.0
        assert slow.columns["model_time"][1] == 15 * 10.0 + 1.0
        assert untimed.columns is columns and list(columns) == ["k", "grad_norm_sq_mean"]

    def test_no_rows_no_model_time(self):
        untimed = Trace(columns={"k": np.arange(0)}, replicates=[], num_diverged=1)
        timed = with_model_time(untimed, self.config(), 11)
        assert len(timed.columns["model_time"]) == 0
        assert timed.num_diverged == 1


class TestConsensusError:
    def test_identical_rows_zero(self):
        x = np.tile(np.array([1.0, -2.0]), (4, 1))
        assert consensus_error(x) == 0.0

    def test_known_spread(self):
        x = np.array([[1.0], [-1.0]])
        assert consensus_error(x) == pytest.approx(1.0)

    def test_bits_of_the_norm_form(self, rng):
        """The same bits as the mean, ``np.linalg.norm`` and max it replaced."""
        x = rng.normal(size=(5, 7, 3)) * 10.0 ** rng.integers(-6, 7, size=(5, 7, 1))
        x[3, 2, 1] = np.nan
        reference = np.max(np.linalg.norm(x - x.mean(axis=-2, keepdims=True), axis=-1), axis=-1)
        assert consensus_error(x).tobytes() == reference.tobytes()
        for one in x[:3]:
            alone = np.max(np.linalg.norm(one - one.mean(axis=0), axis=-1))
            assert consensus_error(one).tobytes() == alone.tobytes()
