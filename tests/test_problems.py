import warnings

import numpy as np
import pytest
from scipy.special import expit

from ltadmm.problems import (
    LEAST_SQUARES,
    LOGISTIC_NONCONVEX,
    ProblemInstance,
    _logistic,
    component_gradients,
    generate_classification,
    global_gradient_norm_sq,
    local_full_gradient,
    smoothness_constant,
)


def make_instance(seed=1, n_agents=3, dimension=4, m=7, kind=LOGISTIC_NONCONVEX, epsilon=0.01):
    return generate_classification(seed, n_agents, dimension, m, kind=kind, epsilon=epsilon)


def _regularizer_value(x: np.ndarray) -> float:
    sq = x * x
    return float(np.sum(sq / (1.0 + sq)))


def component_loss(instance: ProblemInstance, agent: int, index: int, x: np.ndarray) -> float:
    """Loss of data point ``index`` of ``agent`` at ``x``: the reference the
    component gradients are differentiated against."""
    a = instance.features[agent][index]
    b = instance.labels[agent][index]
    if instance.kind == LOGISTIC_NONCONVEX:
        margin = b * float(a @ x)
        return float(np.logaddexp(0.0, -margin)) + instance.epsilon * _regularizer_value(x)
    residual = float(a @ x) - b
    return 0.5 * residual * residual


def local_objective(instance: ProblemInstance, agent: int, x: np.ndarray) -> float:
    """Local cost of ``agent``: average of its component losses."""
    feats = instance.features[agent]
    labs = instance.labels[agent]
    margins = feats @ x
    if instance.kind == LOGISTIC_NONCONVEX:
        value = float(np.mean(np.logaddexp(0.0, -labs * margins)))
        return value + instance.epsilon * _regularizer_value(x)
    return 0.5 * float(np.mean((margins - labs) ** 2))


def finite_difference_gradient(f, x, step=1e-6):
    g = np.zeros_like(x)
    for ell in range(len(x)):
        e = np.zeros_like(x)
        e[ell] = step
        g[ell] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


class TestGeneration:
    def test_shapes(self):
        inst = generate_classification(1, 10, 5, 100)
        assert inst.num_agents == 10
        assert inst.dimension == 5
        assert all(inst.num_points(i) == 100 for i in range(10))

    def test_determinism(self):
        a = generate_classification(1, 4, 3, 20)
        b = generate_classification(1, 4, 3, 20)
        for fa, fb in zip(a.features, b.features):
            assert np.array_equal(fa, fb)
        for la, lb in zip(a.labels, b.labels):
            assert np.array_equal(la, lb)

    def test_seeds_differ(self):
        a = generate_classification(1, 2, 3, 10)
        b = generate_classification(2, 2, 3, 10)
        assert not np.array_equal(a.features[0], b.features[0])

    def test_balanced_labels(self):
        inst = generate_classification(5, 3, 4, 11)
        for lab in inst.labels:
            assert set(np.unique(lab)) == {-1.0, 1.0}
            assert abs(int(np.sum(lab == 1.0)) - int(np.sum(lab == -1.0))) <= 1

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_classification(1, 0, 3, 5)
        with pytest.raises(ValueError):
            generate_classification(1, 2, 3, 0)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed"):
            generate_classification(-1, 2, 3, 5)

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
    def test_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            make_instance(epsilon=epsilon)


class TestGradients:
    def test_regularizer_gradient_zero_at_origin(self):
        inst = ProblemInstance(
            kind=LOGISTIC_NONCONVEX,
            features=(np.zeros((1, 3)),),
            labels=(np.ones(1),),
            epsilon=0.01,
        )
        # zero features kill the logistic part; regularizer gradient is odd
        g = component_gradients(inst, 0, np.array([0]), np.zeros(3))[0]
        assert np.array_equal(g, np.zeros(3))

    def test_regularizer_gradient_value(self):
        inst = ProblemInstance(
            kind=LOGISTIC_NONCONVEX,
            features=(np.zeros((1, 2)),),
            labels=(np.ones(1),),
            epsilon=0.01,
        )
        g = component_gradients(inst, 0, np.array([0]), np.array([1.0, 0.0]))[0]
        # analytic slope of eps * u^2/(1+u^2) at u=1 is 2*eps/4
        assert g[0] == pytest.approx(0.005, abs=1e-15)
        assert g[1] == 0.0

    @pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
    def test_matches_finite_differences(self, kind, rng):
        inst = make_instance(kind=kind)
        for _ in range(25):
            agent = int(rng.integers(0, inst.num_agents))
            index = int(rng.integers(0, inst.num_points(agent)))
            x = rng.normal(size=inst.dimension)
            g = component_gradients(inst, agent, np.array([index]), x)[0]
            fd = finite_difference_gradient(lambda v: component_loss(inst, agent, index, v), x)
            assert np.max(np.abs(g - fd)) <= 1e-6

    def test_objective_gradient_consistency(self, rng):
        inst = make_instance()
        for _ in range(100):
            agent = int(rng.integers(0, inst.num_agents))
            x = rng.normal(size=inst.dimension, scale=2.0)
            g = local_full_gradient(inst, agent, x)
            fd = finite_difference_gradient(lambda v: local_objective(inst, agent, v), x)
            scale = max(1.0, float(np.linalg.norm(g)))
            assert np.max(np.abs(g - fd)) <= 1e-5 * scale

    def test_non_finite_rejected(self):
        inst = make_instance()
        with pytest.raises(ValueError, match="non-finite"):
            local_full_gradient(inst, 0, np.array([np.inf, 0, 0, 0]))

    def test_full_gradient_single_point(self):
        inst = make_instance(m=1)
        x = np.linspace(-1, 1, inst.dimension)
        assert np.allclose(local_full_gradient(inst, 0, x), component_gradients(inst, 0, np.array([0]), x)[0], atol=1e-16)

    def test_full_gradient_is_component_mean(self, rng):
        inst = make_instance(m=100)
        x = rng.normal(size=inst.dimension)
        mean = sum(component_gradients(inst, 0, np.array([h]), x)[0] for h in range(100)) / 100.0
        assert np.max(np.abs(local_full_gradient(inst, 0, x) - mean)) <= 1e-14

    def test_duplicated_component_mean_idempotent(self):
        inst = make_instance(m=3)
        x = np.full(inst.dimension, 0.3)
        rows = component_gradients(inst, 1, np.array([2, 2]), x)
        assert np.allclose(rows.mean(axis=0), component_gradients(inst, 1, np.array([2]), x)[0], atol=1e-16)


class TestLogistic:
    def test_matches_scipy_expit_in_both_tails(self, rng):
        t = np.concatenate(
            [rng.normal(scale=s, size=2000) for s in (1.0, 30.0, 300.0)]
            + [np.array([0.0, 700.0, -700.0, 1e3, -1e3, 1e12, -1e12])]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logistic(t)
        reference = expit(t)
        # below the smallest normal number expit flushes to zero
        tolerance = 4 * np.finfo(float).eps * reference + np.finfo(float).tiny
        assert np.all(np.abs(got - reference) <= tolerance)
        assert got[-4:].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_gradients_at_divergence_scale_raise_no_warning(self):
        inst = make_instance()
        x = np.full(inst.dimension, 1e12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sign in (1.0, -1.0):
                rows = component_gradients(inst, 0, np.arange(inst.num_points(0)), sign * x)
                g = local_full_gradient(inst, 0, sign * x)
        assert np.all(np.isfinite(rows)) and np.all(np.isfinite(g))


class TestGlobalObjective:
    def test_stationary_point_least_squares(self):
        inst = make_instance(kind=LEAST_SQUARES, epsilon=0.0, n_agents=4, m=30)
        # pooled normal equations give the exact optimum of the average cost
        lhs = np.zeros((inst.dimension, inst.dimension))
        rhs = np.zeros(inst.dimension)
        for i in range(inst.num_agents):
            a, b = inst.features[i], inst.labels[i]
            lhs += a.T @ a / a.shape[0]
            rhs += a.T @ b / a.shape[0]
        x_star = np.linalg.solve(lhs, rhs)
        assert global_gradient_norm_sq(inst, x_star) <= 1e-20

    def test_identical_agents(self):
        base = make_instance(n_agents=1)
        inst = ProblemInstance(
            kind=base.kind,
            features=base.features * 3,
            labels=base.labels * 3,
            epsilon=base.epsilon,
        )
        x = np.linspace(0, 1, inst.dimension)
        g1 = local_full_gradient(inst, 0, x)
        assert global_gradient_norm_sq(inst, x) == pytest.approx(float(g1 @ g1), rel=1e-12)

    def test_matches_stacked_evaluation(self, rng):
        inst = make_instance(n_agents=5, m=17)
        x = rng.normal(size=inst.dimension)
        stacked_feats = np.vstack(inst.features)
        stacked_labs = np.concatenate(inst.labels)
        margins = stacked_feats @ x
        rows = (-stacked_labs * expit(-stacked_labs * margins))[:, None] * stacked_feats
        denom = 1.0 + x * x
        reg = 2.0 * x / (denom * denom)
        per_point = rows + inst.epsilon * reg[None, :]
        # equal m_i: the double average collapses to a flat mean over all points
        g = per_point.mean(axis=0)
        assert abs(global_gradient_norm_sq(inst, x) - float(g @ g)) <= 1e-13


class TestSmoothness:
    def test_unit_feature_bound(self):
        inst = ProblemInstance(
            kind=LOGISTIC_NONCONVEX,
            features=(np.array([[1.0, 0.0]]),),
            labels=(np.ones(1),),
            epsilon=0.0,
        )
        est = smoothness_constant(inst)
        assert est.L == pytest.approx(0.25, abs=1e-15)
        assert est.method == "analytic_bound"

    def test_regularizer_only_bound(self):
        inst = ProblemInstance(
            kind=LOGISTIC_NONCONVEX,
            features=(np.zeros((2, 3)),),
            labels=(np.array([1.0, -1.0]),),
            epsilon=0.01,
        )
        assert smoothness_constant(inst).L == pytest.approx(0.02, abs=1e-15)

    def test_empirical_ratio_never_exceeds_bound(self, rng):
        inst = make_instance()
        L = smoothness_constant(inst).L
        worst = 0.0
        for _ in range(1000):
            agent = int(rng.integers(0, inst.num_agents))
            x = rng.normal(size=inst.dimension, scale=2.0)
            y = rng.normal(size=inst.dimension, scale=2.0)
            gap = np.linalg.norm(local_full_gradient(inst, agent, x) - local_full_gradient(inst, agent, y))
            worst = max(worst, gap / np.linalg.norm(x - y))
        assert worst <= L

    def test_least_squares_power_iteration(self):
        inst = make_instance(kind=LEAST_SQUARES, epsilon=0.0, n_agents=3, m=40)
        est = smoothness_constant(inst)
        assert est.method == "power_iteration"
        expected = max(
            float(np.linalg.eigvalsh(a.T @ a / a.shape[0])[-1]) for a in inst.features
        )
        assert est.L == pytest.approx(expected, rel=1e-7)


class TestShapeProperties:
    def test_logistic_loss_nonnegative(self, rng):
        inst = make_instance()
        for _ in range(50):
            agent = int(rng.integers(0, inst.num_agents))
            x = rng.normal(size=inst.dimension, scale=5.0)
            assert local_objective(inst, agent, x) >= 0.0

    def test_least_squares_midpoint_convexity(self, rng):
        inst = make_instance(kind=LEAST_SQUARES, epsilon=0.0)
        for _ in range(100):
            agent = int(rng.integers(0, inst.num_agents))
            x = rng.normal(size=inst.dimension, scale=3.0)
            y = rng.normal(size=inst.dimension, scale=3.0)
            mid = local_objective(inst, agent, 0.5 * (x + y))
            ends = 0.5 * (local_objective(inst, agent, x) + local_objective(inst, agent, y))
            assert mid <= ends + 1e-12

