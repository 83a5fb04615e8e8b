import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from ltadmm.algorithms import RunConfig, local_training_epoch
from ltadmm.graph import build_ring
from ltadmm.oracles import Streams, exact_estimate, saga_refresh
from ltadmm.problems import (
    LEAST_SQUARES,
    LOGISTIC_NONCONVEX,
    ProblemInstance,
    _component_rows,
    _logistic,
    _regularizer_gradient,
    component_gradients,
    generate_classification,
    global_gradient,
    global_gradient_norm_sq,
    local_full_gradient,
    local_gradients,
    smoothness_constant,
)

from conftest import agent_components, broadcast_columns, fresh_streams


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

    @pytest.mark.parametrize("label", [0.5, 0.0, float("nan")])
    def test_logistic_labels_must_be_plus_or_minus_one(self, label):
        labels = np.array([1.0, -1.0, label])
        features = np.ones((3, 2))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            ProblemInstance(kind=LOGISTIC_NONCONVEX, features=(features,), labels=(labels,))
        # least-squares labels are any finite target value
        if np.isfinite(label):
            inst = ProblemInstance(kind=LEAST_SQUARES, features=(features,), labels=(labels,))
            assert np.array_equal(inst.labels[0], labels)

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC_NONCONVEX])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_data_rejected(self, kind, value):
        features = [np.ones((3, 2)), np.ones((2, 2))]
        labels = [np.array([1.0, -1.0, 1.0]), np.array([-1.0, 1.0])]
        features[1][0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance(kind=kind, features=tuple(features), labels=tuple(labels))
        if kind == LEAST_SQUARES:
            features[1][0, 1] = 1.0
            labels[0][2] = value
            with pytest.raises(ValueError, match="finite"):
                ProblemInstance(kind=kind, features=tuple(features), labels=tuple(labels))


class TestGradients:
    def test_regularizer_gradient_zero_at_origin(self):
        inst = ProblemInstance(
            kind=LOGISTIC_NONCONVEX,
            features=(np.zeros((1, 3)),),
            labels=(np.ones(1),),
            epsilon=0.01,
        )
        # zero features kill the logistic part; regularizer gradient is odd
        g = agent_components(inst, 0, np.array([0]), np.zeros(3))[0]
        assert np.array_equal(g, np.zeros(3))

    def test_regularizer_gradient_value(self):
        inst = ProblemInstance(
            kind=LOGISTIC_NONCONVEX,
            features=(np.zeros((1, 2)),),
            labels=(np.ones(1),),
            epsilon=0.01,
        )
        g = agent_components(inst, 0, np.array([0]), np.array([1.0, 0.0]))[0]
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
            g = agent_components(inst, agent, np.array([index]), x)[0]
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
        assert np.allclose(local_full_gradient(inst, 0, x), agent_components(inst, 0, np.array([0]), x)[0], atol=1e-16)

    def test_full_gradient_is_component_mean(self, rng):
        inst = make_instance(m=100)
        x = rng.normal(size=inst.dimension)
        mean = sum(agent_components(inst, 0, np.array([h]), x)[0] for h in range(100)) / 100.0
        assert np.max(np.abs(local_full_gradient(inst, 0, x) - mean)) <= 1e-14

    def test_duplicated_component_mean_idempotent(self):
        inst = make_instance(m=3)
        x = np.full(inst.dimension, 0.3)
        rows = agent_components(inst, 1, np.array([2, 2]), x)
        assert np.allclose(rows.mean(axis=0), agent_components(inst, 1, np.array([2]), x)[0], atol=1e-16)


def uneven_instance(kind, sizes=(1, 4, 9, 2), dimension=3, seed=8):
    """Agents with different numbers of points, so most padded rows are empty."""
    rng = np.random.default_rng(seed)
    return ProblemInstance(
        kind=kind,
        features=tuple(rng.normal(size=(m, dimension)) for m in sizes),
        labels=tuple(rng.choice([-1.0, 1.0], size=m) for m in sizes),
        epsilon=0.01 if kind == LOGISTIC_NONCONVEX else 0.0,
    )


class TestStackedComponentKernel:
    """``component_gradients`` on an (R, N, n) stack with b indices per stream."""

    sizes = (3, 7, 5)

    def stacked_indices(self, rng, b):
        """b valid indices per stream of two replicates; the last repeats the first."""
        indices = np.moveaxis(rng.integers(0, self.sizes, size=(b, 2, len(self.sizes))), 0, -1)
        indices[..., -1] = indices[..., 0]
        return indices

    @pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
    @pytest.mark.parametrize("b", [1, 2, 4])
    def test_each_row_equals_its_component_alone(self, kind, b, rng):
        inst = uneven_instance(kind, sizes=self.sizes)
        x = rng.normal(scale=2.0, size=(2, inst.num_agents, inst.dimension))
        indices = self.stacked_indices(rng, b)
        rows = component_gradients(inst, x, indices.ravel())
        assert rows.shape == (2, inst.num_agents, b, inst.dimension)
        for r in range(2):
            for i in range(inst.num_agents):
                for j, h in enumerate(indices[r, i]):
                    # a b = 1 stack whose every stream names component h
                    alone = component_gradients(inst, x[r], np.full(inst.num_agents, h))[i, 0]
                    assert np.array_equal(rows[r, i, j], alone)
                    fd = finite_difference_gradient(lambda v: component_loss(inst, i, h, v), x[r, i])
                    assert np.max(np.abs(rows[r, i, j] - fd)) <= 1e-6
        assert np.array_equal(rows[..., 0, :], rows[..., -1, :])

    @pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
    def test_out_receives_the_rows(self, kind, rng):
        # the row kernel, which a refresh of every row hands its table as out
        inst = uneven_instance(kind, sizes=self.sizes)
        x = rng.normal(size=(2, inst.num_agents, inst.dimension))
        indices = self.stacked_indices(rng, 4).ravel()
        out = np.full((2, inst.num_agents, 4, inst.dimension), np.nan)
        assert _component_rows(inst, x, indices, out=out) is out
        assert out.tobytes() == component_gradients(inst, x, indices).tobytes()

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_rejects_an_index_outside_the_padded_range_for_agent_0(self, bad, rng):
        # without the check, index m_max for agent 0 is agent 1's component 0
        inst = uneven_instance(LEAST_SQUARES, sizes=self.sizes)
        x = rng.normal(size=(inst.num_agents, inst.dimension))
        with pytest.raises(ValueError, match="m_max"):
            component_gradients(inst, x, np.array([bad, 1, 2]))

    @pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
    def test_padding_index_yields_the_regularizer_gradient(self, kind, rng):
        # index 6 lies past the m_i of agents 0 and 2: a zero padding row
        inst = uneven_instance(kind, sizes=self.sizes)
        x = rng.normal(size=(inst.num_agents, inst.dimension))
        rows = component_gradients(inst, x, np.full(inst.num_agents, 6))[:, 0]
        expected = 2.0 * inst.epsilon * x / (1.0 + x * x) ** 2  # epsilon is 0 for least squares
        for i in (0, 2):
            assert np.allclose(rows[i], expected[i], rtol=1e-14, atol=0.0)


class TestInShape:
    """The per-agent columns the kernels read, kept once per shape."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_one_contiguous_read_only_array_per_shape(self, lead):
        inst = uneven_instance(LOGISTIC_NONCONVEX)
        N = inst.num_agents
        for name, column, k in [("offsets", inst.row_offsets, 2), ("sizes", inst.sizes[:, None] * 1.0, 5)]:
            shape = lead + (N, k)
            array = inst.in_shape(name, shape)
            assert array is inst.in_shape(name, shape)
            assert array.flags.c_contiguous and not array.flags.writeable
            assert array.dtype == column.dtype
            assert array.tobytes() == np.broadcast_to(column, shape).tobytes()
        assert inst.in_shape("offsets", lead + (N, 3)) is not inst.in_shape("offsets", lead + (N, 2))

    @pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
    def test_kernels_keep_the_bits_of_the_broadcast_columns(self, kind, rng, monkeypatch):
        inst = uneven_instance(kind)
        x = rng.normal(scale=2.0, size=(3, inst.num_agents, inst.dimension))
        indices = rng.integers(0, inst.max_points, size=3 * inst.num_agents * 4)
        every = np.tile(np.arange(inst.max_points), 3 * inst.num_agents)
        rows = component_gradients(inst, x, indices)
        means = component_gradients(inst, x, every, mean=True)
        # the columns (N, 1) that broadcast: row offsets, and the int sizes
        monkeypatch.setattr(ProblemInstance, "in_shape", broadcast_columns)
        assert rows.tobytes() == component_gradients(inst, x, indices).tobytes()
        assert means.tobytes() == component_gradients(inst, x, every, mean=True).tobytes()


class TestLocalGradients:
    """``local_gradients``, which ``component_gradients(..., mean=True)``
    returns: each stream's exact local gradient from two matrix products
    over its agent's padded rows alone."""

    @staticmethod
    def every(inst, streams):
        return np.tile(np.arange(inst.max_points), streams)

    @pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
    def test_a_streams_bits_do_not_depend_on_its_stack(self, kind, rng):
        # the (T, R, N, n) stack of the record_dk metric: T inner iterates of R replicates
        inst = uneven_instance(kind)
        N, n = inst.num_agents, inst.dimension
        x = rng.normal(scale=2.0, size=(2, 3, N, n))
        stacked = local_gradients(inst, x)
        assert stacked.shape == x.shape
        assert local_gradients(inst, x.reshape(6, N, n)).tobytes() == stacked.tobytes()
        for t in range(2):
            for size in (1, 2, 3):
                for part in (slice(0, size), slice(3 - size, 3)):
                    assert local_gradients(inst, x[t, part]).tobytes() == stacked[t, part].tobytes(), part
            for r in range(3):
                assert local_gradients(inst, x[t, r]).tobytes() == stacked[t, r].tobytes()
        # the refresh's mean is the same kernel
        means = component_gradients(inst, x[0], self.every(inst, 3 * N), mean=True)
        assert means.tobytes() == stacked[0].tobytes()

    @pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_equals_per_agent_loop(self, kind, lead, rng):
        # agents of 1, 4, 9 and 2 points: every agent but one has padding rows
        inst = uneven_instance(kind)
        features, _ = inst.padded
        padding = (np.arange(inst.max_points) >= inst.sizes[:, None]).ravel()
        assert padding.sum() == 4 * 9 - 16
        if kind == LOGISTIC_NONCONVEX:  # folded rows -y a are -0.0 past each m_i
            assert np.signbit(features[padding]).all()
        x = rng.normal(scale=3.0, size=lead + (inst.num_agents, inst.dimension))
        got = local_gradients(inst, x)
        expected = np.stack([local_full_gradient(inst, i, x[..., i, :]) for i in range(inst.num_agents)], axis=-2)
        assert got.shape == x.shape
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.max(np.abs(got - expected)) <= 1e-15 * scale
        # relative to each stream's largest entry: a near-zero entry cancels
        assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected).max(axis=-1, keepdims=True))

    def test_rejects_a_partial_index_set(self, rng):
        inst = uneven_instance(LOGISTIC_NONCONVEX)
        x = rng.normal(size=(2, inst.num_agents, inst.dimension))
        every = self.every(inst, 2 * inst.num_agents)
        with pytest.raises(ValueError, match="every index"):
            component_gradients(inst, x, every[:-1], mean=True)

    def test_non_finite_rejected(self):
        inst = uneven_instance(LEAST_SQUARES)
        x = np.zeros((inst.num_agents, inst.dimension))
        x[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            local_gradients(inst, x)
        with pytest.raises(ValueError, match="non-finite"):
            component_gradients(inst, x, self.every(inst, inst.num_agents), mean=True)

    @pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 5)])
    def test_global_gradient_is_agent_average(self, kind, lead, rng):
        inst = uneven_instance(kind)
        # garbage in the padding rows: they must carry zero weight
        features, labels = inst.padded
        padding = (np.arange(inst.max_points) >= inst.sizes[:, None]).ravel()
        features[padding], labels[padding] = 7.0, 1.0
        points = rng.normal(size=lead + (inst.dimension,))
        stacked = global_gradient(inst, points)
        assert stacked.shape == points.shape
        norms = global_gradient_norm_sq(inst, points)
        assert np.shape(norms) == lead
        for place in np.ndindex(lead):
            x = points[place]
            expected = sum(local_full_gradient(inst, i, x) for i in range(inst.num_agents)) / inst.num_agents
            one = global_gradient(inst, x)
            assert one.shape == x.shape
            tolerance = 1e-15 * max(1.0, float(np.abs(expected).max()))
            assert np.max(np.abs(one - expected)) <= tolerance
            assert np.max(np.abs(stacked[place] - expected)) <= tolerance
            norm = global_gradient_norm_sq(inst, x)
            assert isinstance(norm, float)
            assert np.asarray(norms)[place] == pytest.approx(norm, rel=1e-14)


def _label_form_logistic(t):
    """The logistic as one expression of fresh temporaries, as it read before rows were folded."""
    return np.exp(np.minimum(t, 0.0)) / (1.0 + np.exp(-np.abs(t)))


def _raw_padded(instance):
    """Raw features a and labels y zero-padded to m_max rows, agent-major."""
    N, m_max, n = instance.num_agents, instance.max_points, instance.dimension
    features, labels = np.zeros((N, m_max, n)), np.zeros((N, m_max))
    for i, (a, y) in enumerate(zip(instance.features, instance.labels)):
        features[i, : len(y)], labels[i, : len(y)] = a, y
    return features, labels


def _label_weights(margins, labels):
    """-y sigma(-y a . x): the logistic loss weight of a raw row."""
    return -labels * _label_form_logistic(-labels * margins)


class TestFoldedLabels:
    """The kernels on the folded rows q = -y a equal, bit for bit, the same
    kernels on the raw rows a weighted by -y sigma(-y a . x)."""

    @staticmethod
    def instances():
        return [
            uneven_instance(LOGISTIC_NONCONVEX),  # padding rows
            generate_classification(31, 10, 5, 100),  # the presets' problem
        ]

    @staticmethod
    def assert_same_bits(got, expected):
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("case", [0, 1])
    @pytest.mark.parametrize("with_out", [False, True])
    def test_component_gradients(self, case, with_out, rng):
        inst = self.instances()[case]
        N, m_max, n = inst.num_agents, inst.max_points, inst.dimension
        x = rng.normal(scale=3.0, size=(4, N, n))
        # every index below m_max per stream, as a table refresh draws them
        indices = np.tile(np.arange(m_max), 4 * N)
        # with out, the row kernel writes into it, as a refresh of every row does
        if with_out:
            out = np.full((4, N, m_max, n), np.nan)
            got = _component_rows(inst, x, indices, out=out)
        else:
            got = component_gradients(inst, x, indices)
        features, labels = _raw_padded(inst)
        feats = np.broadcast_to(features, (4, N, m_max, n)).copy()
        margins = np.einsum("...j,...j->...", feats, x[..., None, :])
        feats *= _label_weights(margins, np.broadcast_to(labels, (4, N, m_max)))[..., None]
        feats += (inst.epsilon * _regularizer_gradient(x))[..., None, :]
        self.assert_same_bits(got, feats)
        if with_out:
            assert got is out

    @pytest.mark.parametrize("case", [0, 1])
    def test_local_gradients(self, case, rng):
        inst = self.instances()[case]
        x = rng.normal(scale=3.0, size=(20, inst.num_agents, inst.dimension))
        features, labels = _raw_padded(inst)
        # each stream's own products over its agent's rows, as the kernel runs them
        weights = _label_weights((features @ x[..., None])[..., 0], labels)
        g = (weights[..., None, :] @ features)[..., 0, :]
        g /= inst.sizes[:, None]
        expected = g + inst.epsilon * _regularizer_gradient(x)
        self.assert_same_bits(local_gradients(inst, x), expected)

    @pytest.mark.parametrize("case", [0, 1])
    def test_global_gradient(self, case, rng):
        inst = self.instances()[case]
        x = rng.normal(scale=3.0, size=(20, inst.dimension))
        features, labels = _raw_padded(inst)
        features, labels = features.reshape(-1, inst.dimension), labels.ravel()
        weights = _label_weights(x @ features.T, labels)
        weights *= inst.row_weights
        expected = weights @ features + inst.epsilon * _regularizer_gradient(x)
        self.assert_same_bits(global_gradient(inst, x), expected)


class TestKernelAllocations:
    """At R = 20 on the presets' problem, each logistic kernel holds at most
    three arrays of its margins' size at once (the output included)."""

    R = 20
    LIMIT = 3.05

    @pytest.fixture
    def inst(self):
        inst = generate_classification(31, 10, 5, 100)
        inst.padded, inst.row_weights  # cached before measuring
        return inst

    def peak_in_margins(self, inst, call):
        """Transient allocation peak of ``call()``, in margin-sized arrays."""
        call()  # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (self.R * inst.num_agents * inst.max_points * 8)

    def test_global_gradient(self, inst, rng):
        x = rng.normal(size=(self.R, inst.dimension))
        assert self.peak_in_margins(inst, lambda: global_gradient(inst, x)) <= self.LIMIT

    def test_local_gradients(self, inst, rng):
        x = rng.normal(size=(self.R, inst.num_agents, inst.dimension))
        assert self.peak_in_margins(inst, lambda: local_gradients(inst, x)) <= self.LIMIT

    def test_second_saga_refresh(self, inst, rng):
        x = rng.normal(size=(self.R, inst.num_agents, inst.dimension))
        N = inst.num_agents
        rngs = [np.random.default_rng([r, i]) for r in range(self.R) for i in range(N)]
        streams = Streams(rngs, inst.sizes, np.zeros((self.R, N), dtype=np.int64), 1, True, pending=0)
        # the first refresh creates the table, the second writes over it
        assert self.peak_in_margins(inst, lambda: saga_refresh(streams, inst, x)) <= self.LIMIT

    def test_read_ahead_refresh_allocates_no_table_sized_temporary(self, inst, rng):
        # an lt_admm_vr epoch of tau = 5: four unit batches read the table.  The
        # mean's margins and the logistic's one temporary, then four rows of
        # n = 5 per stream (0.2 margins); an (R, N, m_max, n) temporary is 5 margins
        x = rng.normal(size=(self.R, inst.num_agents, inst.dimension))
        N = inst.num_agents
        streams = Streams([], inst.sizes, np.zeros((self.R, N), dtype=np.int64), 1, True, pending=0)
        reads = rng.integers(0, inst.max_points, size=(self.R, N, 4))
        saga_refresh(streams, inst, x, reads)  # creates the table
        assert self.peak_in_margins(inst, lambda: saga_refresh(streams, inst, x, reads)) <= 2.3

    @pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
    def test_exact_step_keeps_no_table(self, kind, rng):
        # the margins and the logistic's one temporary; no (R, N, m_max, n) rows
        inst = generate_classification(31, 10, 5, 100, kind=kind)
        inst.padded  # cached before measuring
        topo = build_ring(inst.num_agents)
        config = RunConfig("exact", gamma=0.05, rho=1.0, tau=2, outer_iterations=1, monte_carlo_runs=self.R)
        streams = fresh_streams(inst, topo, config, range(self.R))
        x = rng.normal(size=(self.R, inst.num_agents, inst.dimension))
        local_training_epoch(streams, inst, config, 0, x, np.zeros_like(x), topo.degree_vector)
        assert streams.table is None and streams.table_sum is None
        assert self.peak_in_margins(inst, lambda: exact_estimate(streams, inst, x)) <= 2.05

    def test_logistic_writes_only_its_out(self, rng):
        t = rng.normal(scale=30.0, size=1000)
        before = t.copy()
        expected = _label_form_logistic(t)
        assert np.array_equal(_logistic(t), expected)
        assert np.array_equal(t, before)
        assert _logistic(t, out=t) is t
        assert np.array_equal(t, expected)


def _weighted_after_regularizer(x, weight):
    """The weight applied after the unweighted regularizer gradient, in its own pass."""
    out = x * x
    out += 1.0
    out *= out
    np.divide(x, out, out=out)
    out *= 2.0
    return weight * out


class TestFoldedRegularizerWeight:
    """The regularizer gradient with its weight folded into the last scaling
    keeps the bits of weighting it in a pass of its own, on the edges of the
    double range and on a million normal draws."""

    @pytest.fixture(scope="class")
    def points(self):
        tiny = np.finfo(float).tiny
        edges = [0.0, np.inf, np.nan, tiny, tiny / 2, 5e-324, 1.0, 1e-160, 1e160, 1e308]
        rng = np.random.default_rng(28)
        draws = rng.normal(size=10**6) * 10.0 ** rng.integers(-3, 4, size=10**6)
        return np.concatenate([edges, -np.array(edges), draws])

    @pytest.mark.parametrize("weight", [0.0, 0.01, 1e-300, 3.7])
    def test_regularizer_weight(self, points, weight):
        with np.errstate(all="ignore"):
            got = _regularizer_gradient(points, weight)
            assert got.tobytes() == _weighted_after_regularizer(points, weight).tobytes()
        if weight == 1e-300:  # products that round to subnormals are among them
            assert ((got != 0.0) & (np.abs(got) < np.finfo(float).tiny)).any()


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

    def test_bit_identical_to_the_select_form(self, rng):
        tiny = np.finfo(float).tiny
        edges = [0.0, 745.0, 1e308, np.inf, tiny, tiny / 2, 5e-324, 1.0, 36.0, 710.0]
        t = np.concatenate(
            [np.array(edges), -np.array(edges)]
            + [rng.normal(scale=s, size=2000) for s in (1.0, 30.0, 300.0)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logistic(t)
            e = np.exp(-np.abs(t))
            reference = np.where(t >= 0, 1.0, e) / (1.0 + e)
        assert np.array_equal(got.view(np.int64), reference.view(np.int64))

    def test_gradients_at_divergence_scale_raise_no_warning(self):
        inst = make_instance()
        x = np.full(inst.dimension, 1e12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sign in (1.0, -1.0):
                rows = agent_components(inst, 0, np.arange(inst.num_points(0)), sign * x)
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
        assert smoothness_constant(inst) == pytest.approx(0.25, abs=1e-15)

    def test_regularizer_only_bound(self):
        inst = ProblemInstance(
            kind=LOGISTIC_NONCONVEX,
            features=(np.zeros((2, 3)),),
            labels=(np.array([1.0, -1.0]),),
            epsilon=0.01,
        )
        assert smoothness_constant(inst) == pytest.approx(0.02, abs=1e-15)

    def test_empirical_ratio_never_exceeds_bound(self, rng):
        inst = make_instance()
        L = smoothness_constant(inst)
        worst = 0.0
        for _ in range(1000):
            agent = int(rng.integers(0, inst.num_agents))
            x = rng.normal(size=inst.dimension, scale=2.0)
            y = rng.normal(size=inst.dimension, scale=2.0)
            gap = np.linalg.norm(local_full_gradient(inst, agent, x) - local_full_gradient(inst, agent, y))
            worst = max(worst, gap / np.linalg.norm(x - y))
        assert worst <= L

    def test_least_squares_largest_eigenvalue(self):
        inst = make_instance(kind=LEAST_SQUARES, epsilon=0.0, n_agents=3, m=40)
        # the spectral norm of a symmetric positive semidefinite matrix is its
        # largest eigenvalue; numpy computes it from the SVD
        expected = max(float(np.linalg.norm(a.T @ a / a.shape[0], 2)) for a in inst.features)
        assert smoothness_constant(inst) == pytest.approx(expected, rel=1e-12)


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

