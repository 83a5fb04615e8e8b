import copy
import tracemalloc

import numpy as np
import pytest

from ltadmm import oracles
from ltadmm.oracles import (
    Streams,
    draw_batch,
    saga_estimate_update,
    saga_refresh,
    sgd_estimate,
)
from ltadmm.problems import (
    LEAST_SQUARES,
    LOGISTIC_NONCONVEX,
    ProblemInstance,
    component_gradients,
    generate_classification,
    local_full_gradient,
    local_gradients,
)

from conftest import agent_components


def make_streams(instance, replicates=1):
    rngs = [
        [np.random.default_rng([r, i]) for i in range(instance.num_agents)]
        for r in range(replicates)
    ]
    return Streams.start(instance, rngs, pending=0)


def at(instance, x):
    """The point ``x`` for every agent of one replicate, shape (1, N, n)."""
    return np.tile(np.asarray(x, dtype=float), (1, instance.num_agents, 1))


def batch_of(instance, indices):
    """The index batch ``indices`` for every agent of one replicate, shape (1, N, b)."""
    return np.tile(np.asarray(indices), (1, instance.num_agents, 1))


def saga_estimate(streams, instance, x, batch):
    """The solvers' variance-reduced estimate at ``x``, leaving ``streams`` as they are."""
    return saga_estimate_update(copy.deepcopy(streams), instance, x, batch)


# Split reference for the fused estimate-then-store step, agent by agent: the
# estimate and the memory write each evaluate their own component gradients.


def split_estimate(streams, instance, x, batch):
    """Batch mean of (fresh minus stored gradient) plus the table average."""
    estimates = np.empty(x.shape)
    for r in range(x.shape[0]):
        for i in range(x.shape[1]):
            h = batch[r, i]
            streams.tally[r, i] += len(h)
            fresh = agent_components(instance, i, h, x[r, i])
            correction = (fresh - streams.table[r, i, h]).mean(axis=0)
            estimates[r, i] = correction + streams.table_sum[r, i] / instance.num_points(i)
    return estimates


def split_update_memory(streams, instance, new_x, batch):
    """Store the gradients at ``new_x`` for each batch's deduplicated indices."""
    for r in range(new_x.shape[0]):
        for i in range(new_x.shape[1]):
            unique = np.unique(batch[r, i])
            fresh = agent_components(instance, i, unique, new_x[r, i])
            streams.tally[r, i] += len(unique)
            streams.table_sum[r, i] += (fresh - streams.table[r, i, unique]).sum(axis=0)
            streams.table[r, i, unique] = fresh


@pytest.fixture
def instance():
    return generate_classification(2, 2, 4, 5)


def stale_streams(instance, rng, replicates=1):
    """Streams whose table entries were stored at distinct random points."""
    streams = make_streams(instance, replicates)
    table = np.zeros((replicates, instance.num_agents, instance.max_points, instance.dimension))
    for r in range(replicates):
        for i in range(instance.num_agents):
            for h in range(instance.num_points(i)):
                point = rng.normal(size=instance.dimension)
                table[r, i, h] = agent_components(instance, i, np.array([h]), point)[0]
    streams.table, streams.table_sum = table, table.sum(axis=2)
    return streams


def full_gradients(instance, x):
    return np.array([[local_full_gradient(instance, i, row) for i, row in enumerate(rep)] for rep in x])


class TestSgdEstimate:
    def test_full_batch_equals_full_gradient(self, instance):
        streams = make_streams(instance)
        x = at(instance, np.linspace(-1, 1, instance.dimension))
        g = sgd_estimate(streams, instance, x, batch_of(instance, np.arange(instance.num_points(0))))
        assert np.max(np.abs(g[0, 0] - local_full_gradient(instance, 0, x[0, 0]))) <= 1e-16
        assert (streams.tally == instance.num_points(0)).all()

    def test_single_index_enumeration_unbiased(self, rng):
        inst = generate_classification(4, 1, 3, 3)
        x = at(inst, rng.normal(size=3))
        streams = make_streams(inst)
        mean = sum(sgd_estimate(streams, inst, x, batch_of(inst, [h])) for h in range(3)) / 3.0
        assert np.max(np.abs(mean - full_gradients(inst, x))) <= 1e-14

    def test_repeated_index_counts_twice(self, instance):
        streams = make_streams(instance)
        x = at(instance, np.full(instance.dimension, 0.5))
        g = sgd_estimate(streams, instance, x, batch_of(instance, [1, 1, 3]))
        for i in range(instance.num_agents):
            rows = agent_components(instance, i, np.array([1, 3]), x[0, i])
            expected = (2.0 * rows[0] + rows[1]) / 3.0
            assert np.allclose(g[0, i], expected, atol=1e-15)
        assert (streams.tally == 3).all()

    def test_empty_batch_rejected(self, instance):
        with pytest.raises(ValueError, match="non-empty"):
            sgd_estimate(
                make_streams(instance), instance, at(instance, np.zeros(instance.dimension)),
                batch_of(instance, np.array([], dtype=int)),
            )

    def test_invalid_index_rejected(self, instance):
        with pytest.raises(ValueError, match="invalid"):
            sgd_estimate(
                make_streams(instance), instance, at(instance, np.zeros(instance.dimension)),
                batch_of(instance, [99]),
            )


class TestRefresh:
    def test_mean_equals_full_gradient(self, instance):
        streams = make_streams(instance, replicates=2)
        x = np.stack([at(instance, np.linspace(0, 1, instance.dimension))[0],
                      at(instance, np.linspace(-2, 1, instance.dimension))[0]])
        saga_refresh(streams, instance, x)
        mean = streams.table_sum / instance.sizes[:, None]
        assert np.max(np.abs(mean - full_gradients(instance, x))) <= 1e-14
        assert (streams.tally == instance.sizes).all()

    def test_idempotent(self, instance):
        s1, s2 = make_streams(instance), make_streams(instance)
        x = at(instance, np.full(instance.dimension, -0.2))
        saga_refresh(s1, instance, x)
        saga_refresh(s2, instance, x)
        saga_refresh(s2, instance, x)
        assert np.array_equal(s1.table, s2.table)
        assert np.array_equal(s1.table_sum, s2.table_sum)

    def test_estimate_at_anchor_collapses(self, instance):
        streams = make_streams(instance)
        x = at(instance, np.full(instance.dimension, 0.7))
        saga_refresh(streams, instance, x)
        full = full_gradients(instance, x)
        for batch in ([0], [1, 3], [2, 2, 4]):
            g = saga_estimate(streams, instance, x, batch_of(instance, batch))
            assert np.max(np.abs(g - full)) <= 1e-14

    def test_zero_variance_at_anchor(self, instance):
        streams = make_streams(instance)
        x = at(instance, np.full(instance.dimension, -1.1))
        saga_refresh(streams, instance, x)
        outputs = [
            saga_estimate(streams, instance, x, batch_of(instance, [h]))
            for h in range(instance.num_points(0))
        ]
        spread = np.max([np.max(np.abs(o - outputs[0])) for o in outputs])
        assert spread <= 1e-15

    def test_second_refresh_allocates_no_second_table(self, rng):
        # a 3.2 MB table: R = 4 streams of 4 agents, 500 points, 50 dimensions
        inst = generate_classification(3, 4, 50, 500)
        streams = make_streams(inst, replicates=4)
        anchors = rng.normal(size=(2, 4, inst.num_agents, inst.dimension))
        saga_refresh(streams, inst, anchors[0])
        tracemalloc.start()
        try:
            saga_refresh(streams, inst, anchors[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the live table plus everything the second refresh allocated at once
        assert streams.table.nbytes + peak < 1.5 * streams.table.nbytes


class TestSagaEstimate:
    def test_unbiased_with_stale_table(self, rng):
        inst = generate_classification(8, 1, 3, 3)
        streams = stale_streams(inst, rng)
        x = at(inst, rng.normal(size=3))
        mean = sum(saga_estimate(streams, inst, x, batch_of(inst, [h])) for h in range(3)) / 3.0
        assert np.max(np.abs(mean - full_gradients(inst, x))) <= 1e-14

    def test_unbiased_with_pair_batches(self, rng):
        # enumeration over all ordered pairs: batch size 2 with replacement
        inst = generate_classification(8, 1, 3, 3)
        streams = stale_streams(inst, rng)
        x = at(inst, rng.normal(size=3))
        total = np.zeros(x.shape)
        for h1 in range(3):
            for h2 in range(3):
                total += saga_estimate(streams, inst, x, batch_of(inst, [h1, h2]))
        mean = total / 9.0
        assert np.max(np.abs(mean - full_gradients(inst, x))) <= 1e-14

    def test_full_batch_cancels_table(self, rng, instance):
        streams = stale_streams(instance, rng)
        x = at(instance, rng.normal(size=instance.dimension))
        batch = batch_of(instance, np.arange(instance.num_points(0)))
        g = saga_estimate(streams, instance, x, batch)
        assert np.max(np.abs(g - full_gradients(instance, x))) <= 1e-13

    def test_counter_charge(self, rng, instance):
        streams = stale_streams(instance, rng)
        saga_estimate_update(
            streams, instance, at(instance, np.zeros(instance.dimension)), batch_of(instance, [0, 0, 1])
        )
        assert (streams.tally == 3).all()
        assert [s.counter.component_gradient_evals for s in streams] == [3] * instance.num_agents

    def test_empty_batch_rejected(self, instance):
        with pytest.raises(ValueError, match="non-empty"):
            saga_estimate(
                make_streams(instance), instance, at(instance, np.zeros(instance.dimension)),
                batch_of(instance, np.array([], dtype=int)),
            )


class TestMemoryUpdate:
    def test_update_at_anchor_is_noop(self, instance):
        streams = make_streams(instance)
        x = at(instance, np.full(instance.dimension, 0.4))
        saga_refresh(streams, instance, x)
        before = streams.table.copy()
        split_update_memory(streams, instance, x, batch_of(instance, [0, 2]))
        assert np.array_equal(streams.table, before)

    def test_update_all_equals_refresh(self, rng, instance):
        streams = stale_streams(instance, rng)
        x = at(instance, rng.normal(size=instance.dimension))
        split_update_memory(streams, instance, x, batch_of(instance, np.arange(instance.num_points(0))))
        reference = make_streams(instance)
        saga_refresh(reference, instance, x)
        assert np.max(np.abs(streams.table - reference.table)) <= 1e-15
        assert (streams.tally == instance.num_points(0)).all()

    def test_counter_deduplicates(self, rng, instance):
        streams = stale_streams(instance, rng)
        split_update_memory(
            streams, instance, at(instance, np.zeros(instance.dimension)), batch_of(instance, [1, 1, 4])
        )
        assert (streams.tally == 2).all()

    def test_running_sum_stays_exact(self, rng):
        inst = generate_classification(9, 1, 5, 20)
        streams = make_streams(inst)
        saga_refresh(streams, inst, np.zeros((1, 1, 5)))
        for _ in range(100):
            batch = draw_batch(streams, int(rng.integers(1, 6)))
            point = rng.normal(size=(1, 1, 5))
            saga_estimate_update(streams, inst, point, batch)
        assert np.max(np.abs(streams.table_sum - streams.table.sum(axis=2))) <= 1e-11


class TestFusedEstimateUpdate:
    @pytest.mark.parametrize("batch", [[0], [1, 3], [2, 2, 0]])
    def test_equivalent_to_estimate_then_update(self, rng, instance, batch):
        batch = batch_of(instance, batch)
        x = rng.normal(size=(1, instance.num_agents, instance.dimension))
        fused = stale_streams(instance, np.random.default_rng(5))
        split = copy.deepcopy(fused)

        g_fused = saga_estimate_update(fused, instance, x, batch)
        g_split = split_estimate(split, instance, x, batch)
        split_update_memory(split, instance, x, batch)

        assert np.max(np.abs(g_fused - g_split)) <= 1e-15
        assert np.max(np.abs(fused.table - split.table)) <= 1e-15
        assert np.max(np.abs(fused.table_sum - split.table_sum)) <= 1e-12
        # sharing: the fused call charges only the estimate's evaluations
        b = batch.shape[-1]
        assert (fused.tally == b).all()
        assert (split.tally == b + len(np.unique(batch))).all()


def take_along_axis_sum(streams, instance, x, batch):
    """The running sum after a batch step, by the two ``take_along_axis`` calls the ordered gather replaced."""
    fresh = component_gradients(instance, x, batch.ravel())
    delta = fresh - np.take_along_axis(streams.table, batch[..., None], axis=2)
    order = np.argsort(batch, axis=-1)
    ordered = np.take_along_axis(batch, order, axis=-1)
    first = np.ones(batch.shape, dtype=bool)
    first[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    change = np.take_along_axis(delta, order[..., None], axis=2) * first[..., None]
    return streams.table_sum + change.sum(axis=2)


class TestOrderedGather:
    @pytest.mark.parametrize("repeats", [False, True])
    def test_running_sum_has_the_bits_of_the_take_along_axis_form(self, rng, repeats):
        inst = generate_classification(3, 3, 4, 12)
        R, b = 4, 6
        if repeats:
            batch = rng.integers(0, 12, size=(R, 3, b))
            assert (np.diff(np.sort(batch, axis=-1), axis=-1) == 0).any()
        else:
            batch = np.array([[rng.permutation(12)[:b] for _ in range(3)] for _ in range(R)])
        streams = stale_streams(inst, rng, replicates=R)
        # stored rows of mixed magnitudes, so the order of the additions shows in the bits
        streams.table *= 10.0 ** rng.integers(-8, 9, size=streams.table.shape[:-1] + (1,))
        streams.table_sum = streams.table.sum(axis=2)
        x = rng.normal(size=(R, 3, 4))
        expected = take_along_axis_sum(streams, inst, x, batch)
        saga_estimate_update(streams, inst, x, batch)
        assert streams.table_sum.tobytes() == expected.tobytes()


class TestBatchDrawing:
    def test_with_replacement_multiset(self):
        inst = generate_classification(3, 2, 2, 5)
        batch = draw_batch(make_streams(inst, replicates=3), 64)
        assert batch.shape == (3, 2, 64)
        assert batch.min() >= 0 and batch.max() < 5
        for row in batch.reshape(-1, 64):
            assert len(np.unique(row)) < 64  # must repeat by pigeonhole

    def test_without_replacement_subset(self):
        inst = generate_classification(3, 2, 2, 8)
        batch = draw_batch(make_streams(inst, replicates=2), 8, replacement=False)
        for row in batch.reshape(-1, 8):
            assert sorted(row) == list(range(8))
        with pytest.raises(ValueError):
            draw_batch(make_streams(generate_classification(3, 2, 2, 4)), 5, replacement=False)

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            draw_batch(make_streams(generate_classification(3, 2, 2, 4)), 0)

    @pytest.mark.parametrize("pending", [40, 57])
    def test_streams_draw_from_their_own_range(self, pending):
        # agents with 1, 3 and 7 points: each stream draws below its own m_i,
        # and a block drawn ahead, for exactly the steps drawn or for more,
        # equals drawing step by step
        rng = np.random.default_rng(0)
        sizes = (1, 3, 7)
        inst = ProblemInstance(
            kind="least_squares",
            features=tuple(rng.normal(size=(m, 2)) for m in sizes),
            labels=tuple(np.ones(m) for m in sizes),
        )
        ahead = make_streams(inst, replicates=2)
        ahead.pending = pending
        steps = np.stack([draw_batch(ahead, 2) for _ in range(40)])
        one_by_one = make_streams(inst, replicates=2)
        singles = np.stack([draw_batch(one_by_one, 2) for _ in range(40)])
        assert np.array_equal(steps, singles)
        assert (steps < np.array(sizes)[:, None]).all()


def uneven_instance(sizes, kind=LEAST_SQUARES):
    rng = np.random.default_rng(0)
    return ProblemInstance(
        kind=kind,
        features=tuple(rng.normal(size=(m, 2)) for m in sizes),
        labels=tuple(np.ones(m) for m in sizes),
        epsilon=0.01 if kind == LOGISTIC_NONCONVEX else 0.0,
    )


@pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
class TestUnevenTable:
    """Two replicates of agents holding 3, 7 and 5 points: m_max = 7."""

    sizes = (3, 7, 5)

    def stale_streams(self, instance):
        """Streams whose every table row, padding too, holds a stale random value."""
        streams = make_streams(instance, replicates=2)
        shape = (2, instance.num_agents, instance.max_points, instance.dimension)
        table = np.random.default_rng(4).normal(size=shape)
        streams.table, streams.table_sum = table, table.sum(axis=2)
        return streams

    def test_refresh_zeroes_padding_and_sums_valid_rows(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        streams = self.stale_streams(inst)
        x = rng.normal(scale=2.0, size=(2, inst.num_agents, inst.dimension))
        saga_refresh(streams, inst, x)
        for r in range(2):
            for i, m in enumerate(self.sizes):
                valid = streams.table[r, i, :m]
                assert np.array_equal(valid, agent_components(inst, i, np.arange(m), x[r, i]))
                assert (streams.table[r, i, m:] == 0.0).all()
                scale = np.abs(valid).sum(axis=0).max()
                assert np.max(np.abs(streams.table_sum[r, i] - valid.sum(axis=0))) <= 1e-15 * scale
        assert (streams.tally == self.sizes).all()

    def test_second_refresh_rewrites_the_table_in_place(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        streams = make_streams(inst, replicates=2)
        saga_refresh(streams, inst, rng.normal(size=(2, inst.num_agents, inst.dimension)))
        table = streams.table
        anchor = rng.normal(scale=2.0, size=(2, inst.num_agents, inst.dimension))
        saga_refresh(streams, inst, anchor)
        assert streams.table is table
        fresh = make_streams(inst, replicates=2)
        saga_refresh(fresh, inst, anchor)
        assert np.array_equal(streams.table.view(np.int64), fresh.table.view(np.int64))
        assert np.array_equal(streams.table_sum.view(np.int64), fresh.table_sum.view(np.int64))
        for i, m in enumerate(self.sizes):
            assert (streams.table[:, i, m:].view(np.int64) == 0).all()  # +0.0, bit for bit

    def test_exact_estimate_matches_local_gradients(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        streams = make_streams(inst, replicates=2)
        x = rng.normal(scale=2.0, size=(2, inst.num_agents, inst.dimension))
        # the exact variant's estimate: the mean of a freshly refreshed table
        saga_refresh(streams, inst, x)
        g = streams.table_sum / streams.sizes[:, None]
        assert np.max(np.abs(g - local_gradients(inst, x))) <= 1e-13
        assert (streams.tally == self.sizes).all()

    def test_batch_step_reads_and_writes_its_own_slots(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        fused = self.stale_streams(inst)
        saga_refresh(fused, inst, rng.normal(size=(2, inst.num_agents, inst.dimension)))
        split = copy.deepcopy(fused)
        batch = draw_batch(make_streams(inst, replicates=2), 3)
        x = rng.normal(size=(2, inst.num_agents, inst.dimension))

        g_fused = saga_estimate_update(fused, inst, x, batch)
        g_split = split_estimate(split, inst, x, batch)
        split_update_memory(split, inst, x, batch)

        assert np.max(np.abs(g_fused - g_split)) <= 1e-15
        assert np.max(np.abs(fused.table - split.table)) <= 1e-15
        assert np.max(np.abs(fused.table_sum - split.table_sum)) <= 1e-12


def per_step_choices(instance, replicate, agent, b, steps):
    """Stream (replicate, agent)'s subsets drawn by one ``choice`` call per step."""
    rng = np.random.default_rng([replicate, agent])
    return np.stack([rng.choice(instance.num_points(agent), b, replace=False) for _ in range(steps)])


class CountingRng:
    """A generator that counts the ``choice`` and ``integers`` calls made on it."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = {"choice": 0, "integers": 0}

    def choice(self, *args, **kwargs):
        self.calls["choice"] += 1
        return self.rng.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls["integers"] += 1
        return self.rng.integers(*args, **kwargs)


class TestDrawsWithoutReplacement:
    sizes = (3, 8, 40)

    @pytest.mark.parametrize("b", [1, 3, 33])
    def test_each_stream_equals_its_per_step_choices(self, monkeypatch, b):
        # 6 streams of 2b - 1 entries a step: blocks of 2 steps, refilled 10
        # times; b = 33 draws its blocks with one choice call per step
        monkeypatch.setattr(oracles, "_BLOCK_ENTRIES", 12 * (2 * b - 1))
        inst = uneven_instance(tuple(max(m, b) for m in self.sizes))
        streams = make_streams(inst, replicates=2)
        streams.pending = 20
        batches = np.stack([draw_batch(streams, b, replacement=False) for _ in range(20)])
        for r in range(2):
            for i in range(inst.num_agents):
                assert np.array_equal(batches[:, r, i], per_step_choices(inst, r, i, b, 20))
                rng = np.random.default_rng([r, i])
                for _ in range(20):
                    rng.choice(inst.num_points(i), b, replace=False)
                assert streams.rngs[r * inst.num_agents + i].bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize(
        "m, b, blocks",
        [(20000, 32, True), (20000, 33, False), (100, 32, True), (100, 33, False)],
    )
    def test_choice_is_called_only_above_the_block_limit(self, m, b, blocks):
        assert oracles._FLOYD_MAX_BATCH == 32
        inst = uneven_instance((m,))
        rng = CountingRng(np.random.default_rng([0, 0]))
        streams = Streams.start(inst, [[rng]], pending=3)
        batches = np.stack([draw_batch(streams, b, replacement=False) for _ in range(3)])
        assert np.array_equal(batches[:, 0, 0], per_step_choices(inst, 0, 0, b, 3))
        assert rng.calls == ({"choice": 0, "integers": 1} if blocks else {"choice": 3, "integers": 0})
