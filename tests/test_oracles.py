import copy
import tracemalloc

import numpy as np
import pytest

from ltadmm import metrics, oracles
from ltadmm.algorithms import RunConfig, init_states, local_training_epoch, outer_step, shared_inputs
from ltadmm.graph import build_ring
from ltadmm.metrics import iteration_evals
from ltadmm.oracles import (
    Streams,
    draw_batch,
    saga_estimate_update,
    saga_refresh,
    sgd_estimate,
    upcoming,
)
from ltadmm.problems import (
    LEAST_SQUARES,
    LOGISTIC_NONCONVEX,
    ProblemInstance,
    component_gradients,
    generate_classification,
    local_full_gradient,
)

from conftest import agent_components, broadcast_columns, fresh_streams


def make_streams(instance, replicates=1, batch_size=1, replacement=True, pending=0):
    """Streams of ``replicates`` replicates; stream (r, i) draws with ``default_rng([r, i])``."""
    N = instance.num_agents
    rngs = [np.random.default_rng([r, i]) for r in range(replicates) for i in range(N)]
    tally = np.zeros((replicates, N), dtype=np.int64)
    return Streams(rngs, instance.sizes, tally, batch_size, replacement, pending)


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


def stale_streams(instance, rng, replicates=1, replacement=True):
    """Streams whose table entries were stored at distinct random points."""
    streams = make_streams(instance, replicates, replacement=replacement)
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


def check_unbiased_with_stale_table(inst, rng):
    """The variance-reduced estimate's mean over every single-index batch is the local gradient.

    Every m_i must divide m_max: stream i enumerates its indices h mod m_i
    for h below m_max, m_max / m_i times each.
    """
    streams = stale_streams(inst, rng)
    x = at(inst, rng.normal(size=inst.dimension))
    m = inst.max_points
    batches = [(h % inst.sizes)[None, :, None] for h in range(m)]
    mean = sum(saga_estimate(streams, inst, x, batch) for batch in batches) / m
    assert np.max(np.abs(mean - full_gradients(inst, x))) <= 1e-14


class TestSagaEstimate:
    @pytest.mark.parametrize("sizes", [(3,), (2, 4, 1)], ids=["one-agent", "unequal-agents"])
    def test_unbiased_with_stale_table(self, sizes, rng):
        # (3,) is one agent; (2, 4, 1) holds agents of unequal size, whose
        # table averages divide by their own m_i
        if len(sizes) == 1:
            inst = generate_classification(8, 1, 3, sizes[0])
        else:
            inst = uneven_instance(sizes, LOGISTIC_NONCONVEX)
        check_unbiased_with_stale_table(inst, rng)

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

    def test_step_before_any_refresh_names_the_refresh(self, instance):
        with pytest.raises(RuntimeError, match="saga_refresh"):
            x = at(instance, np.zeros(instance.dimension))
            saga_estimate_update(make_streams(instance), instance, x, batch_of(instance, [0]))

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

    @pytest.mark.parametrize("replacement", [True, False])
    def test_running_sum_stays_exact(self, rng, replacement):
        inst = generate_classification(9, 1, 5, 20)
        streams = make_streams(inst, replacement=replacement)
        saga_refresh(streams, inst, np.zeros((1, 1, 5)))
        m = inst.num_points(0)
        for _ in range(100):
            b = int(rng.integers(1, 6))
            if replacement:
                batch = rng.integers(0, m, size=(1, 1, b))
            else:
                batch = rng.choice(m, size=(1, 1, b), replace=False)
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
    """The running sum after a batch step, by the two ``take_along_axis`` calls the ordered gather replaced.

    Streams that sample without replacement add the batch's changes in batch order.
    """
    fresh = component_gradients(instance, x, batch.ravel())
    delta = fresh - np.take_along_axis(streams.table, batch[..., None], axis=2)
    if not streams.replacement:
        return streams.table_sum + np.add.reduce(delta, axis=2)
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
        streams = stale_streams(inst, rng, replicates=R, replacement=repeats)
        # stored rows of mixed magnitudes, so the order of the additions shows in the bits
        streams.table *= 10.0 ** rng.integers(-8, 9, size=streams.table.shape[:-1] + (1,))
        streams.table_sum = streams.table.sum(axis=2)
        x = rng.normal(size=(R, 3, 4))
        expected = take_along_axis_sum(streams, inst, x, batch)
        saga_estimate_update(streams, inst, x, batch)
        assert streams.table_sum.tobytes() == expected.tobytes()


def fancy_index_step(streams, instance, x, batch):
    """The batch step in the form that ``take``, ``put`` and ``einsum`` replaced.

    Subspace fancy indexing gathers and writes the table rows and the
    ordered changes, and the batch reductions are ``ndarray.mean`` and
    ``np.add.reduce`` over axis 2.  Streams that sample without replacement
    move the running sum by the batch's changes in batch order.
    """
    fresh = component_gradients(instance, x, batch.ravel())
    n = x.shape[-1]
    slots = (streams._bases + batch).ravel()
    table = streams.table.reshape(-1, n)
    delta = fresh - table[slots].reshape(fresh.shape)
    average = streams.table_sum / streams.sizes[:, None]
    if batch.shape[-1] == 1:
        estimate = delta[:, :, 0] + average
        streams.table_sum += delta[:, :, 0]
    elif not streams.replacement:
        estimate = delta.mean(axis=2) + average
        streams.table_sum += np.add.reduce(delta, axis=2)
    else:
        estimate = delta.mean(axis=2) + average
        order = np.argsort(batch, axis=-1)
        order += batch.shape[-1] * np.arange(streams.tally.size).reshape(streams.tally.shape + (1,))
        ordered = batch.reshape(-1)[order]
        change = delta.reshape(-1, n)[order]
        repeats = ordered[..., 1:] == ordered[..., :-1]
        if repeats.any():
            change[..., 1:, :] *= ~repeats[..., None]
        streams.table_sum += np.add.reduce(change, axis=2)
    table[slots] = fresh.reshape(-1, n)
    return estimate


class TestTakePutStep:
    """The batch estimators hold the bits of their fancy-index forms."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("b, replacement", [(1, True), (3, True), (8, False), (33, False)])
    def test_step_has_the_bits_of_the_fancy_index_form(self, rng, n, b, replacement):
        R, N, m = 2, 3, 40
        inst = generate_classification(3, N, n, m)
        if replacement:
            batch = rng.integers(0, m, size=(R, N, b))
            if b > 1:
                batch[..., -1] = batch[..., 0]  # every stream writes one slot twice
        else:
            batch = np.array([[rng.permutation(m)[:b] for _ in range(N)] for _ in range(R)])
        streams = stale_streams(inst, rng, replicates=R, replacement=replacement)
        # stored rows of mixed magnitudes, so the order of the additions shows in the bits
        streams.table *= 10.0 ** rng.integers(-8, 9, size=streams.table.shape[:-1] + (1,))
        streams.table_sum = streams.table.sum(axis=2)
        expected = copy.deepcopy(streams)
        x = rng.normal(size=(R, N, n))
        estimate = saga_estimate_update(streams, inst, x, batch)
        assert estimate.tobytes() == fancy_index_step(expected, inst, x, batch).tobytes()
        assert streams.table.tobytes() == expected.table.tobytes()
        assert streams.table_sum.tobytes() == expected.table_sum.tobytes()
        mean = component_gradients(inst, x, batch.ravel()).mean(axis=2)
        assert sgd_estimate(streams, inst, x, batch).tobytes() == mean.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("b", [2, 8, 33])
    def test_batch_sum_has_the_bits_of_add_reduce(self, rng, n, b):
        shape = (3, 4, b, n)
        rows = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        assert oracles._batch_sum(rows).tobytes() == np.add.reduce(rows, axis=2).tobytes()


class TestBatchDrawing:
    def test_with_replacement_multiset(self):
        inst = generate_classification(3, 2, 2, 5)
        batch = draw_batch(make_streams(inst, replicates=3, batch_size=64))
        assert batch.shape == (3, 2, 64)
        assert batch.min() >= 0 and batch.max() < 5
        for row in batch.reshape(-1, 64):
            assert len(np.unique(row)) < 64  # must repeat by pigeonhole

    def test_without_replacement_subset(self):
        inst = generate_classification(3, 2, 2, 8)
        batch = draw_batch(make_streams(inst, replicates=2, batch_size=8, replacement=False))
        for row in batch.reshape(-1, 8):
            assert sorted(row) == list(range(8))
        with pytest.raises(ValueError):
            draw_batch(make_streams(generate_classification(3, 2, 2, 4), batch_size=5, replacement=False))

    def test_positive_size_required(self):
        with pytest.raises(ValueError, match="batch size"):
            make_streams(generate_classification(3, 2, 2, 4), batch_size=0)

    @pytest.mark.parametrize("replacement", [True, False])
    def test_refills_keep_the_batch_size_and_sampling_mode(self, replacement):
        # with pending 1 every draw refills a one-step block: three blocks of
        # b = 3, each the next step drawn in the streams' own sampling mode
        inst = uneven_instance((3, 8, 40))
        streams = make_streams(inst, replicates=2, batch_size=3, replacement=replacement, pending=1)
        batches = []
        for _ in range(3):
            batches.append(draw_batch(streams))
            assert streams.block.shape == (1, 2, inst.num_agents, 3)
        for r in range(2):
            for i, m in enumerate(inst.sizes.tolist()):
                if replacement:
                    rng = np.random.default_rng([r, i])
                    expected = [rng.integers(0, m, size=3) for _ in range(3)]
                else:
                    expected = per_step_choices(inst, r, i, 3, 3)
                assert np.array_equal(np.stack(batches)[:, r, i], expected)

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
        ahead = make_streams(inst, replicates=2, batch_size=2, pending=pending)
        steps = np.stack([draw_batch(ahead) for _ in range(40)])
        one_by_one = make_streams(inst, replicates=2, batch_size=2)
        singles = np.stack([draw_batch(one_by_one) for _ in range(40)])
        assert np.array_equal(steps, singles)
        assert (steps < np.array(sizes)[:, None]).all()


def per_step_batches(instance, replicate, agent, b, replacement, steps):
    """Stream (replicate, agent)'s batches drawn step by step from ``default_rng([replicate, agent])``."""
    if not replacement:
        return per_step_choices(instance, replicate, agent, b, steps)
    rng = np.random.default_rng([replicate, agent])
    return np.stack([rng.integers(0, instance.num_points(agent), size=b) for _ in range(steps)])


@pytest.mark.parametrize("b, replacement", [(1, True), (3, True), (1, False), (3, False)])
class TestStepMajorBlock:
    """A block is step-major, (steps, R, N, b): every batch is a C-ordered
    view of it, with the values of drawing step by step."""

    def test_own_generators_hand_out_contiguous_views_across_refills(self, monkeypatch, b, replacement):
        # blocks of 2 steps for the 2 x 3 streams, so 7 steps draw 4 blocks
        entries = b if replacement else 2 * b - 1
        monkeypatch.setattr(oracles, "_BLOCK_ENTRIES", 2 * 6 * entries)
        inst = uneven_instance((3, 8, 40))
        streams = make_streams(inst, replicates=2, batch_size=b, replacement=replacement, pending=7)
        batches = []
        for _ in range(7):
            batch = draw_batch(streams)
            assert batch.shape == (2, 3, b) and batch.flags.c_contiguous
            assert streams.block.shape[1:] == (2, 3, b) and streams.block.flags.c_contiguous
            assert np.shares_memory(batch, streams.block)
            batches.append(batch.copy())
        assert streams.block.shape[0] == 1  # the last block holds the one step left
        for r in range(2):
            for i in range(inst.num_agents):
                expected = per_step_batches(inst, r, i, b, replacement, 7)
                assert np.array_equal(np.stack(batches)[:, r, i], expected)

    def test_a_shared_block_is_read_in_place_by_every_run(self, b, replacement):
        inst = uneven_instance((3, 8, 40))
        topo = build_ring(3)
        configs = [
            RunConfig(variant, gamma=0.1, rho=1.0, tau=3, outer_iterations=2, monte_carlo_runs=2,
                      batch_size=b, batch_replacement=replacement)
            for variant in ("lt_admm", "lt_admm_vr")
        ]
        shared = shared_inputs(inst, topo, configs, range(2))
        block = shared.block.copy()
        assert shared.block.shape == (6, 2, 3, b) and shared.block.flags.c_contiguous
        assert not shared.block.flags.writeable
        runs = [init_states(inst, topo, config, range(2), shared) for config in configs]
        assert all(streams.block is shared.block and not streams.rngs for streams in runs)
        for t in range(4):  # lt_admm_vr draws 4 batches, lt_admm 6
            first, second = draw_batch(runs[0]), draw_batch(runs[1])
            assert first.flags.c_contiguous and np.shares_memory(first, second)
            assert np.shares_memory(first, shared.block)
            assert np.array_equal(first, block[t]) and np.array_equal(second, block[t])
        assert shared.block.tobytes() == block.tobytes()

    def test_upcoming_lists_the_indices_the_next_batches_draw(self, b, replacement):
        inst = uneven_instance((3, 8, 40))
        streams = make_streams(inst, replicates=2, batch_size=b, replacement=replacement, pending=6)
        draw_batch(streams)
        ahead = upcoming(streams, 4)
        assert ahead.shape == (2, 3, 4 * b)
        assert upcoming(streams, 6) is None  # past the end of the block
        batches = [draw_batch(streams) for _ in range(4)]
        assert np.array_equal(ahead, np.concatenate(batches, axis=-1))


def uneven_instance(sizes, kind=LEAST_SQUARES):
    rng = np.random.default_rng(0)
    return ProblemInstance(
        kind=kind,
        features=tuple(rng.normal(size=(m, 2)) for m in sizes),
        labels=tuple(np.ones(m) for m in sizes),
        epsilon=0.01 if kind == LOGISTIC_NONCONVEX else 0.0,
    )


def written_slots(shape, reads):
    """Which (R, N, m_max) slots the read indices ``reads`` (R, N, k) name."""
    written = np.zeros(shape, dtype=bool)
    np.put_along_axis(written, reads, True, axis=2)
    return written


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

    def test_exact_estimate_matches_local_full_gradient(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        streams = make_streams(inst, replicates=2)
        x = rng.normal(scale=2.0, size=(2, inst.num_agents, inst.dimension))
        # the exact variant's estimate: the mean of a freshly refreshed table,
        # against the per-agent reference, which shares no kernel with the refresh
        saga_refresh(streams, inst, x)
        g = streams.table_sum / streams.sizes[:, None]
        assert np.max(np.abs(g - full_gradients(inst, x))) <= 1e-13
        assert (streams.tally == self.sizes).all()

    def test_batch_step_reads_and_writes_its_own_slots(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        fused = self.stale_streams(inst)
        saga_refresh(fused, inst, rng.normal(size=(2, inst.num_agents, inst.dimension)))
        split = copy.deepcopy(fused)
        batch = draw_batch(make_streams(inst, replicates=2, batch_size=3))
        x = rng.normal(size=(2, inst.num_agents, inst.dimension))

        g_fused = saga_estimate_update(fused, inst, x, batch)
        g_split = split_estimate(split, inst, x, batch)
        split_update_memory(split, inst, x, batch)

        assert np.max(np.abs(g_fused - g_split)) <= 1e-15
        assert np.max(np.abs(fused.table - split.table)) <= 1e-15
        assert np.max(np.abs(fused.table_sum - split.table_sum)) <= 1e-12

    # a refresh given the indices its epoch's batches will read

    def reads(self, rng, k):
        """k indices per stream, each below its agent's m_i, with repeats."""
        return rng.integers(0, np.array(self.sizes)[:, None], size=(2, len(self.sizes), k))

    def test_writes_exactly_the_read_slots_with_the_kernels_bits(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        streams = self.stale_streams(inst)
        before = streams.table.copy()
        reads = self.reads(rng, 4)
        anchor = rng.normal(scale=2.0, size=(2, inst.num_agents, inst.dimension))
        saga_refresh(streams, inst, anchor, reads)
        fresh = component_gradients(inst, anchor, reads.ravel())
        for r in range(2):
            for i in range(inst.num_agents):
                for j, h in enumerate(reads[r, i]):
                    assert streams.table[r, i, h].tobytes() == fresh[r, i, j].tobytes()
        written = written_slots(before.shape[:-1], reads)
        assert streams.table[~written].tobytes() == before[~written].tobytes()

    def test_sum_and_charge_equal_the_every_row_refresh(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        ahead, every = self.stale_streams(inst), self.stale_streams(inst)
        anchor = rng.normal(scale=2.0, size=(2, inst.num_agents, inst.dimension))
        saga_refresh(ahead, inst, anchor, self.reads(rng, 3))
        saga_refresh(every, inst, anchor)
        assert ahead.table_sum.tobytes() == every.table_sum.tobytes()
        assert np.array_equal(ahead.tally, every.tally)
        assert (ahead.tally == self.sizes).all()

    def test_first_refresh_creates_the_table_with_zeros_elsewhere(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        streams = make_streams(inst, replicates=2)
        reads = self.reads(rng, 2)
        anchor = rng.normal(size=(2, inst.num_agents, inst.dimension))
        saga_refresh(streams, inst, anchor, reads)
        every = make_streams(inst, replicates=2)
        saga_refresh(every, inst, anchor)
        written = written_slots(streams.table.shape[:-1], reads)
        assert streams.table[written].tobytes() == every.table[written].tobytes()
        assert (streams.table[~written].view(np.int64) == 0).all()

    def test_m_max_reads_write_every_row(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        ahead, every = self.stale_streams(inst), self.stale_streams(inst)
        anchor = rng.normal(size=(2, inst.num_agents, inst.dimension))
        saga_refresh(ahead, inst, anchor, self.reads(rng, inst.max_points))
        saga_refresh(every, inst, anchor)
        assert ahead.table.tobytes() == every.table.tobytes()
        assert ahead.table_sum.tobytes() == every.table_sum.tobytes()

    @pytest.mark.parametrize("agent, index", [(0, 3), (1, 7), (2, -1)], ids=["past-m_i", "m_max", "negative"])
    def test_invalid_read_raises_before_any_write(self, kind, rng, agent, index):
        inst = uneven_instance(self.sizes, kind)
        streams = self.stale_streams(inst)
        table, table_sum = streams.table.copy(), streams.table_sum.copy()
        reads = self.reads(rng, 2)
        reads[1, agent, 1] = index
        with pytest.raises(ValueError, match="invalid"):
            saga_refresh(streams, inst, rng.normal(size=(2, inst.num_agents, inst.dimension)), reads)
        assert streams.table.tobytes() == table.tobytes()
        assert streams.table_sum.tobytes() == table_sum.tobytes()
        assert (streams.tally == 0).all()


@pytest.mark.parametrize("kind", [LOGISTIC_NONCONVEX, LEAST_SQUARES])
class TestPerRunConstants:
    """The constants the streams build once, the float column of the sizes and
    the row type of the table's ``put``, give the bits of the per-step forms on
    agents of 3, 7 and 5 points, whose tables hold padding rows."""

    sizes = (3, 7, 5)

    def test_refresh_step_estimate_divides_by_the_sizes(self, kind, rng):
        # an lt_admm_vr epoch of two steps: a refresh, then a batch step on its table
        inst = uneven_instance(self.sizes, kind)
        N, n = inst.num_agents, inst.dimension
        streams = make_streams(inst, replicates=2)
        X = rng.normal(scale=2.0, size=(2, N, n))
        config = RunConfig("lt_admm_vr", gamma=0.1, rho=1.0, tau=2, outer_iterations=1)
        log = []
        local_training_epoch(streams, inst, config, 0, X, rng.normal(size=X.shape), np.full(N, 2), log)
        reference = make_streams(inst, replicates=2)
        saga_refresh(reference, inst, X)
        assert log[0][1].tobytes() == (reference.table_sum / reference.sizes[:, None]).tobytes()
        saga_estimate_update(reference, inst, log[1][0], draw_batch(reference))
        assert streams.table.tobytes() == reference.table.tobytes()
        assert streams.table_sum.tobytes() == reference.table_sum.tobytes()

    @pytest.mark.parametrize("b, replacement", [(1, True), (3, True), (3, False)])
    def test_batch_step_has_the_bits_of_the_per_step_form(self, kind, rng, b, replacement):
        inst = uneven_instance(self.sizes, kind)
        N, n = inst.num_agents, inst.dimension
        streams = make_streams(inst, replicates=2, batch_size=b, replacement=replacement)
        saga_refresh(streams, inst, rng.normal(scale=2.0, size=(2, N, n)))
        # stored rows of mixed magnitudes, so the order of the additions shows in the bits
        streams.table *= 10.0 ** rng.integers(-8, 9, size=streams.table.shape[:-1] + (1,))
        streams.table_sum = streams.table.sum(axis=2)
        expected = copy.deepcopy(streams)
        batch = draw_batch(streams)
        x = rng.normal(size=(2, N, n))
        estimate = saga_estimate_update(streams, inst, x, batch)
        assert estimate.tobytes() == fancy_index_step(expected, inst, x, batch).tobytes()
        assert streams.table.tobytes() == expected.table.tobytes()
        assert streams.table_sum.tobytes() == expected.table_sum.tobytes()

    def test_constants_take_the_shapes_of_the_arrays_they_meet(self, kind, rng):
        inst = uneven_instance(self.sizes, kind)
        N, n = inst.num_agents, inst.dimension
        streams = make_streams(inst, replicates=2, batch_size=3)
        assert streams._bases.shape == (2, N, 3) and streams._bases.flags.c_contiguous
        firsts = 7 * np.arange(2 * N).reshape(2, N, 1)
        assert np.array_equal(streams._bases, np.broadcast_to(firsts, (2, N, 3)))
        assert streams._charges.shape == (2, N) and streams._charges.flags.c_contiguous
        assert np.array_equal(streams._charges, np.broadcast_to(self.sizes, (2, N)))
        saga_refresh(streams, inst, rng.normal(size=(2, N, n)))
        assert streams.divisors.shape == (2, N, n) and streams.divisors.flags.c_contiguous
        assert streams.divisors.tobytes() == np.broadcast_to(inst.sizes[:, None] * 1.0, (2, N, n)).tobytes()

    @pytest.mark.parametrize("variant", ["lt_admm", "lt_admm_vr", "lt_admm_vr_v2"])
    @pytest.mark.parametrize("b, replacement", [(1, True), (3, True), (3, False)])
    def test_epochs_have_the_bits_of_the_broadcast_forms(
        self, kind, rng, monkeypatch, variant, b, replacement
    ):
        # three epochs of four steps: refreshes, batch steps and updates, each
        # against the same step written with (N, 1) columns that broadcast
        inst = uneven_instance(self.sizes, kind)
        N, n = inst.num_agents, inst.dimension
        config = RunConfig(
            variant, gamma=0.1, rho=1.3, tau=4, outer_iterations=3,
            batch_size=b, batch_replacement=replacement,
        )
        X = rng.normal(scale=2.0, size=(2, N, n))
        AtZ, degrees = rng.normal(size=X.shape), np.array([2, 1, 3])
        streams = make_streams(inst, 2, b, replacement, pending=12)
        log, phi = [], X
        for k in range(3):
            phi = local_training_epoch(streams, inst, config, k, phi, AtZ, degrees, log)

        reference = make_streams(inst, 2, b, replacement, pending=12)
        # the constants as the columns they broadcast from: each stream's first
        # slot, the sizes as the divisor and as the charge, the row offsets
        reference._bases = reference._bases[..., :1].copy()
        reference.divisors = inst.sizes[:, None].astype(float)
        reference._charges = inst.sizes
        monkeypatch.setattr(ProblemInstance, "in_shape", broadcast_columns)
        penalty = (config.rho * degrees)[:, None]
        expected, phi_ref = [], X
        for k in range(3):
            refreshes = metrics.refresh_steps(variant, config.tau, k)
            ahead = metrics.refresh_steps(variant, config.tau, k + 1) > 0
            for t in range(config.tau):
                if t < refreshes:
                    reads = upcoming(reference, config.tau - refreshes) if ahead else None
                    saga_refresh(reference, inst, phi_ref, reads)
                    G = reference.table_sum / reference.sizes[:, None]
                elif variant == "lt_admm":
                    G = sgd_estimate(reference, inst, phi_ref, draw_batch(reference))
                else:
                    G = saga_estimate_update(reference, inst, phi_ref, draw_batch(reference))
                expected.append((phi_ref, G))
                phi_ref = phi_ref - config.gamma * (G + penalty * phi_ref - AtZ)
        assert len(log) == len(expected) == 12
        for (phi_t, G_t), (phi_e, G_e) in zip(log, expected):
            assert phi_t.tobytes() == phi_e.tobytes() and G_t.tobytes() == G_e.tobytes()
        assert phi.tobytes() == phi_ref.tobytes()
        assert np.array_equal(streams.tally, reference.tally)
        if variant != "lt_admm":
            assert streams.table.tobytes() == reference.table.tobytes()
            assert streams.table_sum.tobytes() == reference.table_sum.tobytes()


@pytest.mark.parametrize("index", [5, -1])
def test_read_outside_equal_datasets_raises_before_any_write(instance, rng, index):
    # five points per agent: the streams check no m_i, and the range check of the kernel's gather holds
    streams = stale_streams(instance, rng)
    table = streams.table.copy()
    reads = batch_of(instance, [0, 4, index])
    with pytest.raises(ValueError, match="invalid"):
        saga_refresh(streams, instance, at(instance, rng.normal(size=instance.dimension)), reads)
    assert streams.table.tobytes() == table.tobytes()
    assert (streams.tally == 0).all()


def test_upcoming_reads_the_next_batches_without_drawing_them():
    inst = generate_classification(3, 2, 2, 6)
    # a step-major block of 5 steps; stream (r, i) lists each step's 3 indices in turn
    block = np.random.default_rng(1).integers(0, 6, size=(5, 2, 2, 3))
    streams = Streams([], inst.sizes, np.zeros((2, 2), dtype=np.int64), 3, True, 0, block)
    per_stream = block.transpose(1, 2, 0, 3)
    assert np.array_equal(upcoming(streams, 2), per_stream[:, :, :2].reshape(2, 2, 6))
    assert np.array_equal(draw_batch(streams), block[0])
    assert np.array_equal(upcoming(streams, 4), per_stream[:, :, 1:].reshape(2, 2, 12))
    assert upcoming(streams, 0).shape == (2, 2, 0)
    assert upcoming(streams, 5) is None  # past the end of the block
    assert np.array_equal(draw_batch(streams), block[1])
    # streams with generators have no block before their first draw
    assert upcoming(make_streams(inst, pending=4), 1) is None


@pytest.mark.parametrize("variant, tau", [("exact", 3), ("lt_admm_vr", 1)])
def test_table_free_steps_charge_the_cost_tables_evaluations(variant, tau, rng):
    # a run that draws no batch: each stream is charged its own m_i per step
    inst = uneven_instance((3, 7, 5), LOGISTIC_NONCONVEX)
    topo = build_ring(inst.num_agents)
    config = RunConfig(variant, gamma=0.1, rho=1.0, tau=tau, outer_iterations=4, monte_carlo_runs=2)
    streams = fresh_streams(inst, topo, config, range(2))
    X = rng.normal(size=(2, inst.num_agents, inst.dimension))
    Z = X[:, topo.src]
    for k in range(config.outer_iterations):
        before = streams.tally.copy()
        outer_step(streams, inst, topo, config, k, X, Z)
        assert streams.table is None
        charged = streams.tally - before
        assert np.array_equal(charged, np.broadcast_to(tau * inst.sizes, charged.shape))
        assert charged.max() == iteration_evals(variant, tau, inst.max_points, 1, k)


def test_streams_of_two_dimensions_each_put_whole_rows(rng):
    R, N, m = 2, 3, 6
    for n in (2, 5):
        inst = generate_classification(3, N, n, m)
        streams = stale_streams(inst, rng, replicates=R)
        before = streams.table.copy()
        batch = rng.integers(0, m, size=(R, N, 1))
        x = rng.normal(size=(R, N, n))
        saga_estimate_update(streams, inst, x, batch)
        fresh = component_gradients(inst, x, batch.ravel())
        written = np.zeros(before.shape[:-1], dtype=bool)
        np.put_along_axis(written, batch, True, axis=2)
        assert streams.table[written].tobytes() == fresh.reshape(-1, n).tobytes()
        assert streams.table[~written].tobytes() == before[~written].tobytes()


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


def loop_floyd_subsets(draws, sizes):
    """The Floyd rebuild in the form that column passes, ``take`` and ``put`` replaced."""
    b = (draws.shape[-1] + 1) // 2
    flat = draws.reshape(-1, draws.shape[-1])
    offsets = np.broadcast_to(sizes, draws.shape[:-1]).ravel() - b
    subset = flat[:, :b]
    for j in range(1, b):
        taken = (subset[:, :j] == subset[:, j, None]).any(axis=1)
        subset[taken, j] = offsets[taken] + j
    rows = np.arange(len(flat))
    for i in range(b - 1, 0, -1):
        j = flat[:, 2 * b - 1 - i]
        swapped = subset[rows, j]
        subset[rows, j] = subset[:, i]
        subset[:, i] = swapped
    return subset.reshape(draws.shape[:-1] + (b,))


class TestDrawsWithoutReplacement:
    sizes = (3, 8, 40)

    @pytest.mark.parametrize("b", [2, 3, 8, 32])
    def test_floyd_subsets_equal_the_loop_form(self, b):
        # streams of b, b + 5 and 3b + 1 points
        rng = np.random.default_rng(b)
        sizes = np.array([b, b + 5, 3 * b + 1] * 2)[:, None]
        draws = np.stack([oracles._choice_integers(rng, m, b, 9) for m in sizes[:, 0]])
        expected = loop_floyd_subsets(draws.copy(), sizes)
        assert np.array_equal(oracles._floyd_subsets(draws, sizes), expected)

    @pytest.mark.parametrize("b", [1, 3, 33])
    def test_each_stream_equals_its_per_step_choices(self, monkeypatch, b):
        # 6 streams of 2b - 1 entries a step: blocks of 2 steps, refilled 10
        # times; b = 33 draws its blocks with one choice call per step
        monkeypatch.setattr(oracles, "_BLOCK_ENTRIES", 12 * (2 * b - 1))
        inst = uneven_instance(tuple(max(m, b) for m in self.sizes))
        streams = make_streams(inst, replicates=2, batch_size=b, replacement=False, pending=20)
        batches = np.stack([draw_batch(streams) for _ in range(20)])
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
        streams = Streams([rng], inst.sizes, np.zeros((1, 1), dtype=np.int64), b, False, pending=3)
        batches = np.stack([draw_batch(streams) for _ in range(3)])
        assert np.array_equal(batches[:, 0, 0], per_step_choices(inst, 0, 0, b, 3))
        assert rng.calls == ({"choice": 0, "integers": 1} if blocks else {"choice": 3, "integers": 0})
