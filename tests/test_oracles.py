import copy

import numpy as np
import pytest

from ltadmm.oracles import (
    EvalCounter,
    SagaTable,
    draw_batch,
    saga_estimate_update,
    saga_refresh,
    sgd_estimate,
)
from ltadmm.problems import (
    component_gradients,
    generate_classification,
    local_full_gradient,
)


def saga_estimate(table, instance, agent, x, batch, counter):
    """The solvers' variance-reduced estimate at ``x``, leaving ``table`` as it is."""
    return saga_estimate_update(copy.deepcopy(table), instance, agent, x, batch, counter)


# Split reference for the fused estimate-then-store step: the estimate and
# the memory write each evaluate their own component gradients.


def split_estimate(table, instance, agent, x, batch, counter):
    """Batch mean of (fresh minus stored gradient) plus the table average."""
    batch = np.asarray(batch)
    counter.component_gradient_evals += len(batch)
    fresh = component_gradients(instance, agent, batch, x)
    correction = (fresh - table.gradients[batch]).mean(axis=0)
    return correction + table.mean()


def split_update_memory(table, instance, agent, new_x, batch, counter):
    """Store the gradients at ``new_x`` for the batch's deduplicated indices."""
    batch = np.asarray(batch)
    unique = np.unique(batch)
    fresh = component_gradients(instance, agent, unique, new_x)
    counter.component_gradient_evals += len(unique)
    table.running_sum = table.running_sum + (fresh - table.gradients[unique]).sum(axis=0)
    table.gradients[unique] = fresh


@pytest.fixture
def instance():
    return generate_classification(2, 2, 4, 5)


def fresh_table(instance, agent=0):
    return SagaTable(instance.num_points(agent), instance.dimension)


def stale_table(instance, rng, agent=0):
    """Table whose entries were stored at distinct random points."""
    table = fresh_table(instance, agent)
    m = instance.num_points(agent)
    for h in range(m):
        point = rng.normal(size=instance.dimension)
        table.gradients[h] = component_gradients(instance, agent, np.array([h]), point)[0]
    table.running_sum = table.gradients.sum(axis=0)
    return table


class TestSgdEstimate:
    def test_full_batch_equals_full_gradient(self, instance):
        counter = EvalCounter()
        x = np.linspace(-1, 1, instance.dimension)
        batch = np.arange(instance.num_points(0))
        g = sgd_estimate(instance, 0, x, batch, counter)
        assert np.max(np.abs(g - local_full_gradient(instance, 0, x))) <= 1e-16
        assert counter.component_gradient_evals == instance.num_points(0)

    def test_single_index_enumeration_unbiased(self, rng):
        inst = generate_classification(4, 1, 3, 3)
        x = rng.normal(size=3)
        counter = EvalCounter()
        mean = sum(
            sgd_estimate(inst, 0, x, np.array([h]), counter) for h in range(3)
        ) / 3.0
        assert np.max(np.abs(mean - local_full_gradient(inst, 0, x))) <= 1e-14

    def test_repeated_index_counts_twice(self, instance):
        counter = EvalCounter()
        x = np.full(instance.dimension, 0.5)
        g = sgd_estimate(instance, 0, x, np.array([1, 1, 3]), counter)
        rows = component_gradients(instance, 0, np.array([1, 3]), x)
        expected = (2.0 * rows[0] + rows[1]) / 3.0
        assert np.allclose(g, expected, atol=1e-15)
        assert counter.component_gradient_evals == 3

    def test_empty_batch_rejected(self, instance):
        with pytest.raises(ValueError, match="non-empty"):
            sgd_estimate(instance, 0, np.zeros(instance.dimension), np.array([], dtype=int), EvalCounter())

    def test_invalid_index_rejected(self, instance):
        with pytest.raises(ValueError, match="invalid"):
            sgd_estimate(instance, 0, np.zeros(instance.dimension), np.array([99]), EvalCounter())


class TestRefresh:
    def test_mean_equals_full_gradient(self, instance):
        table = fresh_table(instance)
        counter = EvalCounter()
        x = np.linspace(0, 1, instance.dimension)
        saga_refresh(table, instance, 0, x, counter)
        assert np.max(np.abs(table.mean() - local_full_gradient(instance, 0, x))) <= 1e-14
        assert counter.component_gradient_evals == instance.num_points(0)

    def test_idempotent(self, instance):
        t1, t2 = fresh_table(instance), fresh_table(instance)
        x = np.full(instance.dimension, -0.2)
        saga_refresh(t1, instance, 0, x, EvalCounter())
        saga_refresh(t2, instance, 0, x, EvalCounter())
        saga_refresh(t2, instance, 0, x, EvalCounter())
        assert np.array_equal(t1.gradients, t2.gradients)
        assert np.array_equal(t1.running_sum, t2.running_sum)

    def test_estimate_at_anchor_collapses(self, instance):
        table = fresh_table(instance)
        x = np.full(instance.dimension, 0.7)
        saga_refresh(table, instance, 0, x, EvalCounter())
        full = local_full_gradient(instance, 0, x)
        for batch in ([0], [1, 3], [2, 2, 4]):
            g = saga_estimate(table, instance, 0, x, np.array(batch), EvalCounter())
            assert np.max(np.abs(g - full)) <= 1e-14

    def test_zero_variance_at_anchor(self, instance):
        table = fresh_table(instance)
        x = np.full(instance.dimension, -1.1)
        saga_refresh(table, instance, 0, x, EvalCounter())
        outputs = [
            saga_estimate(table, instance, 0, x, np.array([h]), EvalCounter())
            for h in range(instance.num_points(0))
        ]
        spread = np.max([np.max(np.abs(o - outputs[0])) for o in outputs])
        assert spread <= 1e-15


class TestSagaEstimate:
    def test_unbiased_with_stale_table(self, rng):
        inst = generate_classification(8, 1, 3, 3)
        table = stale_table(inst, rng)
        x = rng.normal(size=3)
        mean = sum(
            saga_estimate(table, inst, 0, x, np.array([h]), EvalCounter()) for h in range(3)
        ) / 3.0
        assert np.max(np.abs(mean - local_full_gradient(inst, 0, x))) <= 1e-14

    def test_unbiased_with_pair_batches(self, rng):
        # enumeration over all ordered pairs: batch size 2 with replacement
        inst = generate_classification(8, 1, 3, 3)
        table = stale_table(inst, rng)
        x = rng.normal(size=3)
        total = np.zeros(3)
        for h1 in range(3):
            for h2 in range(3):
                total += saga_estimate(table, inst, 0, x, np.array([h1, h2]), EvalCounter())
        mean = total / 9.0
        assert np.max(np.abs(mean - local_full_gradient(inst, 0, x))) <= 1e-14

    def test_full_batch_cancels_table(self, rng, instance):
        table = stale_table(instance, rng)
        x = rng.normal(size=instance.dimension)
        batch = np.arange(instance.num_points(0))
        g = saga_estimate(table, instance, 0, x, batch, EvalCounter())
        assert np.max(np.abs(g - local_full_gradient(instance, 0, x))) <= 1e-13

    def test_counter_charge(self, rng, instance):
        table = stale_table(instance, rng)
        counter = EvalCounter()
        saga_estimate(table, instance, 0, np.zeros(instance.dimension), np.array([0, 0, 1]), counter)
        assert counter.component_gradient_evals == 3

    def test_empty_batch_rejected(self, instance):
        table = fresh_table(instance)
        with pytest.raises(ValueError, match="non-empty"):
            saga_estimate(table, instance, 0, np.zeros(instance.dimension), np.array([], dtype=int), EvalCounter())


class TestMemoryUpdate:
    def test_update_at_anchor_is_noop(self, instance):
        table = fresh_table(instance)
        x = np.full(instance.dimension, 0.4)
        saga_refresh(table, instance, 0, x, EvalCounter())
        before = table.gradients.copy()
        split_update_memory(table, instance, 0, x, np.array([0, 2]), EvalCounter())
        assert np.array_equal(table.gradients, before)

    def test_update_all_equals_refresh(self, rng, instance):
        table = stale_table(instance, rng)
        x = rng.normal(size=instance.dimension)
        counter = EvalCounter()
        split_update_memory(table, instance, 0, x, np.arange(instance.num_points(0)), counter)
        reference = fresh_table(instance)
        saga_refresh(reference, instance, 0, x, EvalCounter())
        assert np.max(np.abs(table.gradients - reference.gradients)) <= 1e-15
        assert counter.component_gradient_evals == instance.num_points(0)

    def test_counter_deduplicates(self, rng, instance):
        table = stale_table(instance, rng)
        counter = EvalCounter()
        split_update_memory(table, instance, 0, np.zeros(instance.dimension), np.array([1, 1, 4]), counter)
        assert counter.component_gradient_evals == 2

    def test_running_sum_stays_exact(self, rng):
        inst = generate_classification(9, 1, 5, 20)
        table = fresh_table(inst)
        saga_refresh(table, inst, 0, np.zeros(5), EvalCounter())
        for _ in range(100):
            batch = draw_batch(rng, 20, int(rng.integers(1, 6)))
            point = rng.normal(size=5)
            split_update_memory(table, inst, 0, point, batch, EvalCounter())
        assert np.max(np.abs(table.running_sum - table.gradients.sum(axis=0))) <= 1e-11


class TestFusedEstimateUpdate:
    @pytest.mark.parametrize("batch", [[0], [1, 3], [2, 2, 0]])
    def test_equivalent_to_estimate_then_update(self, rng, instance, batch):
        batch = np.array(batch)
        x = rng.normal(size=instance.dimension)
        t1 = stale_table(instance, np.random.default_rng(5))
        t2 = SagaTable(instance.num_points(0), instance.dimension)
        t2.gradients[:] = t1.gradients
        t2.running_sum = t1.running_sum.copy()

        c1 = EvalCounter()
        g_fused = saga_estimate_update(t1, instance, 0, x, batch, c1)

        c2 = EvalCounter()
        g_split = split_estimate(t2, instance, 0, x, batch, c2)
        split_update_memory(t2, instance, 0, x, batch, c2)

        assert np.max(np.abs(g_fused - g_split)) <= 1e-15
        assert np.max(np.abs(t1.gradients - t2.gradients)) <= 1e-15
        assert np.max(np.abs(t1.running_sum - t2.running_sum)) <= 1e-12
        # sharing: the fused call charges only the estimate's evaluations
        assert c1.component_gradient_evals == len(batch)
        assert c2.component_gradient_evals == len(batch) + len(np.unique(batch))


class TestBatchDrawing:
    def test_with_replacement_multiset(self, rng):
        batch = draw_batch(rng, 5, 64)
        assert len(batch) == 64
        assert batch.min() >= 0 and batch.max() < 5
        assert len(np.unique(batch)) < 64  # must repeat by pigeonhole

    def test_without_replacement_subset(self, rng):
        batch = draw_batch(rng, 8, 8, replacement=False)
        assert sorted(batch) == list(range(8))
        with pytest.raises(ValueError):
            draw_batch(rng, 4, 5, replacement=False)

    def test_positive_size_required(self, rng):
        with pytest.raises(ValueError):
            draw_batch(rng, 4, 0)
