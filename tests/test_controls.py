"""Negative controls: each plants one defect and shows that the check meant to catch it fails.

A control runs the same check, at the same configuration, as the test that
states the claim: the check lives in a helper that both call.  A defect is
planted with ``monkeypatch`` and undone when the control ends.
"""

import numpy as np
import pytest

from ltadmm import algorithms, oracles

from test_acceptance import check_conservation_identity
from test_algorithms import check_chunked_measurement, check_held_replicate_keeps_its_start
from test_oracles import LOGISTIC_NONCONVEX, check_unbiased_with_stale_table, uneven_instance


def test_a_sign_flip_in_the_exchange_breaks_conservation(monkeypatch):
    def flipped(topology, Z, X, rho):
        payload = Z - 2.0 * rho * X.take(topology.src, axis=-2)
        return 0.5 * (Z + payload.take(topology.rev, axis=-2))  # - in exchange

    check_conservation_identity()
    monkeypatch.setattr(algorithms, "exchange", flipped)
    with pytest.raises(AssertionError):
        check_conservation_identity()


def test_dividing_by_m_max_biases_the_estimate_on_agents_of_unequal_size(monkeypatch, rng):
    # the unequal case of TestSagaEstimate.test_unbiased_with_stale_table
    inst = uneven_instance((2, 4, 1), LOGISTIC_NONCONVEX)
    divisor = property(lambda streams: np.full(streams.table_sum.shape, float(streams.sizes.max())))
    monkeypatch.setattr(oracles.Streams, "divisors", divisor)
    with pytest.raises(AssertionError):
        check_unbiased_with_stale_table(inst, rng)


def test_a_held_replicate_that_keeps_moving_fails_the_divergence_check(monkeypatch):
    def moving(streams, instance, topology, config, k, X, Z, log=None):
        # outer_step without the hold of the diverged replicates
        AtZ = topology.edge_sums(Z)
        X_new = algorithms.local_training_epoch(streams, instance, config, k, X, AtZ, topology.degree_vector, log)
        Z[...] = algorithms.exchange(topology, Z, X_new, config.rho)
        X[...] = X_new

    monkeypatch.setattr(algorithms, "outer_step", moving)
    with pytest.raises(AssertionError):
        check_held_replicate_keeps_its_start()


def test_a_chunk_written_one_state_late_fails_the_chunk_check(monkeypatch):
    add = algorithms._Chunk.add

    def late(chunk, X, Z):
        # each place of the chunk takes the state added before this one
        previous = getattr(chunk, "previous", (X, Z))
        chunk.previous = X.copy(), Z.copy()
        add(chunk, *previous)

    monkeypatch.setattr(algorithms._Chunk, "add", late)
    with pytest.raises(AssertionError):
        check_chunked_measurement(monkeypatch, 4)
