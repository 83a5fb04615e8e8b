import math

import numpy as np
import pytest

from ltadmm.graph import (
    build_from_edges,
    build_ring,
    laplacian,
    spectral_quantities,
)

from conftest import random_connected_topology


def cycle_eigenvalues(n):
    """Closed-form Laplacian spectrum of the n-cycle: 2 - 2cos(2 pi k / n)."""
    return sorted(2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n))


class TestConstruction:
    def test_ring_10(self):
        topo = build_ring(10)
        assert topo.num_agents == 10
        assert all(d == 2 for d in topo.degrees)
        assert topo.num_directed_edges == 20

    def test_ring_3_triangle(self):
        topo = build_ring(3)
        assert topo.degrees == (2, 2, 2)
        assert topo.neighbor_lists == ((1, 2), (0, 2), (0, 1))

    def test_ring_2_rejected(self):
        with pytest.raises(ValueError):
            build_ring(2)

    def test_path_of_two(self):
        topo = build_from_edges(2, [(0, 1)])
        assert topo.degrees == (1, 1)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            build_from_edges(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_from_edges(3, [(0, 0), (0, 1), (1, 2)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_from_edges(3, [(0, 1), (1, 0), (1, 2)])

    def test_bad_vertex_rejected(self):
        with pytest.raises(ValueError, match="invalid vertex"):
            build_from_edges(3, [(0, 3)])

    def test_edges_vs_ring(self):
        by_edges = build_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        ring = build_ring(4)
        assert by_edges.neighbor_lists == ring.neighbor_lists
        assert by_edges.directed_edges == ring.directed_edges

    def test_symmetry(self, rng):
        topo = random_connected_topology(rng, 9)
        for i, nbrs in enumerate(topo.neighbor_lists):
            for j in nbrs:
                assert i in topo.neighbor_lists[j]
                assert i != j


class TestEdgeIndex:
    def test_round_trip_and_distinct_directions(self):
        topo = build_ring(6)
        for e, (i, j) in enumerate(topo.directed_edges):
            assert topo.directed_edges[topo.rev[e]] == (j, i)
            assert topo.rev[topo.rev[e]] == e
            assert topo.rev[e] != e

    def test_enumerates_both_directions(self, rng):
        topo = random_connected_topology(rng, 7)
        pairs = set(topo.directed_edges)
        for i, j in list(pairs):
            assert (j, i) in pairs
        assert len(pairs) == sum(topo.degrees)


class TestEdgeSums:
    @pytest.mark.parametrize("replicates", [1, 3])
    def test_bits_of_add_at_on_an_irregular_graph(self, replicates):
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (3, 4), (4, 5), (2, 5)]
        topo = build_from_edges(6, edges)  # degrees 5, 2, 3, 2, 3, 3
        rng = np.random.default_rng(replicates)
        shape = (replicates, topo.num_directed_edges, 4)
        # magnitudes from 1 to 1000, so the order of the additions shows in the bits
        Z = rng.normal(size=shape) * 10.0 ** rng.integers(0, 4, size=shape)
        Z[rng.random(shape) < 0.2] = -0.0
        Z[:, topo.src == 4] = -0.0  # every edge row of agent 4: its sums are +0.0
        reference = np.zeros((replicates, topo.num_agents, 4))
        np.add.at(reference, (slice(None), topo.src), Z)
        assert not np.signbit(reference[:, 4]).any()
        for _ in range(2):  # the second call reads the kept bins
            assert topo.edge_sums(Z).tobytes() == reference.tobytes()

    def test_degree_vector(self, rng):
        topo = random_connected_topology(rng, 7)
        assert topo.degree_vector.tolist() == list(topo.degrees)
        assert not topo.degree_vector.flags.writeable


class TestSpectrum:
    def test_ring_10_values(self):
        info = spectral_quantities(build_ring(10))
        assert info.lambda_tilde_max_abs == pytest.approx(2.0 - 2.0 * math.cos(2.0 * math.pi / 10), abs=1e-12)
        assert info.lambda_tilde_max_abs == pytest.approx(0.381966, abs=1e-6)
        assert info.lambda_tilde_min_abs == pytest.approx(4.0, abs=1e-9)
        assert info.max_degree == 2

    def test_complete_graph_k4(self):
        topo = build_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        info = spectral_quantities(topo)
        assert info.lambda_tilde_max_abs == pytest.approx(4.0, abs=1e-9)
        assert info.lambda_tilde_min_abs == pytest.approx(4.0, abs=1e-9)

    def test_path_of_two(self):
        info = spectral_quantities(build_from_edges(2, [(0, 1)]))
        assert info.lambda_tilde_max_abs == pytest.approx(2.0, abs=1e-12)
        assert info.lambda_tilde_min_abs == pytest.approx(2.0, abs=1e-12)

    def test_single_agent_rejected(self):
        with pytest.raises(ValueError, match="single agent"):
            spectral_quantities(build_from_edges(1, []))

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_cycle_closed_form(self, n):
        info = spectral_quantities(build_ring(n))
        expected = cycle_eigenvalues(n)
        full = np.sort(np.concatenate(([0.0], info.nonzero_eigenvalues)))
        assert np.allclose(full, expected, atol=1e-9)

    def test_laplacian_row_sums_zero(self, rng):
        for n in (4, 6, 9):
            topo = random_connected_topology(rng, n)
            lap = laplacian(topo)
            assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-14)
            assert np.allclose(lap, lap.T)

    def test_zero_eigenvalue_simple_iff_connected(self, rng):
        topo = random_connected_topology(rng, 8)
        eigenvalues = np.linalg.eigvalsh(laplacian(topo))
        assert np.sum(np.abs(eigenvalues) < 1e-9) == 1

        # two disjoint triangles: zero eigenvalue with multiplicity 2
        lap = np.zeros((6, 6))
        for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
            lap[a, a] += 1
            lap[b, b] += 1
            lap[a, b] -= 1
            lap[b, a] -= 1
        eigenvalues = np.linalg.eigvalsh(lap)
        assert np.sum(np.abs(eigenvalues) < 1e-9) == 2

    def test_degree_bound(self, rng):
        for n in (5, 7, 10):
            topo = random_connected_topology(rng, n)
            info = spectral_quantities(topo)
            assert info.lambda_tilde_min_abs <= 2.0 * info.max_degree + 1e-12
