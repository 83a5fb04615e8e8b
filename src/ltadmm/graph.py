"""Undirected network topologies and Laplacian spectral diagnostics.

A topology stores, for each agent, the sorted list of its neighbors, plus an
index over *directed* edges: every undirected link {i, j} contributes the two
ordered pairs (i, j) and (j, i).  Agent i owns one auxiliary vector per
neighbor, so the directed edge (i, j) addresses "agent i's variable for
neighbor j".  Directed edges are enumerated grouped by owner, neighbors in
ascending order; this is also the row order of the solver's stacked edge
variables and of the edge-selector matrix used by the dense matrix-form
oracle.

Spectral diagnostics are computed from the N x N graph Laplacian: its
second-smallest eigenvalue (algebraic connectivity) and its largest
eigenvalue, which bound the admissible step sizes of the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Topology",
    "SpectralInfo",
    "build_ring",
    "build_from_edges",
    "laplacian",
    "spectral_quantities",
]


@dataclass(frozen=True, eq=False)
class Topology:
    """Connected undirected graph with per-agent neighbor lists.

    Attributes:
        num_agents: number of agents N.
        neighbor_lists: tuple of sorted neighbor tuples, one per agent.
        directed_edges: all ordered pairs (i, j) with j a neighbor of i,
            grouped by i, neighbors ascending.
        src: owner i of every directed edge (i, j), shape (M,).
        rev: position of the reverse edge (j, i) of every edge, shape (M,).
    """

    num_agents: int
    neighbor_lists: tuple[tuple[int, ...], ...]
    directed_edges: tuple[tuple[int, int], ...]
    src: np.ndarray = field(repr=False)
    rev: np.ndarray = field(repr=False)
    _bins: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def num_directed_edges(self) -> int:
        return len(self.directed_edges)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.neighbor_lists)

    @cached_property
    def degree_vector(self) -> np.ndarray:
        """:attr:`degrees` as a read-only float array, shape (N,)."""
        degrees = np.array(self.degrees, dtype=float)
        degrees.flags.writeable = False
        return degrees

    def edge_sums(self, Z: np.ndarray) -> np.ndarray:
        """Each agent's sum of its edge rows of ``Z`` (R, M, n): A^T Z, shape (R, N, n).

        One ``bincount`` over flat bins (r * N + src[e]) * n + j, built on
        the first call with each (R, n) and kept with the topology.  It adds
        the rows in edge order from +0.0, as ``np.add.at`` on zeros does, so
        the sums have the same bits.
        """
        R, _, n = Z.shape
        bins = self._bins.get((R, n))
        if bins is None:
            owners = self.num_agents * np.arange(R)[:, None] + self.src
            bins = (n * owners)[:, :, None] + np.arange(n)
            self._bins[R, n] = bins = bins.ravel()
        sums = np.bincount(bins, weights=Z.ravel(), minlength=R * self.num_agents * n)
        return sums.reshape(R, self.num_agents, n)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)


def _connected(num_agents: int, neighbor_sets: list[set[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in neighbor_sets[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == num_agents


def _finalize(num_agents: int, neighbor_sets: list[set[int]]) -> Topology:
    if not _connected(num_agents, neighbor_sets):
        raise ValueError("graph is not connected")
    neighbor_lists = tuple(tuple(sorted(s)) for s in neighbor_sets)
    directed_edges = tuple(
        (i, j) for i in range(num_agents) for j in neighbor_lists[i]
    )
    edge_index = {pair: e for e, pair in enumerate(directed_edges)}
    src = np.array([i for i, _ in directed_edges], dtype=np.intp)
    rev = np.array([edge_index[(j, i)] for i, j in directed_edges], dtype=np.intp)
    return Topology(num_agents, neighbor_lists, directed_edges, src, rev)


def build_ring(n_agents: int) -> Topology:
    """Cycle over ``n_agents`` vertices; every agent has exactly 2 neighbors.

    Raises:
        ValueError: if ``n_agents < 3`` (a cycle needs at least 3 vertices).
    """
    if n_agents < 3:
        raise ValueError(f"ring requires at least 3 agents, got {n_agents}")
    neighbor_sets = [
        {(i - 1) % n_agents, (i + 1) % n_agents} for i in range(n_agents)
    ]
    return _finalize(n_agents, neighbor_sets)


def build_from_edges(n_agents: int, edges) -> Topology:
    """Topology from an explicit list of unordered vertex pairs.

    Raises:
        ValueError: on invalid vertex indices, self-loops, duplicate edges,
            or a disconnected graph.
    """
    if n_agents < 1:
        raise ValueError("need at least one agent")
    neighbor_sets: list[set[int]] = [set() for _ in range(n_agents)]
    seen: set[tuple[int, int]] = set()
    for pair in edges:
        i, j = pair
        if not (0 <= i < n_agents and 0 <= j < n_agents):
            raise ValueError(f"edge {pair} references an invalid vertex")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    return _finalize(n_agents, neighbor_sets)


def laplacian(topology: Topology) -> np.ndarray:
    """Graph Laplacian (degree matrix minus adjacency), shape (N, N)."""
    n = topology.num_agents
    lap = np.zeros((n, n))
    for i, nbrs in enumerate(topology.neighbor_lists):
        lap[i, i] = len(nbrs)
        for j in nbrs:
            lap[i, j] = -1.0
    return lap


@dataclass(frozen=True, eq=False)
class SpectralInfo:
    """Laplacian spectral quantities of a connected topology.

    ``lambda_tilde_max_abs`` is the algebraic connectivity (second-smallest
    Laplacian eigenvalue) and ``lambda_tilde_min_abs`` the largest Laplacian
    eigenvalue; both are the absolute values of the extreme eigenvalues of the
    negated Laplacian restricted to the disagreement subspace, which is all
    the solver bounds need.

    Attributes:
        lambda_tilde_min_abs: largest Laplacian eigenvalue.
        lambda_tilde_max_abs: second-smallest Laplacian eigenvalue.
        max_degree: maximum vertex degree.
        nonzero_eigenvalues: all N-1 nonzero Laplacian eigenvalues, ascending.
    """

    lambda_tilde_min_abs: float
    lambda_tilde_max_abs: float
    max_degree: int
    nonzero_eigenvalues: np.ndarray = field(repr=False)


def spectral_quantities(topology: Topology) -> SpectralInfo:
    """Extreme nonzero Laplacian eigenvalues of a connected topology.

    Raises:
        ValueError: on a single agent, whose Laplacian has no nonzero
            eigenvalue.
    """
    if topology.num_agents == 1:
        raise ValueError("a single agent has no nonzero Laplacian eigenvalue")
    lap = laplacian(topology)
    eigenvalues = np.linalg.eigvalsh(lap)
    # connected graph: single zero eigenvalue, all others strictly positive
    scale = max(1.0, float(eigenvalues[-1]))
    if abs(eigenvalues[0]) > 1e-9 * scale or eigenvalues[1] <= 1e-9 * scale:
        raise ValueError("Laplacian spectrum inconsistent with connectivity")
    nonzero = eigenvalues[1:].copy()
    info = SpectralInfo(
        lambda_tilde_min_abs=float(eigenvalues[-1]),
        lambda_tilde_max_abs=float(eigenvalues[1]),
        max_degree=topology.max_degree,
        nonzero_eigenvalues=nonzero,
    )
    if not (0.0 < info.lambda_tilde_max_abs <= info.lambda_tilde_min_abs):
        raise ValueError("eigenvalue ordering violated")
    if info.lambda_tilde_min_abs > 2.0 * info.max_degree + 1e-9:
        raise ValueError("largest Laplacian eigenvalue exceeds twice max degree")
    return info
