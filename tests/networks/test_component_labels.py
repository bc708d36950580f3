"""Differential tests for the component labelling of the repairing generators.

The reference below is the previous labelling, kept here as the oracle:
a COO matrix of the edges and scipy's ``connected_components(...,
directed=False)``.  :func:`repro.networks.csr.component_labels` must
return exactly its ``(count, labels)``, and the two generators that
repair connectivity with it -- the edge-Markov chain and the
random-waypoint walk -- must emit the same edge arrays as copies of
themselves that still repair through the reference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.networks.csr import component_labels
from repro.networks.generators.geometric import RandomWaypointDynamicGraph
from repro.networks.generators.markov import EdgeMarkovDynamicGraph


def reference_labels(n, u, v) -> tuple[int, np.ndarray]:
    adjacency = sp.coo_array(
        (np.ones(u.size, dtype=np.int8), (u, v)), shape=(n, n)
    )
    return connected_components(adjacency, directed=False, return_labels=True)


class ReferenceMarkov(EdgeMarkovDynamicGraph):
    """The edge-Markov chain with its previous, COO-labelled repair."""

    def _repair_connectivity(self, present, rng):
        n = self.n
        count, labels = reference_labels(
            n, self._pair_u[present], self._pair_v[present]
        )
        if count <= 1:
            return
        order = rng.permutation(n)
        _, first_positions = np.unique(labels[order], return_index=True)
        representatives = order[first_positions]
        chain = representatives[rng.permutation(count)]
        a = np.minimum(chain[:-1], chain[1:])
        b = np.maximum(chain[:-1], chain[1:])
        present[self._pair_index(a, b)] = True


class ReferenceWaypoint(RandomWaypointDynamicGraph):
    """The random-waypoint walk with its previous, COO-labelled repair."""

    @staticmethod
    def _repair(n, u, v, distances):
        count, labels = reference_labels(n, u, v)
        nodes = np.arange(n)
        first = np.full(count, n)
        np.minimum.at(first, labels, nodes)
        rank = first[labels]
        shortcuts = []
        while count > 1:
            base = labels == labels[0]
            inside, outside = nodes[base], nodes[~base]
            gaps = distances[np.ix_(inside, outside)]
            rows, cols = np.nonzero(gaps == gaps.min())
            a, b = inside[rows], outside[cols]
            pick = np.lexsort((b, a, rank[b]))[0]
            a, b = int(a[pick]), int(b[pick])
            labels[labels == labels[b]] = labels[0]
            count -= 1
            shortcuts.append((min(a, b), max(a, b)))
        pairs = np.array(shortcuts, dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]


@st.composite
def pair_subsets(draw):
    n = draw(st.integers(2, 40))
    pair_u, pair_v = np.triu_indices(n, 1)
    density = draw(st.sampled_from((0.0, 0.02, 0.05, 0.1, 0.3, 0.8)))
    seed = draw(st.integers(0, 2**32 - 1))
    present = np.random.default_rng(seed).random(pair_u.size) < density
    return n, pair_u[present], pair_v[present]


def assert_same_edges(chain, reference, rounds):
    for round_no in range(rounds):
        u, v = chain.edges(round_no)
        ref_u, ref_v = reference.edges(round_no)
        assert u.dtype == ref_u.dtype and v.dtype == ref_v.dtype
        assert np.array_equal(u, ref_u), round_no
        assert np.array_equal(v, ref_v), round_no


class TestComponentLabels:
    @settings(max_examples=300, deadline=None)
    @given(pair_subsets())
    def test_matches_undirected_scipy(self, case):
        n, u, v = case
        count, labels = component_labels(n, u, v)
        ref_count, ref_labels = reference_labels(n, u, v)
        assert count == ref_count
        assert np.array_equal(labels, ref_labels)

    def test_edgeless_and_connected(self):
        count, labels = component_labels(4, np.array([]), np.array([]))
        assert count == 4 and labels.tolist() == [0, 1, 2, 3]
        count, labels = component_labels(3, np.array([2, 0]), np.array([1, 1]))
        assert count == 1 and labels.tolist() == [0, 0, 0]

    def test_numbered_by_smallest_node(self):
        # Components {0, 4}, {1, 3}, {2}, with edges listed largest
        # node first: labels still follow each one's smallest node.
        count, labels = component_labels(5, np.array([4, 3]), np.array([0, 1]))
        assert count == 3 and labels.tolist() == [0, 1, 2, 1, 0]


class TestRepairingGenerators:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**16),
        p_up=st.sampled_from((0.0, 0.01, 0.05, 0.3, 1.0)),
        p_down=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
    )
    def test_edge_markov_matches_reference_chain(self, n, seed, p_up, p_down):
        params = dict(p_up=p_up, p_down=p_down, seed=seed)
        assert_same_edges(
            EdgeMarkovDynamicGraph(n, **params),
            ReferenceMarkov(n, **params),
            rounds=40,
        )

    def test_waypoint_matches_reference_walk(self):
        for n in (2, 5, 9, 20):
            for seed in range(4):
                for radius in (0.05, 0.2, 0.35):
                    assert_same_edges(
                        RandomWaypointDynamicGraph(n, radius=radius, seed=seed),
                        ReferenceWaypoint(n, radius=radius, seed=seed),
                        rounds=25,
                    )
