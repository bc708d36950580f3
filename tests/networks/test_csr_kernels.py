"""Differential tests for the edges->CSR kernel and block-diagonal stacking.

The reference implementations below are the previous ones, kept here as
oracles: ``np.unique`` pair keys -> COO ``sp.csr_array`` ->
``connected_components`` for the build, ``sp.block_diag`` for the
stack.  The production kernels must match them bit for bit: the same
``indptr``/``indices``/``data`` arrays and dtypes, the same
``connected`` flag, and the same canonical-format flags.  The fused
multi-lane build is in turn held to per-lane builds stacked afterwards.
"""

from __future__ import annotations

import re
from unittest import mock

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.networks import csr
from repro.networks.csr import (
    csr_from_edges,
    csr_from_lane_edges,
    index_dtype_for,
    lower_graph,
    stack_adjacencies,
    validate_edge_arrays,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.simulation.errors import TopologyError


def policy_dtype(matrix: sp.csr_array) -> sp.csr_array:
    dtype = index_dtype_for(max(int(matrix.shape[0]), int(matrix.nnz)))
    if matrix.indices.dtype == dtype and matrix.indptr.dtype == dtype:
        return matrix
    return sp.csr_array(
        (matrix.data, matrix.indices.astype(dtype), matrix.indptr.astype(dtype)),
        shape=matrix.shape,
    )


def connectivity(matrix: sp.csr_array) -> bool:
    if matrix.shape[0] <= 1:
        return True
    return connected_components(matrix, directed=False, return_labels=False) == 1


def reference_csr_from_edges(n, u, v) -> tuple[sp.csr_array, bool]:
    u, v = validate_edge_arrays(n, u, v)
    a = np.minimum(u, v).astype(np.int64)
    b = np.maximum(u, v).astype(np.int64)
    keys = np.unique(a * np.int64(n) + b)
    a, b = keys // n, keys % n
    dtype = index_dtype_for(n)
    rows = np.concatenate([a, b]).astype(dtype)
    cols = np.concatenate([b, a]).astype(dtype)
    matrix = policy_dtype(
        sp.csr_array(
            (np.ones(rows.size, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
    )
    return matrix, connectivity(matrix)


def reference_stack(matrices) -> sp.csr_array:
    if len(matrices) == 1:
        return matrices[0]
    return policy_dtype(sp.csr_array(sp.block_diag(matrices, format="csr")))


def assert_same_csr(actual: sp.csr_array, expected: sp.csr_array) -> None:
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert actual.has_sorted_indices == expected.has_sorted_indices
    assert actual.has_canonical_format == expected.has_canonical_format


@st.composite
def edge_arrays(draw, max_n: int = 24):
    """``(n, u, v)`` with duplicates in both orientations and isolated
    or disconnected nodes; ``n`` in {1, 2} and empty edge lists are
    drawn often."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, max_n)))
    if n == 1:
        return n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = draw(st.lists(pair, max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=n)) if edges else []
    edges = edges + [(b, a) for a, b in repeats] + repeats[: len(repeats) // 2]
    edges = draw(st.permutations(edges))
    array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return n, array[:, 0], array[:, 1]


class TestCsrFromEdges:
    @settings(max_examples=300, deadline=None)
    @given(edge_arrays())
    def test_matches_reference(self, case):
        n, u, v = case
        adjacency = csr_from_edges(n, u, v)
        matrix, connected = reference_csr_from_edges(n, u, v)
        assert_same_csr(adjacency.matrix, matrix)
        assert adjacency.connected is connected

    @settings(max_examples=100, deadline=None)
    @given(edge_arrays())
    def test_lower_graph_matches_networkx_lowering(self, case):
        n, u, v = case
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(zip(u.tolist(), v.tolist()))
        matrix = policy_dtype(
            nx.to_scipy_sparse_array(
                graph, nodelist=range(n), dtype=np.float64, format="csr"
            )
        )
        adjacency = lower_graph(graph)
        assert_same_csr(adjacency.matrix, matrix)
        assert adjacency.connected is connectivity(matrix)

    def test_large_keys_do_not_overflow(self):
        n = 46341  # n * n no longer fits int32
        u = np.arange(1, n)
        v = np.zeros(n - 1, dtype=np.int64)
        adjacency = csr_from_edges(n, u, v)
        matrix, connected = reference_csr_from_edges(n, u, v)
        assert_same_csr(adjacency.matrix, matrix)
        assert adjacency.connected is connected is True

    @pytest.mark.parametrize(
        "n, u, v, message",
        [
            (4, [0, 4], [1, 2], "edge endpoint 4 outside the process indices 0..3"),
            (4, [0, -1], [1, 2], "edge endpoint -1 outside the process indices 0..3"),
            (
                4,
                [0, 2, 3],
                [1, 2, 3],
                "self-loop at node(s) [2, 3]; a process is never its own "
                "neighbour",
            ),
            (4, [0, 1], [1], "edge arrays disagree in length (2 vs 1)"),
        ],
    )
    def test_topology_errors(self, n, u, v, message):
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            csr_from_edges(n, np.array(u), np.array(v))


class TestStackAdjacencies:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(edge_arrays(max_n=12), min_size=1, max_size=16))
    def test_matches_block_diag(self, cases):
        parts = [csr_from_edges(n, u, v) for n, u, v in cases]
        stacked = stack_adjacencies(parts)
        assert_same_csr(
            stacked.matrix, reference_stack([part.matrix for part in parts])
        )
        if len(parts) > 1:
            assert stacked.connected is None


#: ``LABEL_MAX_ENTRIES`` values forcing each per-lane connectivity
#: method: component labels for every stack, or the rooted BFS for every
#: stack.
CONNECTIVITY_METHODS = {"labels": 2**62, "rooted-bfs": 0}


def fused_matches_stacked(cases, method: str) -> None:
    parts = [csr_from_edges(n, u, v) for n, u, v in cases]
    expected = stack_adjacencies(parts)
    edges = [validate_edge_arrays(n, u, v) for n, u, v in cases]
    with mock.patch.object(
        csr, "LABEL_MAX_ENTRIES", CONNECTIVITY_METHODS[method]
    ):
        adjacency, connected = csr_from_lane_edges(
            [n for n, _, _ in cases], edges
        )
    assert_same_csr(adjacency.matrix, expected.matrix)
    assert adjacency.connected is expected.connected
    assert connected.dtype == bool
    assert connected.tolist() == [part.connected for part in parts]


class TestCsrFromLaneEdges:
    @pytest.mark.parametrize("method", sorted(CONNECTIVITY_METHODS))
    @settings(max_examples=150, deadline=None)
    @given(cases=st.lists(edge_arrays(max_n=12), min_size=1, max_size=16))
    def test_matches_stacked_lane_builds(self, method, cases):
        fused_matches_stacked(cases, method)

    @pytest.mark.parametrize("method", sorted(CONNECTIVITY_METHODS))
    @settings(max_examples=50, deadline=None)
    @given(case=edge_arrays())
    def test_single_lane_is_the_plain_build(self, method, case):
        fused_matches_stacked([case], method)

    @pytest.mark.parametrize("method", sorted(CONNECTIVITY_METHODS))
    def test_isolated_and_edgeless_lanes(self, method):
        empty = np.zeros(0, dtype=np.int64)
        cases = [
            (1, empty, empty),
            (3, empty, empty),
            (2, np.array([0, 1, 0]), np.array([1, 0, 1])),
            (1, empty, empty),
        ]
        fused_matches_stacked(cases, method)

    def test_large_stack_keys_do_not_overflow(self):
        # 2 x 30,000 stacked nodes: keys reach 3.6e9, past int32, and
        # the stack is large enough for the rooted BFS by default.
        n = 30_000
        path = (np.arange(n - 1), np.arange(1, n))
        split = (np.arange(1, n - 1), np.arange(2, n))
        fused_matches_stacked([(n, *path), (n, *split)], "rooted-bfs")
        edges = [validate_edge_arrays(n, *path), validate_edge_arrays(n, *split)]
        adjacency, connected = csr_from_lane_edges([n, n], edges)
        assert adjacency.matrix.nnz >= csr.LABEL_MAX_ENTRIES
        assert connected.tolist() == [True, False]

    def test_counters(self):
        pair = (np.array([0]), np.array([1]))
        registry = MetricsRegistry()
        with use_registry(registry):
            csr_from_lane_edges([2], [pair])
            csr_from_lane_edges([2, 2, 2], [pair, pair, pair])
        counters = registry.snapshot()["counters"]
        assert counters["adjacency.builds"] == 2
        assert counters["adjacency.native_builds"] == 2
        assert counters["adjacency.stack_builds"] == 1

    @pytest.mark.parametrize(
        "sizes, pairs, message",
        [
            ([], 0, "at least one lane"),
            ([2, 2], 1, "one edge pair per lane"),
            ([2, 0], 2, "at least one node"),
        ],
    )
    def test_bad_lane_lists_rejected(self, sizes, pairs, message):
        pair = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            csr_from_lane_edges(sizes, [pair] * pairs)
