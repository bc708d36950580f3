"""Differential tests for the edges->CSR kernel and block-diagonal stacking.

The reference implementations below are the previous ones, kept here as
oracles: ``np.unique`` pair keys -> COO ``sp.csr_array`` ->
``connected_components`` for the build, ``sp.block_diag`` for the
stack.  The production kernels must match them bit for bit: the same
``indptr``/``indices``/``data`` arrays and dtypes, the same
``connected`` flag, and the same canonical-format flags.  The fused
multi-lane build is in turn held to per-lane builds stacked afterwards.

The parallel sparse product of a reused adjacency is held to
``matrix @ x`` bit for bit, and the protocols that use it to a run
pinned to one CPU.  These tests call scipy's private CSR kernels the
same way the product does, so a scipy release that changes their
signature fails here first.
"""

from __future__ import annotations

import multiprocessing
import re
import tracemalloc
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
    component_labels,
    csr_from_edges,
    csr_from_lane_edges,
    index_dtype_for,
    lower_graph,
    stack_adjacencies,
    validate_edge_arrays,
)
from repro.core.counting.gossip import gossip_size_estimates_batch
from repro.core.counting.token_ids import count_with_ids_batch
from repro.core.dissemination import disseminate_by_flooding_batch
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.random_dynamic import random_tree_edges
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


def boundary_edges(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A random tree on ``n`` nodes, plus edges at node ``n - 1`` and
    duplicates in both orientations, shuffled."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    tree_u = order[1:]
    tree_v = order[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
    last = n - 1
    extra_u = [last, 0, last, last - 1, last, n // 2]
    extra_v = [0, last, last - 1, last, n // 2, last]
    u = np.concatenate([tree_u, tree_v[:50], tree_u[:50], extra_u])
    v = np.concatenate([tree_v, tree_u[:50], tree_v[:50], extra_v])
    shuffle = rng.permutation(u.size)
    return u[shuffle], v[shuffle]


class TestPackedKeyWidth:
    """Keys are ``uint32`` through 65,536 stacked nodes, ``uint64`` past."""

    @pytest.mark.parametrize("n", [65_536, 65_537])
    def test_single_lane_at_the_switch(self, n):
        u, v = boundary_edges(n, seed=n)
        adjacency = csr_from_edges(n, u, v)
        matrix, connected = reference_csr_from_edges(n, u, v)
        assert_same_csr(adjacency.matrix, matrix)
        assert adjacency.connected is connected is True
        indptr, indices = adjacency.matrix.indptr, adjacency.matrix.indices
        assert {0, n - 2, n // 2} <= set(indices[indptr[-2] :].tolist())

    @pytest.mark.parametrize("sizes", [(32_768, 32_768), (32_768, 32_769)])
    @pytest.mark.parametrize("method", sorted(CONNECTIVITY_METHODS))
    def test_stack_crossing_the_switch(self, sizes, method):
        # Each lane alone packs into uint32; the second stack does not.
        cases = [
            (n, *boundary_edges(n, seed=index)) for index, n in enumerate(sizes)
        ]
        fused_matches_stacked(cases, method)
        adjacency, _ = csr_from_lane_edges(
            list(sizes), [validate_edge_arrays(*case) for case in cases]
        )
        expected = reference_stack(
            [reference_csr_from_edges(*case)[0] for case in cases]
        )
        assert_same_csr(adjacency.matrix, expected)

    def test_component_labels_past_the_switch(self):
        n = 65_537
        u, v = boundary_edges(n, seed=3)
        keep = (u != n - 1) & (v != n - 1)
        count, labels = component_labels(n, u[keep], v[keep])
        matrix, _ = reference_csr_from_edges(n, u[keep], v[keep])
        want_count, want = connected_components(matrix, directed=False)
        assert count == want_count >= 2
        assert np.array_equal(labels, want)

    @pytest.mark.parametrize(
        "build",
        [
            lambda n, u, v: csr_from_edges(n, u, v),
            lambda n, u, v: csr_from_lane_edges(
                [n // 2, n - n // 2], [(u, v), (u, v)]
            ),
            lambda n, u, v: component_labels(n, u, v),
        ],
        ids=["edges", "lanes", "labels"],
    )
    def test_keys_past_64_bits_refused_before_allocating(self, build):
        n = 2**32 + 1  # 33 bits per endpoint
        u, v = np.array([0, 1]), np.array([1, 2])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^4294967297 nodes need 66-bit"):
                build(n, u, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# -- parallel products -----------------------------------------------------


def assert_same_product(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def random_matrix(rows: int, entries: int, seed: int) -> sp.csr_array:
    """A ``rows x rows`` CSR with exactly ``entries`` random stored values."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(rows * rows, size=entries, replace=False)
    matrix = sp.csr_array(
        (rng.standard_normal(entries), (keys // rows, keys % rows)),
        shape=(rows, rows),
    )
    matrix.sort_indices()
    return matrix


def lane_stack() -> csr.CSRAdjacency:
    """Three random-tree lanes of 40, 1 and 60 nodes, and 5 isolated nodes."""
    sizes = [40, 1, 60, 5]
    edges = [random_tree_edges(n, np.random.default_rng(n)) for n in sizes[:3]]
    edges.append((np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
    adjacency, _ = csr_from_lane_edges(sizes, edges)
    return adjacency


def inputs(n: int, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "vector": rng.standard_normal(n),
        "column": rng.standard_normal((n, 1)),
        "two": rng.standard_normal((n, 2)),
        "five": rng.standard_normal((n, 5)),
        "strided-vector": rng.standard_normal((n, 3))[:, 1],
        "strided-two": rng.standard_normal((n, 4))[:, ::2],
        "fortran": np.asfortranarray(rng.standard_normal((n, 3))),
    }


def held(n: int, seed: int) -> DynamicGraph:
    u, v = random_tree_edges(n, np.random.default_rng(seed))
    return DynamicGraph(n, lambda round_no: (u, v), round_key=lambda round_no: 0)


@pytest.fixture
def split_everything(monkeypatch):
    """Split every reused product into three blocks of one entry or more."""
    monkeypatch.setattr(csr, "PARALLEL_MIN_ENTRIES", 2)
    monkeypatch.setattr(csr, "_WORKERS", 3)


def counted(fn, *args, **kwargs):
    registry = MetricsRegistry()
    with use_registry(registry):
        result = fn(*args, **kwargs)
    return result, registry.snapshot()["counters"].get("adjacency.parallel_products", 0)


class TestBlockedProduct:
    #: Lane offsets of :func:`lane_stack`: 0, 40, 41, 101, 106.
    CUTS = {
        "lane-edges": (0, 40, 41, 101, 106),
        "inside-lanes": (0, 17, 70, 106),
        "mixed": (0, 40, 55, 101, 103, 106),
        "isolated-block": (0, 101, 106),
        "one-row-blocks": tuple(range(107)),
        "one-block": (0, 106),
    }

    @pytest.mark.parametrize("cuts", CUTS.values(), ids=CUTS.keys())
    @pytest.mark.parametrize("name", inputs(1).keys())
    def test_matches_serial_product(self, cuts, name):
        matrix = lane_stack().matrix
        x = inputs(matrix.shape[0])[name]
        assert_same_product(csr._blocked_product(matrix, cuts, x), matrix @ x)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 50),
        density=st.floats(0.0, 0.5),
        columns=st.integers(0, 3),
        data=st.data(),
    )
    def test_any_cuts_match(self, rows, density, columns, data):
        entries = int(rows * rows * density)
        matrix = random_matrix(rows, entries, seed=rows + entries)
        inner = data.draw(st.lists(st.integers(0, rows), max_size=5))
        cuts = tuple(dict.fromkeys([0, *sorted(inner), rows]))
        shape = (rows,) if columns == 0 else (rows, columns)
        x = np.random.default_rng(columns).standard_normal(shape)
        assert_same_product(csr._blocked_product(matrix, cuts, x), matrix @ x)

    def test_int64_indices(self):
        matrix = lane_stack().matrix
        wide = sp.csr_array(
            (matrix.data, matrix.indices.astype(np.int64), matrix.indptr.astype(np.int64)),
            shape=matrix.shape,
        )
        x = inputs(matrix.shape[0])["two"]
        assert_same_product(csr._blocked_product(wide, (0, 50, 106), x), matrix @ x)


class TestRowCuts:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_balanced_by_entries(self, monkeypatch, workers):
        monkeypatch.setattr(csr, "_WORKERS", workers)
        matrix = random_matrix(1000, 45_000, seed=1)
        cuts = csr._row_cuts(matrix)
        assert cuts[0] == 0 and cuts[-1] == 1000 and len(cuts) == workers + 1
        assert list(cuts) == sorted(set(cuts))
        per_block = np.diff(matrix.indptr[list(cuts)])
        assert per_block.max() - per_block.min() <= 2 * np.diff(matrix.indptr).max()

    def test_one_block_below_the_constant_or_on_one_cpu(self, monkeypatch):
        small = random_matrix(400, csr.PARALLEL_MIN_ENTRIES - 1, seed=2)
        large = random_matrix(400, csr.PARALLEL_MIN_ENTRIES, seed=2)
        monkeypatch.setattr(csr, "_WORKERS", 2)
        assert csr._row_cuts(small) == (0, 400)
        assert len(csr._row_cuts(large)) == 3
        monkeypatch.setattr(csr, "_WORKERS", 1)
        assert csr._row_cuts(large) == (0, 400)

    @pytest.mark.parametrize("halves, blocks", [(2, 2), (3, 3), (7, 7), (70, 64)])
    def test_blocks_keep_half_the_constant_on_many_cpus(self, monkeypatch, halves, blocks):
        half = csr.PARALLEL_MIN_ENTRIES // 2
        monkeypatch.setattr(csr, "_WORKERS", 64)
        matrix = random_matrix(2000, halves * half + half - 1, seed=4)
        cuts = csr._row_cuts(matrix)
        assert len(cuts) == blocks + 1
        per_block = np.diff(matrix.indptr[list(cuts)])
        assert per_block.min() >= half - np.diff(matrix.indptr).max()


class TestAdjacencyProducts:
    @pytest.mark.parametrize("offset, split", [(-1, False), (0, True), (1, True)])
    @pytest.mark.parametrize("name", ["vector", "two"])
    def test_constant_boundary(self, monkeypatch, offset, split, name):
        monkeypatch.setattr(csr, "_WORKERS", 2)
        matrix = random_matrix(300, csr.PARALLEL_MIN_ENTRIES + offset, seed=3)
        adjacency = csr.CSRAdjacency(matrix, connected=None)
        x = inputs(300)[name]
        products = [counted(adjacency.matvec, x) for _ in range(3)]
        for product, _ in products:
            assert_same_product(product, matrix @ x)
        assert [count for _, count in products] == [0, int(split), int(split)]

    def test_first_product_serial_then_blocked(self, split_everything):
        adjacency = lane_stack()
        x = inputs(adjacency.n)["five"]
        first, first_count = counted(adjacency.matmul, x)
        second, second_count = counted(adjacency.matmul, x)
        assert (first_count, second_count) == (0, 1)
        assert_same_product(second, first)
        assert adjacency._cuts == csr._row_cuts(adjacency.matrix)

    @pytest.mark.parametrize(
        "x",
        [np.arange(106), np.ones((106, 2), dtype=np.float32), np.ones((106, 0))],
        ids=["int", "float32", "no-columns"],
    )
    def test_other_inputs_stay_serial(self, split_everything, x):
        adjacency = lane_stack()
        adjacency.matvec(np.ones(adjacency.n))
        product, count = counted(adjacency.matvec, x)
        assert count == 0
        assert_same_product(product, adjacency.matrix @ x)


def gossip_curves(seed: int = 1, rounds: int = 30) -> list[list[float]]:
    specs = [(held(n, seed + n), n) for n in (50, 80, 3)]
    return gossip_size_estimates_batch(specs, rounds)


def pinned(monkeypatch, fn, *args, **kwargs):
    """``fn``'s result with the process pinned to one CPU."""
    with monkeypatch.context() as patch:
        patch.setattr(csr, "_WORKERS", 1)
        return counted(fn, *args, **kwargs)


class TestProtocolsMatchOneCpu:
    def test_gossip_curves(self, monkeypatch, split_everything):
        split, split_count = counted(gossip_curves)
        serial, serial_count = pinned(monkeypatch, gossip_curves)
        assert split == serial
        assert (split_count, serial_count) == (29, 0)

    @pytest.mark.parametrize("budget", [None, 80])
    def test_dissemination(self, monkeypatch, split_everything, budget):
        jobs = [
            (held(60, 7), {0: 0, 11: 1, 42: 2}),
            (held(90, 8), {5: 0, 6: 0, 70: 3}),
        ]
        run = disseminate_by_flooding_batch
        split, split_count = counted(run, jobs, max_lane_nodes=budget)
        serial, serial_count = pinned(monkeypatch, run, jobs, max_lane_nodes=budget)
        assert split == serial
        assert split_count > 0 and serial_count == 0

    @pytest.mark.parametrize("budget", [None, 80])
    def test_token_ids(self, monkeypatch, split_everything, budget):
        jobs = [(held(60, 9), 60), (held(90, 10), 90)]
        run = count_with_ids_batch
        split, split_count = counted(run, jobs, max_lane_nodes=budget)
        serial, serial_count = pinned(monkeypatch, run, jobs, max_lane_nodes=budget)
        assert split == serial
        assert [outcome.count for outcome in split] == [60, 90]
        assert split_count > 0 and serial_count == 0


def _child_curves(send) -> None:
    send.send(gossip_curves())
    send.close()


def test_forked_child_runs_blocked_products(split_everything):
    """A child forked after the pool ran still gets its products done."""
    parent = gossip_curves()
    assert csr._pool is not None
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child_curves, args=(send,), daemon=True)
    child.start()
    send.close()
    try:
        assert receive.poll(60), "forked child hung on a blocked product"
        assert receive.recv() == parent
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
