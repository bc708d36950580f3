"""Tests for the batched random-connected draw and the stacked validator.

:meth:`RandomConnectedAdversary.edges_batch` draws several lanes' round
at once and :meth:`DynamicGraph.lane_edges` hands a block's round to the
fast engine, validated once per batch group by
:func:`repro.networks.csr.validate_lane_edges`.  Every lane must come
out exactly as its own ``edges(round)`` does: same values, same order,
same dtype.  The per-lane path is the oracle.
"""

from __future__ import annotations

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counting.drain import (
    count_milani_mosteiro,
    count_milani_mosteiro_batch,
)
from repro.networks import DynamicGraph, precompile_schedule
from repro.networks.csr import validate_edge_arrays, validate_lane_edges
from repro.networks.generators import random_dynamic
from repro.networks.generators.markov import edge_markov_network
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.simulation.errors import TopologyError

PROBABILITIES = (0.0, 0.1, 0.5, 1.0)


def assert_same_edges(actual, expected) -> None:
    assert len(actual) == len(expected)
    for (u, v), (want_u, want_v) in zip(actual, expected):
        assert u.dtype == want_u.dtype and v.dtype == want_v.dtype
        np.testing.assert_array_equal(u, want_u)
        np.testing.assert_array_equal(v, want_v)


def split(u, v, bounds):
    return [
        (u[lo:hi], v[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


class TestEdgesBatch:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.sampled_from(PROBABILITIES),
        seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
        round_no=st.integers(0, 500),
    )
    def test_equals_per_lane_edges(self, n, p, seeds, round_no):
        adversaries = [
            RandomConnectedAdversary(n, seed=seed, extra_edge_p=p)
            for seed in seeds
        ]
        u, v, bounds = RandomConnectedAdversary.edges_batch(
            adversaries, round_no
        )
        assert bounds[0] == 0 and bounds[-1] == u.size == v.size
        assert_same_edges(
            split(u, v, bounds),
            [adversary.edges(round_no) for adversary in adversaries],
        )

    def test_peak_memory_within_one_pair_draw_plus_output(self):
        lanes, n, p = 8, 400, 0.1
        adversaries = [
            RandomConnectedAdversary(n, seed=seed, extra_edge_p=p)
            for seed in range(lanes)
        ]
        # Resolve the pair template (kept by the adversaries) untraced.
        RandomConnectedAdversary.edges_batch(adversaries, 0)
        tracemalloc.start()
        try:
            u, v, bounds = RandomConnectedAdversary.edges_batch(adversaries, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_pair_draw = 8 * (n - 1 + n * (n - 1) // 2)
        output = u.nbytes + v.nbytes + bounds.nbytes
        assert peak <= one_pair_draw + output


class TestPairTemplates:
    def test_each_size_builds_its_template_once(self, monkeypatch):
        calls = []
        triu_indices = np.triu_indices

        def counting(*args, **kwargs):
            calls.append(args)
            return triu_indices(*args, **kwargs)

        monkeypatch.setattr(random_dynamic, "_PAIR_TEMPLATES", {})
        monkeypatch.setattr(random_dynamic.np, "triu_indices", counting)
        graphs = [
            RandomConnectedAdversary(n, seed=n).as_dynamic_graph()
            for n in range(3, 13)
        ]
        for round_no in range(40):
            DynamicGraph.lane_edges(graphs, round_no)
        assert len(calls) == 10


def mixed_block(seed: int) -> list:
    """Random-connected lanes of two batch groups and a group of one,
    interleaved with edge-Markov, held and precompiled lanes."""
    rng = np.random.default_rng(seed)
    held = DynamicGraph.from_graphs([nx.path_graph(5), nx.star_graph(4)])
    return [
        RandomConnectedAdversary(6, seed=int(rng.integers(1000))).as_dynamic_graph(),
        edge_markov_network(7, seed=seed),
        RandomConnectedAdversary(9, seed=seed, extra_edge_p=0.5).as_dynamic_graph(),
        RandomConnectedAdversary(6, seed=int(rng.integers(1000))).as_dynamic_graph(),
        held,
        RandomConnectedAdversary(9, seed=seed + 1, extra_edge_p=0.5).as_dynamic_graph(),
        precompile_schedule(
            RandomConnectedAdversary(5, seed=seed).as_dynamic_graph(), 3
        ),
        RandomConnectedAdversary(6, seed=int(rng.integers(1000))).as_dynamic_graph(),
        RandomConnectedAdversary(4, seed=seed, extra_edge_p=1.0).as_dynamic_graph(),
    ]


class TestLaneEdges:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**4), rounds=st.integers(1, 12))
    def test_mixed_block_equals_per_graph_edges(self, seed, rounds):
        graphs = mixed_block(seed)
        oracle = mixed_block(seed)
        for round_no in range(rounds):
            assert_same_edges(
                DynamicGraph.lane_edges(graphs, round_no),
                [graph.edges(round_no) for graph in oracle],
            )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.sampled_from(PROBABILITIES),
        lanes=st.integers(1, 5),
        round_no=st.integers(0, 100),
    )
    def test_one_group_equals_per_graph_edges(self, n, p, lanes, round_no):
        graphs = [
            RandomConnectedAdversary(n, seed=seed, extra_edge_p=p).as_dynamic_graph()
            for seed in range(lanes)
        ]
        oracle = [
            RandomConnectedAdversary(n, seed=seed, extra_edge_p=p).as_dynamic_graph()
            for seed in range(lanes)
        ]
        assert_same_edges(
            DynamicGraph.lane_edges(graphs, round_no),
            [graph.edges(round_no) for graph in oracle],
        )

    def test_batched_lanes_bypass_the_edge_cache(self, monkeypatch):
        # A batch group is drawn and validated as one stack: no lane goes
        # through its own edges(), so no lane's round memo is filled.
        from repro.networks import csr_native

        calls = []
        monkeypatch.setattr(
            csr_native,
            "validate_edge_arrays",
            lambda *args: calls.append(args) or validate_edge_arrays(*args),
        )
        graphs = [
            RandomConnectedAdversary(8, seed=seed).as_dynamic_graph()
            for seed in range(3)
        ]
        tracemalloc.start()
        try:
            DynamicGraph.lane_edges(graphs, 0)
            warm = tracemalloc.get_traced_memory()[0]
            for round_no in range(1, 100):
                DynamicGraph.lane_edges(graphs, round_no)
            settled = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert settled - warm < 32 * 1024

    def test_group_of_one_goes_through_edges(self):
        graph = RandomConnectedAdversary(8, seed=1).as_dynamic_graph()
        (edges,) = DynamicGraph.lane_edges([graph], 3)
        assert edges is graph.edges(3)

    def test_invalid_lane_is_named(self):
        class Looping:
            """A batchable provider whose seed-1 lane has a self-loop."""

            def __init__(self, seed):
                self.seed = seed
                self.batch_key = "looping"

            def edges(self, round_no):
                u = np.array([0, 1], dtype=np.int64)
                return u, np.array([1, 1 if self.seed == 1 else 2])

            @staticmethod
            def edges_batch(owners, round_no):
                pairs = [owner.edges(round_no) for owner in owners]
                bounds = np.arange(len(owners) + 1) * 2
                return (
                    np.concatenate([u for u, _ in pairs]),
                    np.concatenate([v for _, v in pairs]),
                    bounds,
                )

        graphs = [
            DynamicGraph(3, Looping(0).edges),
            RandomConnectedAdversary(3, seed=0).as_dynamic_graph(),
            DynamicGraph(3, Looping(1).edges),
        ]
        with pytest.raises(TopologyError, match=r"^lane 2: self-loop at node\(s\) \[1\]"):
            DynamicGraph.lane_edges(graphs, 0)


class TestValidateLaneEdges:
    SIZES = (4, 6, 5)

    def stack(self, lanes):
        bounds = np.concatenate(([0], np.cumsum([len(u) for u, _ in lanes])))
        u = np.concatenate([np.asarray(u, dtype=np.int64) for u, _ in lanes])
        v = np.concatenate([np.asarray(v, dtype=np.int64) for _, v in lanes])
        return u, v, bounds

    def test_valid_stack_comes_back_in_policy_dtype(self):
        lanes = [([0, 1, 2], [1, 2, 3]), ([0, 4], [5, 1]), ([3], [4])]
        u, v, bounds = self.stack(lanes)
        out_u, out_v = validate_lane_edges(self.SIZES, u, v, bounds)
        assert out_u.dtype == out_v.dtype == np.int32
        np.testing.assert_array_equal(out_u, u)
        np.testing.assert_array_equal(out_v, v)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (([0, 5], [1, 2]), r"^lane 1: edge endpoint 5 outside the process indices 0\.\.4$"),
            (([0, -1], [1, 2]), r"^lane 1: edge endpoint -1 outside"),
            (([0, 3], [1, 3]), r"^lane 1: self-loop at node\(s\) \[3\]"),
        ],
    )
    def test_invalid_lane_is_named(self, bad, message):
        # Lane 1 has 5 nodes; lane 0 has 6, so its endpoint 5 is valid.
        u, v, bounds = self.stack([([0, 5], [1, 2]), bad, ([0], [1])])
        with pytest.raises(TopologyError, match=message):
            validate_lane_edges((6, 5, 3), u, v, bounds)

    def test_labels_name_lanes(self):
        u, v, bounds = self.stack([([0], [1]), ([2], [2])])
        with pytest.raises(TopologyError, match=r"^lane 7: self-loop"):
            validate_lane_edges((4, 4), u, v, bounds, lanes=[3, 7])

    def test_one_lane_reads_as_validate_edge_arrays(self):
        u, v = np.array([0, 9]), np.array([1, 2])
        with pytest.raises(TopologyError) as single:
            validate_edge_arrays(4, u, v)
        with pytest.raises(TopologyError) as stacked:
            validate_lane_edges((4,), u, v, (0, 2))
        assert str(single.value) == str(stacked.value)
        assert str(single.value) == (
            "edge endpoint 9 outside the process indices 0..3"
        )

    def test_lengths_are_checked(self):
        with pytest.raises(TopologyError, match="disagree in length"):
            validate_lane_edges((4, 4), np.array([0, 1]), np.array([1]), (0, 1, 2))
        with pytest.raises(TopologyError, match="lane bounds cover 3"):
            validate_lane_edges((4, 4), np.array([0, 1]), np.array([1, 2]), (0, 1, 3))


class TestIntegerEndpoints:
    def test_fractional_floats_are_refused(self):
        # Truncation would have built the path 0-1-2-3.
        with pytest.raises(TopologyError, match="not an integer node index"):
            validate_edge_arrays(4, [0.5, 1.2, 2.0], [1.9, 2.4, 3.0])

    def test_booleans_are_refused(self):
        mask = np.array([True, False, True])
        with pytest.raises(TopologyError, match="booleans"):
            validate_edge_arrays(4, mask, ~mask)

    def test_empty_lists_pass(self):
        u, v = validate_edge_arrays(4, [], [])
        assert u.size == v.size == 0
        assert u.dtype == v.dtype == np.int32

    def test_integral_floats_pass(self):
        u, v = validate_edge_arrays(4, np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        np.testing.assert_array_equal(u, [0, 1])
        np.testing.assert_array_equal(v, [1, 3])
        assert u.dtype == np.int32

    def test_non_finite_floats_are_refused(self):
        with pytest.raises(TopologyError, match="not an integer node index"):
            validate_edge_arrays(4, [0.0, np.inf], [1.0, 2.0])


class TestDrainDifferential:
    def test_fast_batch_equals_object_on_mixed_sizes(self):
        specs = [(3, 11), (5, 12), (8, 13), (5, 14), (8, 15), (3, 16), (6, 17)]

        def networks():
            return [
                RandomConnectedAdversary(n, seed=seed).as_dynamic_graph()
                for n, seed in specs
            ]

        fast = count_milani_mosteiro_batch(networks())
        obj = [
            count_milani_mosteiro(network, backend="object")
            for network in networks()
        ]
        assert [outcome.count for outcome in fast] == [n for n, _ in specs]
        assert [
            (o.count, o.output_round, o.rounds, o.detail) for o in fast
        ] == [(o.count, o.output_round, o.rounds, o.detail) for o in obj]
