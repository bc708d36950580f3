"""Tests for CSR-native dynamic topologies (repro.networks.csr_native).

Covers the edge-array provider protocol (:class:`DynamicGraph`),
precompiled schedules, the CSR view == networkx view equivalence for
every CSR-native family, object == fast differential runs on top of
them, and the bounded-memory contract for long fresh-graph-per-round
simulations.
"""

from __future__ import annotations

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.adversaries.worst_case import worst_case_pd2_network
from repro.core.counting.flooding import flood_time_via_protocol
from repro.core.counting.gossip import gossip_size_estimates
from repro.networks import (
    DynamicGraph,
    DynamicMultigraph,
    mdbl_to_pd2,
    precompile_schedule,
)
from repro.networks.generators.geometric import random_waypoint_network
from repro.networks.generators.markov import edge_markov_network
from repro.networks.generators.pd import random_pd_network
from repro.networks.generators.random_dynamic import (
    RandomConnectedAdversary,
    random_connected_edges,
)
from repro.networks.generators.t_interval import t_interval_network
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.simulation.errors import TopologyError


def ring_provider(n):
    def provider(round_no):
        u = np.arange(n, dtype=np.int64)
        return u, (u + 1) % n

    return provider


def family_networks(seed=5):
    """One instance per CSR-native family, labelled for test ids."""
    return {
        "arbitrary": RandomConnectedAdversary(
            11, seed=seed
        ).as_dynamic_graph(),
        "t-interval": t_interval_network(10, 3, seed=seed),
        "markov": edge_markov_network(12, seed=seed),
        "pd": random_pd_network(
            [3, 4, 2], seed=seed, extra_edge_p=0.3, intra_layer_p=0.2
        )[0],
        "worst-case-precompiled": worst_case_pd2_network(
            6, precompiled=True
        )[0],
    }


class TestCSRDynamicGraph:
    def test_csr_matches_networkx_view(self):
        network = DynamicGraph(5, ring_provider(5))
        for round_no in range(3):
            dense = network.to_csr(round_no).matrix.toarray()
            reference = nx.to_numpy_array(
                network.at(round_no), nodelist=range(5)
            )
            assert np.array_equal(dense, reference)

    def test_edges_and_csr_are_memoized(self):
        network = DynamicGraph(6, ring_provider(6))
        assert network.edges(2) is network.edges(2)
        assert network.at(2) is network.at(2)
        # to_csr rebuilds from the memoized edges every call.
        assert np.array_equal(
            network.to_csr(2).matrix.toarray(),
            network.to_csr(2).matrix.toarray(),
        )

    def test_negative_round_rejected(self):
        network = DynamicGraph(4, ring_provider(4))
        with pytest.raises(ValueError, match="start at 0"):
            network.to_csr(-1)

    def test_out_of_range_endpoint_rejected(self):
        def provider(round_no):
            return np.array([0, 9]), np.array([1, 2])

        with pytest.raises(TopologyError, match="outside"):
            DynamicGraph(4, provider).to_csr(0)

    def test_self_loop_rejected(self):
        def provider(round_no):
            return np.array([0, 2]), np.array([1, 2])

        with pytest.raises(TopologyError, match="self-loop"):
            DynamicGraph(4, provider).to_csr(0)

    def test_mismatched_lengths_rejected(self):
        def provider(round_no):
            return np.array([0, 1]), np.array([1])

        with pytest.raises(TopologyError, match="length"):
            DynamicGraph(4, provider).edges(0)

    def test_duplicate_and_reversed_edges_collapse(self):
        def provider(round_no):
            return np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1])

        adjacency = DynamicGraph(3, provider).to_csr(0)
        assert adjacency.edges == 2
        assert adjacency.connected

    def test_round_caches_are_bounded(self):
        network = RandomConnectedAdversary(8, seed=1).as_dynamic_graph()
        tracemalloc.start()
        try:
            for round_no in range(64):
                network.to_csr(round_no)
                network.at(round_no)
            warm = tracemalloc.get_traced_memory()[0]
            for round_no in range(64, 192):
                network.to_csr(round_no)
                network.at(round_no)
            settled = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert settled - warm < 32 * 1024

    def test_eviction_counter_increments(self):
        # A new round key replaces the remembered round: reading an
        # earlier round again calls the provider again.
        calls = []

        def provider(round_no):
            calls.append(round_no)
            return ring_provider(5)(round_no)

        network = DynamicGraph(5, provider)
        graph = network.at(0)
        assert network.at(0) is graph
        network.edges(1)
        assert network.at(0) is not graph
        assert calls == [0, 1, 0]

class TestPrecompiledSchedules:
    def source(self, n=6, seed=3, calls=None):
        def provider(round_no):
            if calls is not None:
                calls.append(round_no)
            return random_connected_edges(
                n, np.random.default_rng([seed, round_no]), extra_edge_p=0.2
            )

        return DynamicGraph(n, provider, name="source")

    def test_prefix_matches_source(self):
        source = self.source()
        compiled = precompile_schedule(source, 4)
        for round_no in range(4):
            assert np.array_equal(
                compiled.to_csr(round_no).matrix.toarray(),
                source.to_csr(round_no).matrix.toarray(),
            )

    def test_hold_repeats_last_round(self):
        compiled = precompile_schedule(self.source(), 3, extend="hold")
        assert np.array_equal(
            compiled.to_csr(7).matrix.toarray(),
            compiled.to_csr(2).matrix.toarray(),
        )
        assert compiled.at(9) is compiled.at(2)

    def test_cycle_wraps(self):
        source = self.source()
        compiled = precompile_schedule(source, 3, extend="cycle")
        assert np.array_equal(
            compiled.to_csr(4).matrix.toarray(),
            compiled.to_csr(1).matrix.toarray(),
        )
        assert np.array_equal(
            compiled.to_csr(5).matrix.toarray(),
            source.to_csr(2).matrix.toarray(),
        )

    def test_strict_raises_past_prefix(self):
        compiled = precompile_schedule(self.source(), 3, extend="strict")
        compiled.to_csr(2)
        with pytest.raises(TopologyError, match="precompiled"):
            compiled.to_csr(3)

    def test_non_native_source_supported(self):
        graphs = [nx.path_graph(4), nx.cycle_graph(4)]
        source = DynamicGraph.from_graphs(graphs)
        compiled = precompile_schedule(source, 2)
        for round_no in range(2):
            assert np.array_equal(
                compiled.to_csr(round_no).matrix.toarray(),
                nx.to_numpy_array(graphs[round_no], nodelist=range(4)),
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one round"):
            precompile_schedule(self.source(), 0)
        with pytest.raises(ValueError, match="extend"):
            precompile_schedule(self.source(), 2, extend="loop")

    def test_schedule_counter(self):
        calls = []
        registry = MetricsRegistry()
        with use_registry(registry):
            compiled = precompile_schedule(self.source(calls=calls), 2)
        # Every prefix round is read from the source once, at compile
        # time; later rounds are served from the compiled arrays.
        assert calls == [0, 1]
        for round_no in (0, 1, 5):
            compiled.edges(round_no)
        assert calls == [0, 1]
        counters = registry.snapshot()["counters"]
        assert counters["adjacency.precompiled_schedules"] == 1
        # Eager validation read every prefix round through edges(); no
        # CSR is built until a caller asks for one.
        assert "adjacency.native_builds" not in counters

    def test_invalid_round_rejected_at_compile_time(self):
        def provider(round_no):
            if round_no == 1:
                return np.array([0, 2]), np.array([1, 2])
            return np.array([0, 1]), np.array([1, 2])

        with pytest.raises(TopologyError, match="self-loop at node"):
            precompile_schedule(DynamicGraph(3, provider), 3)


class TestFamilyEquivalence:
    @pytest.mark.parametrize("family", sorted(family_networks()))
    def test_native_csr_equals_networkx(self, family):
        network = family_networks()[family]
        for round_no in range(6):
            adjacency = network.to_csr(round_no)
            graph = network.at(round_no)
            reference = nx.to_numpy_array(graph, nodelist=range(network.n))
            assert np.array_equal(adjacency.matrix.toarray(), reference)
            assert adjacency.connected == nx.is_connected(graph)
            assert np.array_equal(adjacency.degrees, reference.sum(axis=1))

    @pytest.mark.parametrize("family", sorted(family_networks()))
    def test_object_and_fast_backends_agree(self, family):
        object_rounds = flood_time_via_protocol(family_networks()[family], 0)
        fast_rounds = flood_time_via_protocol(
            family_networks()[family], 0, backend="fast"
        )
        assert object_rounds == fast_rounds

    def test_precompiled_worst_case_equals_plain(self):
        plain, _layout = worst_case_pd2_network(7)
        compiled, _layout = worst_case_pd2_network(7, precompiled=True)
        for round_no in range(10):
            assert np.array_equal(
                compiled.to_csr(round_no).matrix.toarray(),
                nx.to_numpy_array(plain.at(round_no), nodelist=range(plain.n)),
            )


class TestBoundedMemory:
    def test_long_fresh_graph_run_keeps_caches_bounded(self):
        adversary = RandomConnectedAdversary(256, seed=9, extra_edge_p=0.0)
        network = adversary.as_dynamic_graph()
        lengths, retained = [], []
        tracemalloc.start()
        try:
            for rounds in (10, 150):
                estimates = gossip_size_estimates(
                    adversary, 256, rounds, backend="fast"
                )
                lengths.append(len(estimates))
                del estimates
                retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert lengths == [10, 150]
        # The network remembers one round whatever the run's length
        # (about 2 KiB of edges here; numpy's small-buffer cache adds
        # some noise).
        assert retained[1] - retained[0] < 64 * 1024
        assert network.at(149) is network.at(149)

    def test_long_fresh_graph_run_memory_is_stable(self):
        # Hundreds more fresh rounds must not accumulate lowered
        # adjacencies (a cache that keeps every round leaks one CSR
        # matrix + edge arrays per round).
        network = RandomConnectedAdversary(24, seed=4).as_dynamic_graph()
        tracemalloc.start()
        try:
            for round_no in range(128):
                network.to_csr(round_no)
            warm = tracemalloc.get_traced_memory()[0]
            for round_no in range(128, 512):
                network.to_csr(round_no)
            settled = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert settled - warm < 256 * 1024


def _waypoint():
    return random_waypoint_network(12, seed=3)


def _pd2():
    multigraph = DynamicMultigraph.random(
        2, 10, 256, np.random.default_rng(2)
    )
    return mdbl_to_pd2(multigraph)[0]


@pytest.mark.parametrize(
    "build", [_waypoint, _pd2], ids=["random-waypoint", "mdbl-to-pd2"]
)
class TestBoundedFamilyCaches:
    """Families that used to cache every round's graph forever."""

    def test_caches_stay_within_capacity(self, build):
        # Only the last round is remembered: it is served again as the
        # same object, an earlier round is rebuilt (equal, not shared).
        network = build()
        graphs = [network.at(round_no) for round_no in range(128)]
        assert network.at(127) is graphs[127]
        again = network.at(126)
        assert again is not graphs[126]
        assert nx.utils.graphs_equal(again, graphs[126])

    def test_memory_is_flat_after_warm_up(self, build):
        network = build()
        tracemalloc.start()
        try:
            for round_no in range(128):
                network.at(round_no)
                network.to_csr(round_no)
            warm = tracemalloc.get_traced_memory()[0]
            for round_no in range(128, 256):
                network.at(round_no)
                network.to_csr(round_no)
            settled = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert settled - warm < 256 * 1024


class TestIndexDtypePolicy:
    """The int32-first CSR index policy (repro.networks.csr)."""

    def test_boundary(self):
        from repro.networks.csr import index_dtype_for

        assert index_dtype_for(0) == np.int32
        assert index_dtype_for(2**31 - 1) == np.int32
        assert index_dtype_for(2**31) == np.int64

    def test_csr_from_edges_uses_int32_when_small(self):
        from repro.networks.csr import csr_from_edges

        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        adjacency = csr_from_edges(4, u, v)
        assert adjacency.matrix.indices.dtype == np.int32
        assert adjacency.matrix.indptr.dtype == np.int32

    def test_lowered_graph_uses_int32_when_small(self):
        from repro.networks.csr import lower_graph

        adjacency = lower_graph(nx.path_graph(5))
        assert adjacency.matrix.indices.dtype == np.int32
        assert adjacency.matrix.indptr.dtype == np.int32

    def test_stacked_adjacency_keeps_policy_dtype(self):
        from repro.networks.csr import lower_graph, stack_adjacencies

        stacked = stack_adjacencies(
            [lower_graph(nx.path_graph(4)), lower_graph(nx.cycle_graph(5))]
        )
        assert stacked.matrix.indices.dtype == np.int32

    def test_dedup_keys_never_wrap_at_large_n(self):
        # a*n + b of the duplicate-collapse key can exceed int32 even
        # when every endpoint fits it; the key math must run in int64.
        from repro.networks.csr import csr_from_edges

        n = 2**20
        u = np.array([n - 2, n - 1, n - 2], dtype=np.int64)
        v = np.array([n - 1, n - 2, n - 1], dtype=np.int64)
        adjacency = csr_from_edges(n, u, v)
        assert adjacency.edges == 1  # all three collapse to one edge
        assert adjacency.matrix.indices.dtype == np.int32

    def test_out_of_range_endpoints_rejected_not_wrapped(self):
        # Validation must happen before any int32 narrowing: an
        # endpoint beyond the range would otherwise wrap into a valid-
        # looking index and pass the check.
        from repro.networks.csr import validate_edge_arrays

        u = np.array([0, 2**33], dtype=np.int64)
        v = np.array([1, 1], dtype=np.int64)
        with pytest.raises(TopologyError):
            validate_edge_arrays(4, u, v)

    def test_validated_arrays_come_back_in_policy_dtype(self):
        from repro.networks.csr import validate_edge_arrays

        u = np.array([0, 1], dtype=np.int64)
        v = np.array([1, 2], dtype=np.int64)
        out_u, out_v = validate_edge_arrays(3, u, v)
        assert out_u.dtype == np.int32
        assert out_v.dtype == np.int32

    def test_precompiled_store_uses_policy_dtype(self):
        network = precompile_schedule(
            DynamicGraph(6, ring_provider(6)), 3
        )
        for round_no in range(3):
            u, v = network.edges(round_no)
            assert u.dtype == np.int32
            assert v.dtype == np.int32
            assert network.to_csr(round_no).matrix.indices.dtype == np.int32
