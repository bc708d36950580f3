"""Tests for the DynamicGraph abstraction."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.networks.csr_native import DynamicGraph
from repro.simulation.engine import network_of
from repro.simulation.errors import ModelError, TopologyError


def path(n):
    return nx.path_graph(n)


def edges_of(graph):
    pairs = np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


class TestDynamicGraph:
    def test_provider_access_and_caching(self):
        calls = []

        def provider(round_no):
            calls.append(round_no)
            return edges_of(path(3))

        graph = DynamicGraph(3, provider)
        graph.at(0)
        graph.at(0)
        graph.at(1)
        assert calls == [0, 1]

    def test_validates_node_set(self):
        graph = DynamicGraph(3, lambda r: edges_of(path(4)))
        with pytest.raises(TopologyError, match="outside the process"):
            graph.at(0)

    def test_wrong_labels_reported_even_when_size_matches(self):
        # Three nodes, but labeled 10..12: the error must name the
        # offending labels, not just report a (correct-looking) size.
        shifted = nx.relabel_nodes(path(3), {0: 10, 1: 11, 2: 12})
        with pytest.raises(ModelError, match=r"unexpected labels \[10, 11, 12\]"):
            DynamicGraph.from_graphs([shifted])

    def test_missing_labels_reported(self):
        gapped = nx.relabel_nodes(path(3), {2: 3})
        with pytest.raises(ModelError, match=r"missing \[2\]"):
            DynamicGraph.from_graphs([gapped])

    def test_negative_round_rejected(self):
        graph = DynamicGraph.from_graphs([path(3)])
        with pytest.raises(ValueError):
            graph.at(-1)

    def test_topology_provider_interface(self):
        """Both engines take a dynamic graph as it is."""
        graph = DynamicGraph.from_graphs([path(3)])
        assert network_of(graph, 3) is graph
        assert graph.at(0).number_of_nodes() == 3

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            DynamicGraph(0, lambda r: edges_of(path(1)))


class TestFromGraphs:
    def test_hold_extension(self):
        g0, g1 = path(3), nx.cycle_graph(3)
        graph = DynamicGraph.from_graphs([g0, g1], extend="hold")
        assert set(graph.at(5).edges()) == set(g1.edges())

    def test_cycle_extension(self):
        g0, g1 = path(3), nx.cycle_graph(3)
        graph = DynamicGraph.from_graphs([g0, g1], extend="cycle")
        assert set(graph.at(2).edges()) == set(g0.edges())
        assert set(graph.at(3).edges()) == set(g1.edges())

    def test_strict_extension_raises(self):
        graph = DynamicGraph.from_graphs([path(3)], extend="strict")
        graph.at(0)
        with pytest.raises(TopologyError, match="strict"):
            graph.at(1)

    def test_snapshots_are_copies(self):
        original = path(3)
        graph = DynamicGraph.from_graphs([original])
        original.add_edge(0, 2)
        assert not graph.at(0).has_edge(0, 2)

    def test_mismatched_node_sets_rejected(self):
        with pytest.raises(ModelError, match="static"):
            DynamicGraph.from_graphs([path(3), path(4)])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            DynamicGraph.from_graphs([])

    def test_bad_extend_rule(self):
        with pytest.raises(ValueError):
            DynamicGraph.from_graphs([path(2)], extend="loop")

    def test_hold_repeats_last_graph_object(self):
        graph = DynamicGraph.from_graphs([path(3), nx.cycle_graph(3)])
        assert graph.at(2) is graph.at(99)

    def test_cycle_wraps_to_prefix_objects(self):
        graph = DynamicGraph.from_graphs(
            [path(3), nx.cycle_graph(3)], extend="cycle"
        )
        assert graph.at(4) is graph.at(0)
        assert graph.at(7) is graph.at(1)

    def test_strict_serves_full_prefix(self):
        graphs = [path(3), nx.cycle_graph(3), nx.star_graph(2)]
        graph = DynamicGraph.from_graphs(graphs, extend="strict")
        for round_no, expected in enumerate(graphs):
            assert set(graph.at(round_no).edges()) == set(expected.edges())

    def test_mismatched_node_labels_rejected(self):
        shifted = nx.relabel_nodes(path(3), {0: 10, 1: 11, 2: 12})
        with pytest.raises(ModelError, match="static"):
            DynamicGraph.from_graphs([path(3), shifted])

    def test_non_contiguous_labels_rejected_eagerly(self):
        # A shared-but-wrong node set like {1, 2, 3} used to slip
        # through construction and only explode at the first at() call;
        # now from_graphs validates {0..n-1} up front and names the
        # offending labels.
        shifted = nx.relabel_nodes(path(3), {0: 1, 1: 2, 2: 3})
        with pytest.raises(ModelError, match=r"unexpected labels \[3\]"):
            DynamicGraph.from_graphs([shifted, shifted.copy()])


class TestToCSR:
    def test_matches_graph(self):
        graph = DynamicGraph.from_graphs([path(4)])
        adjacency = graph.to_csr(0)
        assert adjacency.n == 4
        assert adjacency.edges == 3
        assert adjacency.connected is True
        assert list(adjacency.degrees) == [1, 2, 2, 1]

    def test_memoized_per_graph_object(self):
        graph = DynamicGraph.from_graphs([path(3)], extend="hold")
        assert np.array_equal(
            graph.to_csr(7).matrix.toarray(), graph.to_csr(0).matrix.toarray()
        )

    def test_cycle_extension_lowers_each_prefix_graph_once(self):
        prefix = [path(3), nx.cycle_graph(3)]
        graph = DynamicGraph.from_graphs(prefix, extend="cycle")
        for round_no in range(6):
            assert np.array_equal(
                graph.to_csr(round_no).matrix.toarray(),
                nx.to_numpy_array(prefix[round_no % 2], nodelist=range(3)),
            )

    def test_fresh_graphs_lowered_per_round(self):
        # Without a round_key every round is lowered from its own edges.
        graph = DynamicGraph(3, lambda r: edges_of(path(3)))
        expected = nx.to_numpy_array(path(3), nodelist=range(3))
        for round_no in (0, 1, 1):
            assert np.array_equal(
                graph.to_csr(round_no).matrix.toarray(), expected
            )

    def test_invalid_graph_rejected(self):
        loop = path(3)
        loop.add_edge(1, 1)
        graph = DynamicGraph.from_graphs([loop])
        with pytest.raises(TopologyError, match="self-loop"):
            graph.to_csr(0)


class TestExtendRulesOnBothBackends:
    """Differential: hold/cycle memoized lowering, both engines."""

    @pytest.mark.parametrize("extend", ["hold", "cycle"])
    def test_flood_times_agree(self, extend):
        from repro.core.counting.flooding import flood_time_via_protocol

        graphs = [path(5), nx.cycle_graph(5), nx.star_graph(4)]
        times = {}
        for backend in ("object", "fast"):
            network = DynamicGraph.from_graphs(graphs, extend=extend)
            times[backend] = flood_time_via_protocol(
                network, 2, max_rounds=32, backend=backend
            )
        assert times["object"] == times["fast"]

    @pytest.mark.parametrize("extend", ["hold", "cycle"])
    def test_fast_backend_lowers_each_prefix_graph_once(self, extend):
        from repro.core.counting.flooding import flood_time_via_protocol
        from repro.obs.metrics import MetricsRegistry, use_registry

        graphs = [path(4), nx.cycle_graph(4)]
        network = DynamicGraph.from_graphs(graphs, extend=extend)
        registry = MetricsRegistry()
        with use_registry(registry):
            flood_time_via_protocol(
                network, 0, max_rounds=32, backend="fast"
            )
        counters = registry.snapshot()["counters"]
        assert counters["adjacency.builds"] <= len(graphs)
