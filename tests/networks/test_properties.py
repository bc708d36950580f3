"""Tests for dynamic graph property verifiers."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.figures import paper_figure1
from repro.networks.generators.pd import random_pd_network
from repro.networks.generators.stars import star_network
from repro.networks.properties import (
    dynamic_diameter,
    flood_completion_time,
    is_interval_connected,
    pd_layers,
    persistent_distances,
    verify_pd,
)
from repro.simulation.errors import ModelError


def static(graph):
    return DynamicGraph.from_graphs([graph])


class TestIntervalConnectivity:
    def test_connected_static(self):
        assert is_interval_connected(static(nx.path_graph(4)), 5)

    def test_disconnected_detected(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        graph.add_edge(0, 1)
        assert not is_interval_connected(static(graph), 1)


class TestPersistentDistances:
    def test_static_graph_distances(self):
        distances = persistent_distances(static(nx.path_graph(4)), 0, 3)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_changing_distances_return_none(self):
        g0 = nx.path_graph(3)
        g1 = nx.Graph([(0, 1), (0, 2)])
        graph = DynamicGraph.from_graphs([g0, g1])
        assert persistent_distances(graph, 0, 2) is None

    def test_unreachable_node_returns_none(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        graph.add_edge(0, 1)
        assert persistent_distances(static(graph), 0, 1) is None

    def test_figure1_is_pd2(self):
        figure = paper_figure1()
        distances = verify_pd(figure.graph, 0, 2, 6)
        assert distances[figure.v0] == 2
        assert distances[figure.v3] == 2

    def test_verify_pd_rejects_deep_layers(self):
        with pytest.raises(ModelError, match="persistent distance"):
            verify_pd(static(nx.path_graph(5)), 0, 2, 2)

    def test_verify_pd_rejects_nonpersistent(self):
        g0 = nx.path_graph(3)
        g1 = nx.Graph([(0, 1), (0, 2)])
        graph = DynamicGraph.from_graphs([g0, g1])
        with pytest.raises(ModelError, match="persistent"):
            verify_pd(graph, 0, 2, 2)

    def test_pd_layers_partition(self):
        network, expected_layers = random_pd_network([3, 5], seed=1)
        layers = pd_layers(network, 0, 2, 5)
        assert layers == expected_layers
        assert sum(len(layer) for layer in layers) == network.n


class TestFlooding:
    def test_star_floods_in_one_round(self):
        star = star_network(6)
        assert flood_completion_time(star, 0) == 1

    def test_star_leaf_floods_in_two_rounds(self):
        star = star_network(6)
        assert flood_completion_time(star, 3) == 2

    def test_path_flood_time(self):
        graph = static(nx.path_graph(5))
        assert flood_completion_time(graph, 0) == 4
        assert flood_completion_time(graph, 2) == 2

    def test_start_round_matters(self):
        figure = paper_figure1()
        # The flood followed by the paper: from v0 at round 0, 4 rounds.
        assert flood_completion_time(figure.graph, figure.v0, 0) == 4

    def test_flood_timeout(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(2))
        with pytest.raises(ModelError, match="did not complete"):
            flood_completion_time(static(graph), 0, horizon=10)


class TestDynamicDiameter:
    def test_star(self):
        assert dynamic_diameter(star_network(5)) == 2

    def test_path_equals_graph_diameter(self):
        assert dynamic_diameter(static(nx.path_graph(6))) == 5

    def test_figure1_is_4(self):
        figure = paper_figure1()
        assert dynamic_diameter(figure.graph, start_rounds=3) == 4

    def test_sources_subset(self):
        star = star_network(5)
        assert dynamic_diameter(star, sources=[0]) == 1

    def test_random_pd_bounded_by_2h(self):
        network, _layers = random_pd_network([4, 6, 5], seed=3)
        measured = dynamic_diameter(network, start_rounds=2)
        assert measured <= 2 * 3

    def test_each_round_is_read_once_per_start_round(self):
        # All sources flood side by side, so a fresh-topology network
        # (which remembers only its last round) builds each round once.
        graphs = [nx.path_graph(6), nx.star_graph(5), nx.cycle_graph(6)]
        reads = []
        network = DynamicGraph(
            6,
            lambda round_no: (
                reads.append(round_no)
                or tuple(np.array(graphs[round_no % 3].edges).T)
            ),
        )
        assert dynamic_diameter(network, start_rounds=2) == 4
        assert reads == [0, 1, 2, 3, 1, 2, 3]
