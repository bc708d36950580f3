"""Tests for the edge-Markov, T-interval, and geometric generators."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.networks.generators.geometric import (
    RandomWaypointDynamicGraph,
    random_waypoint_network,
)
from repro.networks.generators.markov import (
    EdgeMarkovDynamicGraph,
    edge_markov_network,
)
from repro.networks.generators.t_interval import t_interval_network
from repro.networks.properties import (
    is_interval_connected,
    is_t_interval_connected,
)


class TestEdgeMarkov:
    def test_connected_every_round(self):
        network = edge_markov_network(15, seed=1)
        assert is_interval_connected(network, 20)

    def test_temporal_correlation(self):
        # With small flip probabilities most edges persist round to
        # round; overlap must exceed that of independent redraws.
        network = edge_markov_network(20, p_up=0.01, p_down=0.05, seed=2)
        first = set(map(frozenset, network.at(5).edges()))
        second = set(map(frozenset, network.at(6).edges()))
        overlap = len(first & second) / max(len(first), 1)
        assert overlap > 0.7

    def test_reproducible(self):
        a = edge_markov_network(10, seed=9)
        b = edge_markov_network(10, seed=9)
        for round_no in (0, 3, 7):
            assert set(a.at(round_no).edges()) == set(b.at(round_no).edges())

    def test_dynamics_change(self):
        network = edge_markov_network(12, p_up=0.2, p_down=0.5, seed=3)
        assert set(network.at(0).edges()) != set(network.at(4).edges())

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeMarkovDynamicGraph(1)
        with pytest.raises(ValueError):
            EdgeMarkovDynamicGraph(5, p_up=1.5)


class TestTInterval:
    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_window_property_holds(self, t):
        network = t_interval_network(12, t, seed=4)
        assert is_t_interval_connected(network, t, rounds=4 * t)

    def test_one_interval_special_case(self):
        network = t_interval_network(8, 1, seed=0)
        assert is_interval_connected(network, 8)

    def test_trees_rotate_across_blocks(self):
        network = t_interval_network(16, 2, seed=6, extra_edge_p=0.0)
        # Graphs within one block are equal; far-apart blocks differ.
        assert set(network.at(0).edges()) == set(network.at(1).edges())
        assert set(network.at(0).edges()) != set(network.at(8).edges())

    def test_each_block_tree_is_drawn_once(self, monkeypatch):
        # A sequential read keeps the current and previous block's
        # trees, so every block's tree is drawn exactly once although
        # each block reads two of them every round.
        from repro.networks.generators import t_interval

        draws = []
        real = t_interval.random_tree_edges

        def counting(n, rng):
            # The tree's stream: Philox counter [0, block, 0, 0].
            draws.append(int(rng.bit_generator.state["state"]["counter"][1]))
            return real(n, rng)

        monkeypatch.setattr(t_interval, "random_tree_edges", counting)
        network = t_interval_network(10, 3, seed=2)
        for round_no in range(30):
            network.at(round_no)
            network.edges(round_no)
        assert draws == list(range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            t_interval_network(1, 2)
        with pytest.raises(ValueError):
            t_interval_network(5, 0)
        with pytest.raises(ValueError):
            is_t_interval_connected(t_interval_network(5, 2), 0, 4)
        with pytest.raises(ValueError):
            is_t_interval_connected(t_interval_network(5, 2), 4, 2)

    def test_verifier_detects_violation(self):
        # Alternating disjoint trees are 1- but not 2-interval connected.
        from repro.networks.csr_native import DynamicGraph

        star_like = nx.star_graph(3)
        path_like = nx.path_graph(4)
        network = DynamicGraph.from_graphs(
            [star_like, path_like], extend="cycle"
        )
        assert is_interval_connected(network, 4)
        assert not is_t_interval_connected(network, 2, 4)


class TestRandomWaypoint:
    def test_connected_every_round(self):
        network = random_waypoint_network(14, seed=2)
        assert is_interval_connected(network, 15)

    def test_positions_move_gradually(self):
        walk = RandomWaypointDynamicGraph(10, step=0.05, seed=1)
        early = walk.positions(0)
        later = walk.positions(1)
        displacement = ((later - early) ** 2).sum(axis=1) ** 0.5
        assert displacement.max() <= 0.05 + 1e-9

    def test_positions_stay_in_unit_square(self):
        walk = RandomWaypointDynamicGraph(10, step=0.5, seed=3)
        for round_no in range(10):
            points = walk.positions(round_no)
            assert (points >= 0).all() and (points <= 1).all()

    def test_reproducible(self):
        a = random_waypoint_network(8, seed=7)
        b = random_waypoint_network(8, seed=7)
        assert set(a.at(5).edges()) == set(b.at(5).edges())

    def test_geometry_determines_edges(self):
        walk = RandomWaypointDynamicGraph(12, radius=0.3, seed=4)
        edges = zip(*walk.edges(0))
        points = walk.positions(0)
        for u, v in edges:
            distance = (((points[u] - points[v]) ** 2).sum()) ** 0.5
            # Either a geometric edge or a connectivity repair shortcut.
            assert distance <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWaypointDynamicGraph(1)
        with pytest.raises(ValueError):
            RandomWaypointDynamicGraph(5, radius=0.0)
