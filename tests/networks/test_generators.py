"""Tests for network generators (stars, PD layers, chains, random, figures)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.networks.generators.chains import chain_pd2_network
from repro.networks.generators.figures import paper_figure1, paper_figure2_multigraph
from repro.networks.generators.pd import random_pd_network
from repro.networks.generators.random_dynamic import (
    RandomConnectedAdversary,
    random_connected_graph,
    random_tree_edges,
)
from repro.networks.generators.stars import star_network
from repro.networks.multigraph import DynamicMultigraph
from repro.networks.properties import (
    is_interval_connected,
    persistent_distances,
    verify_pd,
)
from repro.simulation.errors import ModelError


class TestStars:
    def test_structure(self):
        star = star_network(5)
        graph = star.at(0)
        assert graph.degree(0) == 4
        assert all(graph.degree(node) == 1 for node in range(1, 5))

    def test_is_pd1(self):
        distances = verify_pd(star_network(6), 0, 1, 3)
        assert set(distances.values()) == {0, 1}

    def test_custom_leader(self):
        star = star_network(4, leader=2)
        assert star.at(0).degree(2) == 3

    def test_static_star_lowered_and_built_once(self):
        # Regression: the star used to be snapshotted and re-lowered
        # every round (10 builds, a new graph object per round).
        star = star_network(6)
        lowered = [star.to_csr(round_no) for round_no in range(10)]
        assert all(star.edges(round_no) is star.edges(0) for round_no in range(10))
        assert all(
            np.array_equal(adjacency.matrix.toarray(), lowered[0].matrix.toarray())
            for adjacency in lowered
        )
        assert star.at(0) is star.at(1)

    def test_too_small(self):
        with pytest.raises(ValueError):
            star_network(1)

    def test_bad_leader(self):
        with pytest.raises(ValueError):
            star_network(3, leader=5)


class TestRandomPD:
    def test_layers_and_distances(self):
        network, layers = random_pd_network([4, 7, 3], seed=5)
        assert [len(layer) for layer in layers] == [1, 4, 7, 3]
        distances = verify_pd(network, 0, 3, 6)
        for depth, layer in enumerate(layers):
            assert all(distances[node] == depth for node in layer)

    def test_connected(self):
        network, _layers = random_pd_network([5, 5], seed=2)
        assert is_interval_connected(network, 6)

    def test_reproducible(self):
        n1, _ = random_pd_network([3, 3], seed=11)
        n2, _ = random_pd_network([3, 3], seed=11)
        assert set(n1.at(4).edges()) == set(n2.at(4).edges())

    def test_different_seeds_differ(self):
        n1, _ = random_pd_network([6, 6], seed=1, extra_edge_p=0.5)
        n2, _ = random_pd_network([6, 6], seed=2, extra_edge_p=0.5)
        assert set(n1.at(0).edges()) != set(n2.at(0).edges())

    def test_restricted_model_has_no_intra_layer_edges(self):
        network, layers = random_pd_network([4, 6], seed=7, intra_layer_p=0.0)
        for round_no in range(4):
            graph = network.at(round_no)
            for layer in layers:
                members = set(layer)
                for node in layer:
                    assert not members & set(graph.neighbors(node))

    def test_intra_layer_edges_keep_pd(self):
        network, _layers = random_pd_network(
            [5, 5], seed=3, intra_layer_p=0.5
        )
        verify_pd(network, 0, 2, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_pd_network([])
        with pytest.raises(ValueError):
            random_pd_network([0])
        with pytest.raises(ValueError):
            random_pd_network([2], extra_edge_p=1.5)


class TestChains:
    def _core(self, n=3):
        return DynamicMultigraph(
            2, [[frozenset({1})], [frozenset({2})], [frozenset({1, 2})]][:n]
        )

    def test_layout(self):
        network, layout = chain_pd2_network(self._core(), 2)
        assert layout.chain == (1, 2)
        assert layout.hubs == (3, 4)
        assert layout.outer == (5, 6, 7)
        assert network.n == 8

    def test_outer_distance_is_chain_plus_2(self):
        network, layout = chain_pd2_network(self._core(), 3)
        distances = persistent_distances(network, 0, 1)
        for outer in layout.outer:
            assert distances[outer] == 5

    def test_zero_chain_is_pd2(self):
        network, layout = chain_pd2_network(self._core(), 0)
        verify_pd(network, 0, 2, 1)

    def test_hub_edges_follow_labels(self):
        core = self._core()
        network, layout = chain_pd2_network(core, 1)
        graph = network.at(0)
        assert set(graph.neighbors(layout.outer[0])) == {layout.hub_for_label(1)}
        assert set(graph.neighbors(layout.outer[1])) == {layout.hub_for_label(2)}
        assert set(graph.neighbors(layout.outer[2])) == set(layout.hubs)

    def test_requires_k2(self):
        with pytest.raises(ModelError, match="M\\(DBL\\)_2"):
            chain_pd2_network(
                DynamicMultigraph(3, [[frozenset({3})]]), 1
            )

    def test_negative_chain_rejected(self):
        with pytest.raises(ValueError):
            chain_pd2_network(self._core(), -1)

    def test_hub_for_label_validation(self):
        _network, layout = chain_pd2_network(self._core(), 0)
        with pytest.raises(ValueError):
            layout.hub_for_label(3)


class TestRandomDynamic:
    def test_connected(self, rng):
        for _ in range(20):
            graph = random_connected_graph(12, rng)
            assert nx.is_connected(graph)

    def test_single_node(self, rng):
        graph = random_connected_graph(1, rng)
        assert graph.number_of_nodes() == 1

    def test_extra_edges_increase_density(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        sparse = random_connected_graph(20, rng1, extra_edge_p=0.0)
        dense = random_connected_graph(20, rng2, extra_edge_p=0.8)
        assert sparse.number_of_edges() == 19  # exactly a tree
        assert dense.number_of_edges() > sparse.number_of_edges()

    def test_adversary_reproducible_per_round(self):
        graph = RandomConnectedAdversary(8, seed=3).as_dynamic_graph()
        first = set(graph.at(5).edges())
        graph.at(6)  # the one-round memo now holds another round
        assert set(graph.at(5).edges()) == first

    def test_adversary_changes_over_rounds(self):
        graph = RandomConnectedAdversary(10, seed=3).as_dynamic_graph()
        assert set(graph.at(0).edges()) != set(graph.at(1).edges())

    def test_as_dynamic_graph(self):
        graph = RandomConnectedAdversary(6, seed=1).as_dynamic_graph()
        assert is_interval_connected(graph, 5)

    @pytest.mark.parametrize(
        "seed, n, u, v",
        [
            (0, 8, [4, 3, 6, 5, 0, 1, 7], [2, 4, 4, 3, 3, 0, 0]),
            (7, 5, [0, 4, 1, 3], [2, 2, 2, 1]),
        ],
    )
    def test_tree_edges_pinned(self, seed, n, u, v):
        tree_u, tree_v = random_tree_edges(n, np.random.default_rng(seed))
        assert tree_u.dtype == tree_v.dtype == np.int64
        assert (tree_u.tolist(), tree_v.tolist()) == (u, v)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 65_536])
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_tree_edges_match_the_floor_form(self, n, seed):
        # The sampler's earlier form: floor before the int cast, and
        # the attached nodes gathered through an index array.
        old_rng = np.random.default_rng(seed)
        if n == 1:
            expected = (np.empty(0, np.int64), np.empty(0, np.int64))
        else:
            order = old_rng.permutation(n).astype(np.int64)
            positions = np.arange(1, n, dtype=np.int64)
            parents = np.floor(old_rng.random(n - 1) * positions)
            expected = (order[positions], order[parents.astype(np.int64)])
        rng = np.random.default_rng(seed)
        actual = random_tree_edges(n, rng)
        for got, want in zip(actual, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # Both forms leave the generator in the same state.
        assert rng.random() == old_rng.random()

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomConnectedAdversary(0)
        with pytest.raises(ValueError):
            RandomConnectedAdversary(3, extra_edge_p=2.0)


class TestFigureGenerators:
    def test_figure1_periodicity(self):
        figure = paper_figure1()
        assert set(figure.graph.at(0).edges()) == set(figure.graph.at(3).edges())

    def test_figure1_nodes(self):
        figure = paper_figure1()
        assert figure.graph.n == 6
        assert figure.v0 != figure.v3

    def test_figure2_multigraph(self):
        multigraph = paper_figure2_multigraph()
        assert multigraph.k == 3
        assert multigraph.n == 4
        assert multigraph.labels(3, 0) == frozenset({1, 2, 3})
