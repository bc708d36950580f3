"""Tests for views, indistinguishability, and the naming problem."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.naming import (
    ViewNamingProcess,
    earliest_naming_round,
    name_by_views,
    naming_is_possible,
    run_view_naming,
)
from repro.core.views import (
    indistinguishable,
    symmetry_degree,
    view,
    view_classes,
    view_table,
)
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.figures import paper_figure1
from repro.networks.generators.stars import star_network


def static(graph):
    return DynamicGraph.from_graphs([graph])


class TestViews:
    def test_depth0_only_leader_flag(self):
        star = star_network(5)
        classes = view_classes(star, 0, leader=0)
        assert classes == [[0], [1, 2, 3, 4]]

    def test_no_leader_depth0_all_equal(self):
        star = star_network(4)
        assert view_classes(star, 0) == [[0, 1, 2, 3]]

    def test_star_spokes_never_separate(self):
        star = star_network(6)
        for depth in (1, 2, 5, 10):
            classes = view_classes(star, depth, leader=0)
            assert [1, 2, 3, 4, 5] in classes
        assert symmetry_degree(star, 10, leader=0) == 5

    def test_cycle_is_fully_symmetric_without_leader(self):
        cycle = static(nx.cycle_graph(6))
        assert symmetry_degree(cycle, 8) == 6

    def test_cycle_separates_with_leader(self):
        cycle = static(nx.cycle_graph(5))
        classes = view_classes(cycle, 3, leader=0)
        # Distance from the leader separates; the two nodes at each
        # distance stay mutually symmetric (reflection symmetry).
        assert [0] in classes
        assert [1, 4] in classes
        assert [2, 3] in classes

    def test_path_mirror_symmetry_without_leader(self):
        # An unrooted path has a reflection symmetry: endpoints (and
        # each mirrored pair) are forever indistinguishable.
        path = static(nx.path_graph(4))
        assert indistinguishable(path, 0, 3, 8)
        assert indistinguishable(path, 1, 2, 8)

    def test_path_separates_completely_with_offcentre_leader(self):
        path = static(nx.path_graph(4))
        depth = earliest_naming_round(path, leader=1)
        assert depth is not None
        classes = view_classes(path, depth, leader=1)
        assert all(len(members) == 1 for members in classes)

    def test_indistinguishable_pairwise(self):
        star = star_network(4)
        assert indistinguishable(star, 1, 2, 6, leader=0)
        assert not indistinguishable(star, 0, 1, 1, leader=0)

    def test_view_ids_consistent(self):
        star = star_network(4)
        assert view(star, 1, 3, leader=0) == view(star, 2, 3, leader=0)
        assert view(star, 0, 3, leader=0) != view(star, 1, 3, leader=0)

    def test_views_refine_over_depth(self):
        figure = paper_figure1()
        previous = 1
        for depth in range(5):
            classes = view_classes(figure.graph, depth, leader=0)
            assert len(classes) >= previous
            previous = len(classes)

    def test_dynamic_views_track_round_graphs(self):
        # Two nodes symmetric in round 0 but not round 1 separate at
        # depth 2.
        g0 = nx.Graph([(0, 1), (0, 2), (1, 2)])  # triangle: 1 ~ 2
        g1 = nx.Graph([(0, 1), (1, 2)])  # path: 1 is the middle
        graph = DynamicGraph.from_graphs([g0, g1])
        assert indistinguishable(graph, 1, 2, 1, leader=0)
        assert not indistinguishable(graph, 1, 2, 2, leader=0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            view_table(star_network(3), -1)


class TestNaming:
    def test_star_naming_impossible(self):
        star = star_network(5)
        assert not naming_is_possible(star, 10, leader=0)
        assert earliest_naming_round(star, leader=0, max_depth=10) is None
        assert name_by_views(star, 10, leader=0) is None

    def test_two_node_star_namable(self):
        star = star_network(2)
        assert naming_is_possible(star, 0, leader=0)

    def test_path_naming(self):
        path = static(nx.path_graph(5))
        depth = earliest_naming_round(path, leader=1)
        names = name_by_views(path, depth, leader=1)
        assert sorted(names.values()) == list(range(5))

    def test_symmetric_path_not_namable_without_leader(self):
        path = static(nx.path_graph(5))
        assert earliest_naming_round(path, max_depth=8) is None

    def test_names_are_deterministic(self):
        path = static(nx.path_graph(4))
        depth = earliest_naming_round(path, leader=1)
        assert name_by_views(path, depth, leader=1) == name_by_views(
            path, depth, leader=1
        )


class TestEngineViewNaming:
    def test_partition_matches_graph_level(self):
        figure = paper_figure1()
        horizon = 3
        outputs = run_view_naming(figure.graph, horizon, leader=0)
        engine_partition = {}
        for node, output in outputs.items():
            engine_partition.setdefault(output, []).append(node)
        engine_classes = sorted(
            engine_partition.values(), key=lambda members: members[0]
        )
        assert engine_classes == view_classes(
            figure.graph, horizon, leader=0
        )

    def test_star_spokes_get_identical_names(self):
        outputs = run_view_naming(star_network(4), 3, leader=0)
        assert outputs[1] == outputs[2] == outputs[3]
        assert outputs[0] != outputs[1]

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            ViewNamingProcess(False, 0)
