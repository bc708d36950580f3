"""Tests for the counting algorithms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.worst_case import (
    max_ambiguity_multigraph,
    worst_case_pd2_network,
)
from repro.core.counting.base import CountingOutcome
from repro.core.counting.chain import count_chain_pd2
from repro.core.counting.degree_oracle import count_pd2_with_degree_oracle
from repro.core.counting.flooding import flood_time_via_protocol
from repro.core.counting.gossip import gossip_size_estimates
from repro.core.counting.optimal import count_mdbl2, count_mdbl2_abstract
from repro.core.counting.star import count_star
from repro.core.counting.token_ids import count_with_ids
from repro.core.lowerbound.bounds import corollary1_bound, rounds_to_count
from repro.networks.generators.figures import paper_figure1
from repro.networks.generators.pd import random_pd_network
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.networks.generators.stars import star_network
from repro.networks.multigraph import DynamicMultigraph
from repro.networks.properties import dynamic_diameter, flood_completion_time

from tests.conftest import schedules_strategy


class TestCountingOutcome:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountingOutcome(count=-1, output_round=0, rounds=1, algorithm="x")
        with pytest.raises(ValueError):
            CountingOutcome(count=1, output_round=3, rounds=1, algorithm="x")


class TestOptimalCounter:
    @given(schedules_strategy(max_nodes=7, max_rounds=3))
    @settings(max_examples=40, deadline=None)
    def test_abstract_is_always_correct(self, schedules):
        multigraph = DynamicMultigraph(2, schedules)
        outcome = count_mdbl2_abstract(multigraph)
        assert outcome.count == multigraph.n

    @given(schedules_strategy(max_nodes=5, max_rounds=2))
    @settings(max_examples=25, deadline=None)
    def test_engine_path_agrees_with_abstract(self, schedules):
        multigraph = DynamicMultigraph(2, schedules)
        engine_outcome = count_mdbl2(multigraph)
        abstract_outcome = count_mdbl2_abstract(multigraph)
        assert engine_outcome.count == abstract_outcome.count
        assert engine_outcome.rounds == abstract_outcome.rounds

    @pytest.mark.parametrize("n", [1, 2, 4, 13, 40, 121])
    def test_worst_case_matches_theory(self, n):
        outcome = count_mdbl2_abstract(max_ambiguity_multigraph(n))
        assert outcome.count == n
        assert outcome.rounds == rounds_to_count(n)

    def test_interval_history_is_monotone(self):
        outcome = count_mdbl2_abstract(max_ambiguity_multigraph(40))
        widths = [interval.width for interval in outcome.detail["intervals"]]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] == 0

    def test_rejects_k3(self):
        multigraph = DynamicMultigraph(3, [[frozenset({3})]])
        with pytest.raises(ValueError):
            count_mdbl2_abstract(multigraph)
        with pytest.raises(ValueError):
            count_mdbl2(multigraph)

    def test_single_node(self):
        multigraph = DynamicMultigraph(2, [[frozenset({1})]])
        outcome = count_mdbl2_abstract(multigraph)
        assert outcome.count == 1
        assert outcome.rounds <= 2


class TestStarCounter:
    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_exact_in_one_round(self, n):
        outcome = count_star(n)
        assert outcome.count == n
        assert outcome.rounds == 1

    def test_non_default_leader(self):
        outcome = count_star(7, leader=3)
        assert outcome.count == 7

    def test_custom_network(self):
        outcome = count_star(5, network=star_network(5))
        assert outcome.count == 5

    def test_too_small(self):
        with pytest.raises(ValueError):
            count_star(1)


class TestDegreeOracleCounter:
    @pytest.mark.parametrize("n", [1, 4, 13, 40])
    def test_exact_on_worst_case_networks(self, n):
        network, layout = worst_case_pd2_network(n)
        outcome = count_pd2_with_degree_oracle(network)
        assert outcome.count == layout.n
        assert outcome.rounds == 3

    def test_exact_on_random_restricted_pd2(self):
        network, layers = random_pd_network(
            [5, 9], seed=4, intra_layer_p=0.0, extra_edge_p=0.3
        )
        outcome = count_pd2_with_degree_oracle(network)
        assert outcome.count == network.n

    def test_star_degenerate_case(self):
        # A star is a restricted PD_2 network with empty V2.
        outcome = count_pd2_with_degree_oracle(star_network(8))
        assert outcome.count == 8

    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 8), st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_exact_on_fuzzed_pd2(self, seed, v1, v2):
        network, _layers = random_pd_network(
            [v1, v2], seed=seed, intra_layer_p=0.0
        )
        assert count_pd2_with_degree_oracle(network).count == network.n


class TestTokenIdsCounter:
    def test_counts_in_dynamic_diameter_rounds(self):
        figure = paper_figure1()
        d = dynamic_diameter(figure.graph, start_rounds=3)
        outcome = count_with_ids(figure.graph, d)
        assert outcome.count == figure.graph.n
        assert outcome.rounds == d

    @pytest.mark.parametrize("n", [4, 13, 40])
    def test_counts_worst_case_networks(self, n):
        network, layout = worst_case_pd2_network(n)
        d = dynamic_diameter(network, start_rounds=2)
        outcome = count_with_ids(network, d)
        assert outcome.count == layout.n

    def test_insufficient_horizon_undercounts(self):
        # With a horizon below D the flood has not completed: the
        # baseline's correctness genuinely depends on knowing D.
        import networkx as nx

        from repro.networks.csr_native import DynamicGraph

        path = DynamicGraph.from_graphs([nx.path_graph(6)])
        outcome = count_with_ids(path, 2)
        assert outcome.count < 6

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            count_with_ids(star_network(3), 0)


class TestGossip:
    def test_converges_on_fair_adversary(self):
        n = 32
        adversary = RandomConnectedAdversary(n, seed=5)
        estimates = gossip_size_estimates(adversary, n, 50)
        assert len(estimates) == 50
        assert abs(estimates[-1] - n) / n < 0.02

    def test_estimates_improve(self):
        n = 64
        adversary = RandomConnectedAdversary(n, seed=9)
        estimates = gossip_size_estimates(adversary, n, 60)
        late_error = abs(estimates[-1] - n)
        early_error = abs(estimates[5] - n)
        assert late_error <= early_error

    def test_mass_never_lost(self):
        # The leader's estimate is finite from round 1 on a star.
        estimates = gossip_size_estimates(star_network(10), 10, 10)
        assert all(np.isfinite(estimates[1:]))


class TestFloodingProtocol:
    @pytest.mark.parametrize("source", [0, 1, 3, 5])
    def test_agrees_with_graph_level(self, source):
        figure = paper_figure1()
        assert flood_time_via_protocol(figure.graph, source) == (
            flood_completion_time(figure.graph, source, 0)
        )

    def test_star(self):
        assert flood_time_via_protocol(star_network(5), 0) == 1
        assert flood_time_via_protocol(star_network(5), 2) == 2


class TestChainCounter:
    @pytest.mark.parametrize("n,chain_length", [(4, 0), (4, 3), (13, 2)])
    def test_matches_corollary_bound(self, n, chain_length):
        core = max_ambiguity_multigraph(n)
        outcome = count_chain_pd2(core, chain_length)
        assert outcome.count == n
        assert outcome.rounds == corollary1_bound(n, chain_length)

    @given(schedules_strategy(max_nodes=5, max_rounds=2))
    @settings(max_examples=15, deadline=None)
    def test_correct_on_fuzzed_cores(self, schedules):
        multigraph = DynamicMultigraph(2, schedules)
        outcome = count_chain_pd2(multigraph, 2)
        assert outcome.count == multigraph.n
