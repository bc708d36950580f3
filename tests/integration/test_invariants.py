"""Cross-cutting invariants, property-tested.

These tests pin down guarantees no single module owns: conservation
laws of the engine, determinism of whole executions, and the solver's
behaviour on *corrupted* observations (failure injection).
"""

from __future__ import annotations

from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counting.gossip import gossip_size_estimates
from repro.core.solver import (
    feasible_size_interval,
    feasible_size_set_bruteforce,
)
from repro.core.states import ObservationSequence
from repro.networks.generators.random_dynamic import (
    RandomConnectedAdversary,
    random_connected_graph,
)
from repro.networks.multigraph import DynamicMultigraph
from repro.simulation.engine import EngineConfig, SynchronousEngine
from repro.simulation.errors import InfeasibleObservationError
from repro.simulation.node import Process

from tests.conftest import recorded_telemetry, schedules_strategy


class BroadcastEverything(Process):
    """Broadcasts a growing transcript; used to test conservation."""

    def __init__(self):
        self.transcript: tuple = ()

    def compose(self, round_no):
        return ("t", len(self.transcript))

    def deliver(self, round_no, inbox):
        self.transcript = self.transcript + (inbox.counts().total(),)


class TestEngineConservation:
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_deliveries_equal_degree_sum(self, n, rounds, seed):
        """Every broadcast is delivered exactly degree-many times."""
        network = RandomConnectedAdversary(n, seed=seed).as_dynamic_graph()
        processes = [BroadcastEverything() for _ in range(n)]
        engine = SynchronousEngine(
            processes,
            network,
            leader=None,
            config=EngineConfig(max_rounds=rounds, stop_when="budget"),
        )
        with recorded_telemetry() as events:
            engine.run()
        assert [event["round"] for event in events] == list(range(rounds))
        for event in events:
            degree_sum = sum(
                degree for _node, degree in network.at(event["round"]).degree()
            )
            assert event["delivered"] == degree_sum
            assert event["sent"] == n

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_engine_conserves_push_sum_traffic(self, n, rounds, seed):
        """On the fast engine too, every node sends each round and each
        edge carries one payload each way."""
        network = RandomConnectedAdversary(n, seed=seed).as_dynamic_graph()
        with recorded_telemetry() as events:
            gossip_size_estimates(network, n, rounds, backend="fast")
        assert [event["round"] for event in events] == list(range(rounds))
        for event in events:
            assert event["engine"] == "fast"
            edges = network.at(event["round"]).number_of_edges()
            assert event["edges"] == edges
            assert event["sent"] == n
            assert event["delivered"] == 2 * edges

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_executions_are_deterministic(self, n, seed):
        """Same protocol + same adversary => identical transcripts."""

        def run_once():
            processes = [BroadcastEverything() for _ in range(n)]
            engine = SynchronousEngine(
                processes,
                RandomConnectedAdversary(n, seed=seed),
                leader=None,
                config=EngineConfig(max_rounds=4, stop_when="budget"),
            )
            engine.run()
            return [process.transcript for process in processes]

        assert run_once() == run_once()


class TestSolverFailureInjection:
    @given(
        schedules_strategy(max_nodes=5, max_rounds=3),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_corrupted_observations_tree_matches_bruteforce(
        self, schedules, seed
    ):
        """Randomly perturb a real leader state: both solvers must agree
        -- including on infeasibility."""
        multigraph = DynamicMultigraph(2, schedules)
        rounds = multigraph.prefix_rounds
        observations = multigraph.observations(rounds)
        rng = np.random.default_rng(seed)
        corrupted_rounds = []
        for round_no in range(rounds):
            observation = Counter(observations[round_no])
            if observation and rng.random() < 0.7:
                key = list(observation)[int(rng.integers(len(observation)))]
                delta = int(rng.integers(-2, 3))
                observation[key] = max(0, observation[key] + delta)
                observation += Counter()  # drop zero entries
            corrupted_rounds.append(observation)
        corrupted = ObservationSequence(2, corrupted_rounds)

        try:
            interval = feasible_size_interval(corrupted)
            tree_sizes = set(interval)
        except InfeasibleObservationError:
            tree_sizes = set()
        brute_sizes = feasible_size_set_bruteforce(corrupted)
        assert tree_sizes == brute_sizes

    def test_round0_label_imbalance_still_solvable(self):
        observations = ObservationSequence(2, [{(1, ()): 7}])
        assert feasible_size_interval(observations).is_unique

    def test_phantom_state_detected(self):
        # Round 1 reports a node whose round-0 history never appeared.
        observations = ObservationSequence(
            2,
            [
                {(1, ()): 1},
                {(2, (frozenset({2}),)): 1, (1, (frozenset({1}),)): 1},
            ],
        )
        with pytest.raises(InfeasibleObservationError):
            feasible_size_interval(observations)


class TestGraphLevelInvariants:
    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_connected_graph_is_connected_and_simple(self, n, seed):
        graph = random_connected_graph(n, np.random.default_rng(seed))
        assert nx.is_connected(graph)
        assert not any(u == v for u, v in graph.edges())

    @given(schedules_strategy(max_nodes=6, max_rounds=3))
    @settings(max_examples=25, deadline=None)
    def test_observation_prefix_consistency(self, schedules):
        """The observation sequence of r rounds is a prefix of that of
        r+1 rounds -- the leader's knowledge only grows."""
        multigraph = DynamicMultigraph(2, schedules)
        rounds = multigraph.prefix_rounds
        longer = multigraph.observations(rounds)
        for shorter_rounds in range(1, rounds):
            shorter = multigraph.observations(shorter_rounds)
            assert longer.prefix(shorter_rounds) == shorter

    @given(schedules_strategy(max_nodes=6, max_rounds=3))
    @settings(max_examples=25, deadline=None)
    def test_interval_width_never_increases(self, schedules):
        """More observations can only shrink the feasible set."""
        multigraph = DynamicMultigraph(2, schedules)
        widths = []
        for rounds in range(1, multigraph.prefix_rounds + 1):
            widths.append(
                feasible_size_interval(
                    multigraph.observations(rounds)
                ).width
            )
        assert widths == sorted(widths, reverse=True)
