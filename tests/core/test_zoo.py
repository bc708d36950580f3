"""Tests for the counting-algorithm zoo (the published upper bounds).

Every algorithm's contract is exact: on an ``n``-node dynamic network
it must output ``count == n``, no earlier than the Theorem 1 horizon.
The drain algorithms additionally ship a vectorized fast backend whose
outcomes and ``engine.*`` counters must be byte-identical to the
object engine, including chunked lane streaming and fused batches.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.counting.diluna_viglietta import count_diluna_viglietta
from repro.core.counting.drain import (
    VectorizedDrain,
    count_chakraborty_mm,
    count_chakraborty_mm_batch,
    count_drain_batch,
    count_milani_mosteiro,
    count_milani_mosteiro_batch,
)
from repro.core.counting.kowalski_mosteiro import count_kowalski_mosteiro
from repro.core.lowerbound.bounds import theorem1_bound
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.markov import edge_markov_network
from repro.networks.generators.pd import random_pd_network
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.networks.generators.t_interval import t_interval_network
from repro.obs.metrics import MetricsRegistry, use_registry

ENGINE_COUNTERS = (
    "engine.runs",
    "engine.rounds",
    "engine.graphs",
    "engine.messages_sent",
    "engine.messages_delivered",
)


def static_network(graph: nx.Graph, name: str) -> DynamicGraph:
    return DynamicGraph.from_graphs([graph], name=name)


def random_network(n: int, seed: int) -> DynamicGraph:
    return RandomConnectedAdversary(n, seed=seed).as_dynamic_graph()


def outcome_key(outcome):
    return (
        outcome.count,
        outcome.output_round,
        outcome.rounds,
        outcome.algorithm,
        outcome.detail,
    )


class TestHistoryTreeAlgorithms:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_dv_counts_random_networks(self, n):
        outcome = count_diluna_viglietta(random_network(n, seed=n))
        assert outcome.count == n
        assert outcome.output_round >= theorem1_bound(n)
        assert outcome.algorithm == "diluna-viglietta"

    @pytest.mark.parametrize("family", ["markov", "t-interval"])
    @pytest.mark.parametrize("n", [3, 6])
    def test_dv_counts_stochastic_families(self, family, n):
        if family == "markov":
            network = edge_markov_network(n, seed=7)
        else:
            network = t_interval_network(n, 2, seed=7)
        assert count_diluna_viglietta(network).count == n

    def test_dv_counts_pd_network(self):
        network, _layers = random_pd_network([3, 2], seed=11)
        assert count_diluna_viglietta(network).count == network.n

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_km_with_two_supervisors(self, n):
        outcome = count_kowalski_mosteiro(
            random_network(n, seed=n + 1), supervisors=2
        )
        assert outcome.count == n
        assert outcome.detail["supervisors"] == 2

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_km_all_supervisors_on_symmetric_cycle(self, n):
        # Every node marked on a vertex-transitive graph: the fully
        # leaderless case a unique-leader algorithm cannot express.
        network = static_network(nx.cycle_graph(n), f"cycle-{n}")
        outcome = count_kowalski_mosteiro(network, supervisors=n)
        assert outcome.count == n
        assert outcome.detail["supervisors"] == n
        # Symmetric start => all nodes decide in the same round.
        assert outcome.detail["deciders"] == n


class TestDrainAlgorithms:
    COUNTERS = {
        "milani-mosteiro": count_milani_mosteiro,
        "chakraborty-milani-mosteiro": count_chakraborty_mm,
    }

    @pytest.mark.parametrize("algorithm", sorted(COUNTERS))
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_counts_random_networks(self, algorithm, n):
        outcome = self.COUNTERS[algorithm](random_network(n, seed=n))
        assert outcome.count == n
        assert outcome.output_round >= theorem1_bound(n)
        assert outcome.algorithm == algorithm

    @pytest.mark.parametrize("algorithm", sorted(COUNTERS))
    @pytest.mark.parametrize(
        "graph_name", ["cycle", "path", "star"]
    )
    def test_counts_static_topologies(self, algorithm, graph_name):
        n = 5
        graph = {
            "cycle": nx.cycle_graph,
            "path": nx.path_graph,
            "star": lambda k: nx.star_graph(k - 1),
        }[graph_name](n)
        outcome = self.COUNTERS[algorithm](
            static_network(graph, f"{graph_name}-{n}")
        )
        assert outcome.count == n

    @pytest.mark.parametrize("algorithm", sorted(COUNTERS))
    def test_counts_stochastic_families(self, algorithm):
        count = self.COUNTERS[algorithm]
        assert count(edge_markov_network(5, seed=3)).count == 5
        assert count(t_interval_network(5, 3, seed=3)).count == 5

    def test_mm_doubles_cmm_increments(self):
        network = random_network(6, seed=2)
        mm = count_milani_mosteiro(network)
        cmm = count_chakraborty_mm(random_network(6, seed=2))
        # MM's accepted candidate is a power of two; CMM's is the
        # smallest candidate its certificate accepts.
        k = mm.detail["candidate"]
        assert k & (k - 1) == 0
        assert cmm.detail["candidate"] <= k


class TestDrainBackendEquivalence:
    BATCHES = {
        "milani-mosteiro": (count_milani_mosteiro, count_milani_mosteiro_batch),
        "chakraborty-milani-mosteiro": (
            count_chakraborty_mm,
            count_chakraborty_mm_batch,
        ),
    }

    def _run(self, fn, *args, **kwargs):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = fn(*args, **kwargs)
        snapshot = registry.snapshot()["counters"]
        counters = {name: snapshot.get(name, 0) for name in ENGINE_COUNTERS}
        return result, counters

    @pytest.mark.parametrize("algorithm", sorted(BATCHES))
    @pytest.mark.parametrize("n", [2, 5])
    def test_object_equals_fast(self, algorithm, n):
        single, _batch = self.BATCHES[algorithm]
        obj, obj_counters = self._run(
            single, random_network(n, seed=9), backend="object"
        )
        fast, fast_counters = self._run(
            single, random_network(n, seed=9), backend="fast"
        )
        assert outcome_key(obj) == outcome_key(fast)
        assert obj_counters == fast_counters

    #: The chunked leg of each algorithm: the MM batch helper, and CMM
    #: through the fused drain batch it shares with the zoo.
    CHUNKED = {
        "milani-mosteiro": count_milani_mosteiro_batch,
        "chakraborty-milani-mosteiro": lambda networks, **kwargs: (
            count_drain_batch(
                networks, ["incremental"] * len(networks), **kwargs
            )
        ),
    }

    @pytest.mark.parametrize("algorithm", sorted(BATCHES))
    def test_chunked_lanes_match_object(self, algorithm, monkeypatch):
        single, _batch = self.BATCHES[algorithm]
        sizes = [2, 5, 3]
        chunks = []
        subset = VectorizedDrain.subset

        def spy(protocol, indices):
            chunks.append((indices[0], indices[-1] + 1))
            return subset(protocol, indices)

        obj = []
        obj_counters = dict.fromkeys(ENGINE_COUNTERS, 0)
        for n in sizes:
            outcome, counters = self._run(
                single, random_network(n, seed=4), backend="object"
            )
            obj.append(outcome_key(outcome))
            for name, value in counters.items():
                obj_counters[name] += value
        monkeypatch.setattr(VectorizedDrain, "subset", spy)
        fast, fast_counters = self._run(
            self.CHUNKED[algorithm],
            [random_network(n, seed=4) for n in sizes],
            max_lane_nodes=2,
        )
        assert chunks == [(0, 1), (1, 2), (2, 3)]
        assert [outcome_key(o) for o in fast] == obj
        assert fast_counters == obj_counters

    @pytest.mark.parametrize("algorithm", sorted(BATCHES))
    def test_batch_equals_singles(self, algorithm):
        single, batch = self.BATCHES[algorithm]
        sizes = [2, 5, 3]
        singles = [
            single(random_network(n, seed=20 + n), backend="fast")
            for n in sizes
        ]
        batched = batch(
            [random_network(n, seed=20 + n) for n in sizes],
            max_lane_nodes=4,
        )
        assert [outcome_key(o) for o in batched] == [
            outcome_key(o) for o in singles
        ]
