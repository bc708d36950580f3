"""Tests for the vectorized fast backend (CSR lowering + FastEngine)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.networks.csr import lower_graph, stack_adjacencies
from repro.networks.csr_native import DynamicGraph
from repro.simulation import fast
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.simulation.engine import EngineConfig
from repro.simulation.errors import TerminationError, TopologyError
from repro.simulation.fast import (
    FastEngine,
    FastLane,
    VectorizedProtocol,
    resolve_backend,
)
from repro.simulation.trace import TraceLevel


def dyn(graphs, **kwargs):
    return DynamicGraph.from_graphs(graphs, **kwargs)


def held(graph):
    return dyn([graph], extend="hold")


class Flood(VectorizedProtocol):
    """Minimal flooding protocol used to exercise the engine."""

    def __init__(self, sources):
        self.sources = sources

    def allocate(self, layouts):
        self.layouts = list(layouts)
        total = layouts[-1].stop
        self.informed = np.zeros(total, dtype=bool)
        for layout, source in zip(layouts, self.sources):
            self.informed[layout.offset + source] = True

    def step(self, round_no, adjacency, active):
        sending = self.informed.copy()
        delivered = adjacency.matvec(sending.astype(np.float64)).astype(
            np.int64
        )
        self.informed |= delivered > 0
        return sending, delivered

    def output_mask(self):
        return self.informed

    def outputs_for(self, layout):
        return {
            index: True
            for index in range(layout.n)
            if self.informed[layout.offset + index]
        }


class Recording(Flood):
    """Flooding that keeps every stacked adjacency it steps on."""

    def __init__(self, sources):
        super().__init__(sources)
        self.adjacencies = []

    def step(self, round_no, adjacency, active):
        self.adjacencies.append(adjacency)
        return super().step(round_no, adjacency, active)


def run_lanes(lanes, rounds, protocol=None):
    """Flood every lane for exactly ``rounds`` rounds."""
    FastEngine(
        protocol or Flood([0] * len(lanes)),
        [FastLane(lane, lane.n, leader=None) for lane in lanes],
        config=EngineConfig(stop_when="budget", max_rounds=rounds),
    ).run()


def run_counters(lanes, rounds):
    registry = MetricsRegistry()
    with use_registry(registry):
        run_lanes(lanes, rounds)
    return registry.snapshot()["counters"]


class TestLowerGraph:
    def test_basic_lowering(self):
        adjacency = lower_graph(nx.path_graph(4))
        assert adjacency.n == 4
        assert adjacency.edges == 3
        assert adjacency.connected is True
        assert list(adjacency.degrees) == [1, 2, 2, 1]

    def test_matvec_is_neighbour_sum(self):
        adjacency = lower_graph(nx.star_graph(3))
        x = np.array([10.0, 1.0, 2.0, 3.0])
        assert list(adjacency.matvec(x)) == [6.0, 10.0, 10.0, 10.0]

    def test_edge_weights_ignored(self):
        graph = nx.path_graph(4)
        graph[0][1]["weight"] = 5
        adjacency = lower_graph(graph)
        assert list(adjacency.matvec(np.ones(4))) == [1.0, 2.0, 2.0, 1.0]

    def test_disconnected_recorded(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        assert lower_graph(graph).connected is False

    def test_singleton_connected(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert lower_graph(graph).connected is True

    def test_wrong_node_set_rejected(self):
        graph = nx.relabel_nodes(nx.path_graph(3), {0: 5, 1: 6, 2: 7})
        with pytest.raises(TopologyError, match="do not match"):
            lower_graph(graph)

    def test_node_count_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            lower_graph(nx.path_graph(3), n=4)

    def test_self_loop_rejected(self):
        graph = nx.path_graph(3)
        graph.add_edge(1, 1)
        with pytest.raises(TopologyError, match="self-loop"):
            lower_graph(graph)


class TestCaches:
    def test_stack_single_part_passthrough(self):
        part = lower_graph(nx.path_graph(3))
        assert stack_adjacencies([part]) is part

    def test_stack_block_diagonal(self):
        a = lower_graph(nx.path_graph(2))
        b = lower_graph(nx.path_graph(3))
        stacked = stack_adjacencies([a, b])
        assert stacked.n == 5
        assert stacked.edges == 3
        assert stacked.connected is None
        # No cross-lane edges: flooding lane a never reaches lane b.
        x = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert list(stacked.matvec(x))[2:] == [0.0, 0.0, 0.0]

    def test_stack_cache_hit(self):
        # A held two-lane batch builds its stack once and then hits.
        counters = run_counters(
            [held(nx.path_graph(2)), held(nx.path_graph(3))], rounds=6
        )
        assert counters["adjacency.stack_builds"] == 1
        assert counters["adjacency.builds"] == 1
        assert counters["adjacency.stack_hits"] == 6 - 1

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            stack_adjacencies([])

    def test_stack_cache_is_bounded(self, monkeypatch):
        # Three rounds cycling through an LRU of two entries: every
        # round misses and evicts the oldest entry.
        monkeypatch.setattr(fast, "STACK_CACHE_SIZE", 2)
        graphs = [nx.path_graph(3), nx.star_graph(2), nx.cycle_graph(3)]
        counters = run_counters(
            [dyn(graphs, extend="cycle"), held(nx.path_graph(2))], rounds=9
        )
        assert counters["adjacency.stack_builds"] == 9
        assert counters["adjacency.stack_evictions"] == 9 - 2
        assert "adjacency.stack_hits" not in counters

    def test_stack_cache_is_per_run(self):
        lanes = [held(nx.path_graph(2)), held(nx.path_graph(3))]
        registry = MetricsRegistry()
        with use_registry(registry):
            for _ in range(2):
                run_lanes(lanes, rounds=3)
        counters = registry.snapshot()["counters"]
        assert counters["adjacency.stack_builds"] == 2
        assert counters["adjacency.stack_hits"] == 2 * (3 - 1)

    def test_stack_cache_changed_length_is_a_miss(self):
        # A one-lane and a two-lane batch over the same held graph never
        # share a stacked adjacency.
        graph = held(nx.path_graph(2))
        sizes = []
        for lanes in ([graph, graph], [graph]):
            protocol = Recording([0] * len(lanes))
            run_lanes(lanes, 1, protocol)
            sizes.extend(adjacency.n for adjacency in protocol.adjacencies)
        assert sizes == [4, 2]

    def test_cycle_prefix_hits(self):
        graphs = [nx.path_graph(3), nx.star_graph(2), nx.cycle_graph(3)]
        counters = run_counters(
            [dyn(graphs, extend="cycle"), held(nx.path_graph(2))], rounds=9
        )
        assert counters["adjacency.stack_builds"] == 3
        assert counters["adjacency.stack_hits"] == 9 - 3

    def test_mixed_held_and_fresh_lanes_rebuild_every_round(self):
        fresh = DynamicGraph(
            3, lambda round_no: (np.array([0, 1]), np.array([1, 2]))
        )
        counters = run_counters([held(nx.path_graph(2)), fresh], rounds=5)
        assert counters["adjacency.stack_builds"] == 5
        assert "adjacency.stack_hits" not in counters

    def test_fused_stack_equals_stacked_lanes(self):
        lanes = [
            dyn([nx.path_graph(3), nx.cycle_graph(3)]),
            held(nx.star_graph(3)),
        ]
        protocol = Recording([0, 0])
        run_lanes(lanes, 3, protocol)
        for round_no, adjacency in enumerate(protocol.adjacencies):
            expected = stack_adjacencies(
                [lane.to_csr(round_no) for lane in lanes]
            )
            assert np.array_equal(
                adjacency.matrix.toarray(), expected.matrix.toarray()
            )
            assert adjacency.connected is None


class TestResolveBackend:
    def test_accepts_known(self):
        assert resolve_backend("object") == "object"
        assert resolve_backend("fast") == "fast"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("gpu")


class TestFastEngine:
    def test_single_lane_flood_rounds(self):
        engine = FastEngine(
            Flood([0]),
            [FastLane(dyn([nx.path_graph(4)]), 4, leader=None)],
            config=EngineConfig(stop_when="all", max_rounds=10),
        )
        result = engine.run()[0]
        assert result.rounds == 3
        assert result.terminated is True
        assert result.outputs == {0: True, 1: True, 2: True, 3: True}

    def test_batch_lanes_stop_independently(self):
        lanes = [
            FastLane(dyn([nx.path_graph(n)]), n, leader=None)
            for n in (2, 4, 6)
        ]
        engine = FastEngine(
            Flood([0, 0, 0]),
            lanes,
            config=EngineConfig(stop_when="all", max_rounds=10),
        )
        assert [r.rounds for r in engine.run()] == [1, 3, 5]

    def test_batch_equals_single_runs(self):
        def result_for(n):
            engine = FastEngine(
                Flood([0]),
                [FastLane(dyn([nx.path_graph(n)]), n, leader=None)],
                config=EngineConfig(stop_when="all", max_rounds=10),
            )
            return engine.run()[0]

        singles = [result_for(n) for n in (3, 5)]
        batch = FastEngine(
            Flood([0, 0]),
            [
                FastLane(dyn([nx.path_graph(3)]), 3, leader=None),
                FastLane(dyn([nx.path_graph(5)]), 5, leader=None),
            ],
            config=EngineConfig(stop_when="all", max_rounds=10),
        ).run()
        for single, lane in zip(singles, batch):
            assert single.rounds == lane.rounds
            assert single.outputs == lane.outputs

    def test_budget_stop_runs_exact_rounds(self):
        engine = FastEngine(
            Flood([0]),
            [FastLane(dyn([nx.path_graph(3)]), 3, leader=None)],
            config=EngineConfig(stop_when="budget", max_rounds=7),
        )
        assert engine.run()[0].rounds == 7

    def test_termination_error_on_budget_exhaustion(self):
        # Disconnected pair of components can never fully flood.
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        engine = FastEngine(
            Flood([0]),
            [FastLane(dyn([graph]), 4, leader=None)],
            config=EngineConfig(
                stop_when="all", max_rounds=5, require_connected=False
            ),
        )
        with pytest.raises(TerminationError, match="not met"):
            engine.run()

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        engine = FastEngine(
            Flood([0]),
            [FastLane(dyn([graph]), 4, leader=None)],
            config=EngineConfig(stop_when="all", max_rounds=5),
        )
        with pytest.raises(TopologyError, match="disconnected"):
            engine.run()

    def test_wrong_lane_size_rejected(self):
        engine = FastEngine(
            Flood([0]),
            [FastLane(dyn([nx.path_graph(4)]), 3, leader=None)],
            config=EngineConfig(stop_when="all", max_rounds=5),
        )
        with pytest.raises(
            TopologyError, match="lane 0 topology has 4 nodes, expected 3"
        ):
            engine.run()

    @pytest.mark.parametrize("lane_nodes", [4, 2048])
    def test_disconnected_lane_named_with_its_round(self, lane_nodes):
        # Small stacks label components, large ones run one rooted BFS;
        # both must name the first disconnected lane and the round.
        path = nx.path_graph(lane_nodes)
        split = path.copy()
        split.remove_edge(0, 1)
        lanes = [
            held(path),
            dyn([path, path, split]),
            held(path),
            dyn([path, path, split]),
        ]
        with pytest.raises(
            TopologyError,
            match=r"^round 2: lane 1 graph is disconnected but 1-interval "
            "connectivity is required$",
        ):
            run_lanes(lanes, 5)

    def test_trace_level_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            FastEngine(
                Flood([0]),
                [FastLane(dyn([nx.path_graph(3)]), 3, leader=None)],
                config=EngineConfig(trace_level=TraceLevel.TOPOLOGY),
            )

    def test_leader_stop_requires_leader(self):
        with pytest.raises(ValueError, match="leader"):
            FastEngine(
                Flood([0]),
                [FastLane(dyn([nx.path_graph(3)]), 3, leader=None)],
                config=EngineConfig(stop_when="leader"),
            )

    def test_empty_lanes_rejected(self):
        with pytest.raises(ValueError, match="lane"):
            FastEngine(Flood([]), [])

    def test_round_hook_called_per_round(self):
        seen = []
        engine = FastEngine(
            Flood([0]),
            [FastLane(dyn([nx.path_graph(4)]), 4, leader=None)],
            config=EngineConfig(stop_when="all", max_rounds=10),
            round_hook=seen.append,
        )
        engine.run()
        assert seen == [0, 1, 2]

    def test_counters_match_object_engine_semantics(self):
        # 1 run, 3 rounds, 3 graphs; sending set sizes 1, 2, 3 over the
        # path-4 flood; deliveries: round 0: node1 gets 1; round 1:
        # nodes 0 and 2 get 1 each... identical to the object engine on
        # the same workload (differential-tested in test_backends.py,
        # asserted absolutely here).
        registry = MetricsRegistry()
        with use_registry(registry):
            FastEngine(
                Flood([0]),
                [FastLane(dyn([nx.path_graph(4)]), 4, leader=None)],
                config=EngineConfig(stop_when="all", max_rounds=10),
            ).run()
        counters = registry.snapshot()["counters"]
        assert counters["engine.runs"] == 1
        assert counters["engine.rounds"] == 3
        assert counters["engine.graphs"] == 3
        assert counters["engine.messages_sent"] == 1 + 2 + 3

    def test_stopped_lane_excluded_from_counters(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            FastEngine(
                Flood([0, 0]),
                [
                    FastLane(dyn([nx.path_graph(2)]), 2, leader=None),
                    FastLane(dyn([nx.path_graph(4)]), 4, leader=None),
                ],
                config=EngineConfig(stop_when="all", max_rounds=10),
            ).run()
        counters = registry.snapshot()["counters"]
        assert counters["engine.runs"] == 2
        # Lane 0 stops after round 1; lane 1 needs 3 rounds.
        assert counters["engine.rounds"] == 1 + 3
        assert counters["engine.graphs"] == 1 + 3

    def test_static_topology_lowered_once(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            FastEngine(
                Flood([0]),
                [FastLane(dyn([nx.path_graph(6)]), 6, leader=None)],
                config=EngineConfig(stop_when="all", max_rounds=10),
            ).run()
        counters = registry.snapshot()["counters"]
        assert counters["adjacency.builds"] == 1
        # Flooding a 6-node path from one end takes 5 rounds.
        assert counters["adjacency.stack_hits"] == 5 - 1

    def test_bad_leader_index_rejected(self):
        with pytest.raises(ValueError, match="leader"):
            FastEngine(
                Flood([0]),
                [FastLane(dyn([nx.path_graph(3)]), 3, leader=5)],
            )
