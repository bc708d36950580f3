"""Tests for the synchronous engine."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import networkx as nx
import pytest

from repro.core.counting.flooding import FloodProcess
from repro.core.counting.star import make_star_processes
from repro.networks.csr import lower_graph
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators import RandomConnectedAdversary, star_network
from repro.simulation.engine import (
    DegreeOracleEngine,
    EngineConfig,
    SynchronousEngine,
)
from repro.simulation.errors import (
    ModelError,
    ProtocolViolationError,
    TerminationError,
    TopologyError,
)
from repro.simulation.messages import Inbox
from repro.simulation.node import Process

from tests.conftest import recorded_telemetry


class EchoProcess(Process):
    """Broadcasts a constant; records everything received."""

    def __init__(self, tag="echo"):
        self.tag = tag
        self.received: list[tuple[int, Inbox]] = []

    def compose(self, round_no):
        return self.tag

    def deliver(self, round_no, inbox):
        self.received.append((round_no, inbox))


class CountdownProcess(Process):
    """Outputs after a fixed number of rounds."""

    def __init__(self, rounds):
        self.rounds_left = rounds

    def compose(self, round_no):
        return "tick"

    def deliver(self, round_no, inbox):
        self.rounds_left -= 1
        if self.rounds_left <= 0:
            self._output = "done"


def held(graph):
    """``graph`` at every round."""
    return DynamicGraph.from_graphs([graph], extend="hold")


def ring(n):
    return held(nx.cycle_graph(n))


class TestEngineBasics:
    def test_messages_flow_between_neighbours(self):
        processes = [EchoProcess(f"p{i}") for i in range(3)]
        engine = SynchronousEngine(
            processes,
            ring(3),
            leader=None,
            config=EngineConfig(max_rounds=1, stop_when="budget"),
        )
        engine.run()
        # In a triangle everyone hears the other two.
        for i, process in enumerate(processes):
            (round_no, inbox), = process.received
            assert round_no == 0
            expected = {f"p{j}" for j in range(3) if j != i}
            assert set(inbox) == expected

    def test_path_neighbours_exchange_payloads(self):
        processes = [EchoProcess("a"), EchoProcess("b")]
        SynchronousEngine(
            processes,
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(max_rounds=1, stop_when="budget"),
        ).run()
        assert processes[0].received == [(0, Inbox(["b"]))]
        assert processes[1].received == [(0, Inbox(["a"]))]

    def test_anonymity_no_sender_information(self):
        processes = [EchoProcess("same") for _ in range(4)]
        engine = SynchronousEngine(
            processes,
            ring(4),
            leader=None,
            config=EngineConfig(max_rounds=1, stop_when="budget"),
        )
        engine.run()
        # Both neighbours sent identical payloads; the inbox holds two
        # indistinguishable copies.
        inbox = processes[0].received[0][1]
        assert inbox.counts() == {"same": 2}

    def test_none_payload_is_silence(self):
        class Silent(Process):
            def compose(self, round_no):
                return None

            def deliver(self, round_no, inbox):
                self.inbox = inbox

        processes = [Silent(), Silent()]
        engine = SynchronousEngine(
            processes,
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(max_rounds=1, stop_when="budget"),
        )
        engine.run()
        assert len(processes[0].inbox) == 0

    def test_stop_when_leader(self):
        processes = [CountdownProcess(3), CountdownProcess(100)]
        engine = SynchronousEngine(
            processes, held(nx.path_graph(2)), leader=0
        )
        result = engine.run()
        assert result.rounds == 3
        assert result.leader_output == "done"
        assert result.terminated

    def test_stop_when_all(self):
        processes = [CountdownProcess(2), CountdownProcess(5)]
        engine = SynchronousEngine(
            processes,
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(stop_when="all"),
        )
        assert engine.run().rounds == 5

    def test_stop_when_any(self):
        processes = [CountdownProcess(2), CountdownProcess(5)]
        engine = SynchronousEngine(
            processes,
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(stop_when="any"),
        )
        assert engine.run().rounds == 2

    def test_stop_when_budget_runs_exact_rounds(self):
        processes = [CountdownProcess(1), CountdownProcess(1)]
        engine = SynchronousEngine(
            processes,
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(max_rounds=7, stop_when="budget"),
        )
        result = engine.run()
        assert result.rounds == 7
        assert result.terminated

    def test_budget_exhaustion_raises(self):
        processes = [CountdownProcess(100), CountdownProcess(100)]
        engine = SynchronousEngine(
            processes,
            held(nx.path_graph(2)),
            leader=0,
            config=EngineConfig(max_rounds=3),
        )
        with pytest.raises(TerminationError):
            engine.run()

    def test_outputs_collected(self):
        processes = [CountdownProcess(1), CountdownProcess(2)]
        engine = SynchronousEngine(
            processes,
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(stop_when="all"),
        )
        result = engine.run()
        assert result.outputs == {0: "done", 1: "done"}


class TestEngineValidation:
    def test_rejects_empty_process_list(self):
        with pytest.raises(ValueError, match="at least one process"):
            SynchronousEngine([], held(nx.path_graph(1)))

    def test_rejects_bad_leader_index(self):
        with pytest.raises(ValueError, match="leader index"):
            SynchronousEngine([EchoProcess()], held(nx.path_graph(1)), leader=5)

    def test_leader_stop_requires_leader(self):
        with pytest.raises(ValueError, match="requires a leader"):
            SynchronousEngine(
                [EchoProcess()], held(nx.path_graph(1)), leader=None
            )

    def test_wrong_node_set_raises(self):
        """The node count is checked once, when the engine is built."""
        with pytest.raises(TopologyError, match="do not match process indices"):
            SynchronousEngine(
                [EchoProcess(), EchoProcess()],
                held(nx.path_graph(3)),
                leader=None,
                config=EngineConfig(stop_when="budget", max_rounds=1),
            )

    def test_disconnected_graph_raises(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(2))
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess()],
            held(graph),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=1),
        )
        with pytest.raises(TopologyError, match="disconnected"):
            engine.run()

    def test_self_loop_raises(self):
        """Regression: a self-loop delivered a node its own broadcast.

        The dynamic graph refuses the round's edge arrays when they are
        drawn, before the engine delivers anything."""
        graph = nx.path_graph(2)
        graph.add_edge(1, 1)
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess()],
            held(graph),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=1),
        )
        with pytest.raises(TopologyError, match="self-loop"):
            engine.run()

    def test_self_loop_rejected_even_without_connectivity_check(self):
        graph = nx.path_graph(3)
        graph.add_edge(0, 0)
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess(), EchoProcess()],
            held(graph),
            leader=None,
            config=EngineConfig(
                stop_when="budget", max_rounds=1, require_connected=False
            ),
        )
        with pytest.raises(TopologyError, match="self-loop"):
            engine.run()

    def test_no_self_delivery_on_clean_graph(self):
        processes = [EchoProcess(f"p{i}") for i in range(2)]
        engine = SynchronousEngine(
            processes,
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=1),
        )
        engine.run()
        for process in processes:
            _, inbox = process.received[0]
            assert process.tag not in inbox

    def test_disconnected_allowed_when_not_required(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(2))
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess()],
            held(graph),
            leader=None,
            config=EngineConfig(
                stop_when="budget", max_rounds=1, require_connected=False
            ),
        )
        assert engine.run().rounds == 1

    def test_unhashable_payload_raises_with_validation(self):
        class Bad(Process):
            def compose(self, round_no):
                return [1, 2]

            def deliver(self, round_no, inbox):
                pass

        engine = SynchronousEngine(
            [Bad(), Bad()],
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(
                stop_when="budget", max_rounds=1, validate_payloads=True
            ),
        )
        with pytest.raises(ProtocolViolationError, match="unhashable"):
            engine.run()

    def test_payload_validation_off_by_default(self):
        """The hashability check is a debug flag, off on the hot path."""

        class Bad(Process):
            def compose(self, round_no):
                return [1, 2]

            def deliver(self, round_no, inbox):
                self.inbox = inbox

        engine = SynchronousEngine(
            [Bad(), Bad()],
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=1),
        )
        assert engine.run().rounds == 1

    def test_graph_validation_memoized_per_object(self):
        """A held graph object is validated once, not once per round."""
        graph = nx.path_graph(3)
        calls = 0
        real_is_connected = nx.is_connected

        def counting_is_connected(g):
            nonlocal calls
            calls += 1
            return real_is_connected(g)

        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess(), EchoProcess()],
            held(graph),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=5),
        )
        import repro.simulation.engine as engine_mod

        original = engine_mod.nx.is_connected
        engine_mod.nx.is_connected = counting_is_connected
        try:
            engine.run()
        finally:
            engine_mod.nx.is_connected = original
        assert calls == 1

    def test_fresh_graphs_each_round_all_validated(self):
        """Distinct graph objects are each validated (no false hits)."""
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess()],
            DynamicGraph.from_graphs(
                [nx.path_graph(2), nx.Graph([(0, 1)])], extend="cycle"
            ),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=4),
        )
        assert engine.run().rounds == 4

    def test_validated_graphs_are_not_kept(self):
        """Only the last validated graph is held: a topology serving a
        new graph every round leaves earlier rounds collectable."""
        refs = []
        network = DynamicGraph(3, lambda round_no: ([0, 1], [1, 2]))
        served = network.at

        def at(round_no):
            graph = served(round_no)
            refs.append(weakref.ref(graph))
            return graph

        network.at = at
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess(), EchoProcess()],
            network,
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=12),
        )
        engine.run()
        gc.collect()
        assert len(refs) == 12
        assert [ref() is None for ref in refs] == [True] * 11 + [False]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            EngineConfig(max_rounds=0)
        with pytest.raises(ValueError):
            EngineConfig(stop_when="never")

    def test_config_fields(self):
        """The whole run configuration; a run's per-round record is its
        telemetry event, not a config-selected trace."""
        assert [field.name for field in dataclasses.fields(EngineConfig)] == [
            "max_rounds",
            "stop_when",
            "require_connected",
            "validate_payloads",
        ]


def _mixed_labels() -> nx.Graph:
    return nx.Graph([(0, 1), (1, "x"), ("x", 7)])


@pytest.mark.parametrize(
    "check, error, match",
    [
        (
            lambda: lower_graph(_mixed_labels()),
            TopologyError,
            "do not match the process indices",
        ),
        (
            lambda: DynamicGraph.from_graphs([_mixed_labels()]),
            ModelError,
            r"unexpected labels \[7, 'x'\]",
        ),
        (
            lambda: SynchronousEngine(
                [EchoProcess() for _ in range(4)],
                DynamicGraph.from_graphs([_mixed_labels()]),
                leader=None,
            ),
            ModelError,
            r"unexpected labels \[7, 'x'\]",
        ),
    ],
    ids=["lower_graph", "from_graphs", "engine"],
)
def test_mixed_type_labels_raise_model_error(check, error, match):
    """Regression: sorting ``int`` and ``str`` labels for the message
    raised ``TypeError`` instead of the model error.  The engine never
    sees node labels: it runs on a dynamic graph, which ``from_graphs``
    refuses to build from such a graph."""
    with pytest.raises(error, match=match):
        check()


class TestTopologyProviderCoercion:
    """What the engines accept as a topology (``network_of``)."""

    def test_callable_is_rejected(self):
        with pytest.raises(TypeError, match="as_dynamic_graph"):
            SynchronousEngine(
                [EchoProcess(), EchoProcess()], lambda round_no: nx.path_graph(2)
            )

    def test_provider_object_passthrough(self):
        network = held(nx.path_graph(2))
        engine = SynchronousEngine([EchoProcess(), EchoProcess()], network)
        assert engine.network is network

    def test_adversary_converts_once(self):
        adversary = RandomConnectedAdversary(4, seed=1)
        engine = SynchronousEngine([EchoProcess() for _ in range(4)], adversary)
        assert engine.network is adversary.as_dynamic_graph()

    def test_rejects_non_topology(self):
        with pytest.raises(TypeError):
            SynchronousEngine([EchoProcess()], 42)


class TestEachRoundCheckedOnce:
    """The object engine reads validated rounds and adds one check."""

    ROUNDS = 9

    def test_fresh_round_arrays_validated_once(self, monkeypatch):
        from repro.networks import csr, csr_native

        calls = 0
        real = csr.validate_edge_arrays

        def counting(n, u, v):
            nonlocal calls
            calls += 1
            return real(n, u, v)

        # Both bindings: the dynamic graph's and the CSR module's own.
        monkeypatch.setattr(csr, "validate_edge_arrays", counting)
        monkeypatch.setattr(csr_native, "validate_edge_arrays", counting)
        network = RandomConnectedAdversary(16, seed=11).as_dynamic_graph()
        processes = [FloodProcess(index == 0) for index in range(16)]
        result = SynchronousEngine(
            processes,
            network,
            leader=None,
            config=EngineConfig(max_rounds=self.ROUNDS, stop_when="budget"),
        ).run()
        assert result.rounds == self.ROUNDS
        assert calls == self.ROUNDS

    def test_held_star_connectivity_checked_once(self, monkeypatch):
        import repro.simulation.engine as engine_mod

        calls = 0
        real = nx.is_connected

        def counting(graph):
            nonlocal calls
            calls += 1
            return real(graph)

        monkeypatch.setattr(engine_mod.nx, "is_connected", counting)
        processes, leader = make_star_processes(6)
        SynchronousEngine(
            processes,
            star_network(6),
            leader=None,
            config=EngineConfig(max_rounds=self.ROUNDS, stop_when="budget"),
        ).run()
        assert calls == 1


class TestTracing:
    """A run's per-round record is its telemetry event."""

    def test_topology_trace_records_graphs(self):
        processes = [EchoProcess(), EchoProcess()]
        engine = SynchronousEngine(
            processes,
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=3),
        )
        with recorded_telemetry() as events:
            engine.run()
        assert [event["round"] for event in events] == [0, 1, 2]
        assert all(event["edges"] == 1 for event in events)
        assert sum(event["delivered"] for event in events) == 3 * 2


class TestDegreeOracleEngine:
    def test_degrees_observed_before_send(self):
        observed = []

        class Observer(Process):
            def observe_degree(self, round_no, degree):
                observed.append((round_no, degree))

            def compose(self, round_no):
                return "x"

            def deliver(self, round_no, inbox):
                pass

        engine = DegreeOracleEngine(
            [Observer(), Observer(), Observer()],
            held(nx.star_graph(2)),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=1),
        )
        engine.run()
        degrees = sorted(degree for _round, degree in observed)
        assert degrees == [1, 1, 2]

    def test_processes_without_hook_are_fine(self):
        engine = DegreeOracleEngine(
            [EchoProcess(), EchoProcess()],
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=1),
        )
        assert engine.run().rounds == 1

    def test_observers_resolved_at_construction(self):
        """The observer list is built once, not via getattr per round."""
        observed = []

        class Observer(Process):
            def observe_degree(self, round_no, degree):
                observed.append((round_no, degree))

            def compose(self, round_no):
                return "x"

            def deliver(self, round_no, inbox):
                pass

        engine = DegreeOracleEngine(
            [Observer(), EchoProcess()],
            held(nx.path_graph(2)),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=3),
        )
        assert engine._observers and engine._observers[0][0] == 0
        engine.run()
        assert observed == [(0, 1), (1, 1), (2, 1)]
