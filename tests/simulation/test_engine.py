"""Tests for the synchronous engine."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.networks.csr import lower_graph
from repro.networks.csr_native import DynamicGraph
from repro.simulation.engine import (
    DegreeOracleEngine,
    EngineConfig,
    SynchronousEngine,
    as_topology_provider,
)
from repro.simulation.errors import (
    ModelError,
    ProtocolViolationError,
    TerminationError,
    TopologyError,
)
from repro.simulation.messages import Inbox
from repro.simulation.node import Process
from repro.simulation.trace import TraceLevel


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


def ring(n):
    return lambda round_no: nx.cycle_graph(n)


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
            lambda r: nx.path_graph(2),
            leader=None,
            config=EngineConfig(max_rounds=1, stop_when="budget"),
        )
        engine.run()
        assert len(processes[0].inbox) == 0

    def test_stop_when_leader(self):
        processes = [CountdownProcess(3), CountdownProcess(100)]
        engine = SynchronousEngine(
            processes, lambda r: nx.path_graph(2), leader=0
        )
        result = engine.run()
        assert result.rounds == 3
        assert result.leader_output == "done"
        assert result.terminated

    def test_stop_when_all(self):
        processes = [CountdownProcess(2), CountdownProcess(5)]
        engine = SynchronousEngine(
            processes,
            lambda r: nx.path_graph(2),
            leader=None,
            config=EngineConfig(stop_when="all"),
        )
        assert engine.run().rounds == 5

    def test_stop_when_any(self):
        processes = [CountdownProcess(2), CountdownProcess(5)]
        engine = SynchronousEngine(
            processes,
            lambda r: nx.path_graph(2),
            leader=None,
            config=EngineConfig(stop_when="any"),
        )
        assert engine.run().rounds == 2

    def test_stop_when_budget_runs_exact_rounds(self):
        processes = [CountdownProcess(1), CountdownProcess(1)]
        engine = SynchronousEngine(
            processes,
            lambda r: nx.path_graph(2),
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
            lambda r: nx.path_graph(2),
            leader=0,
            config=EngineConfig(max_rounds=3),
        )
        with pytest.raises(TerminationError):
            engine.run()

    def test_outputs_collected(self):
        processes = [CountdownProcess(1), CountdownProcess(2)]
        engine = SynchronousEngine(
            processes,
            lambda r: nx.path_graph(2),
            leader=None,
            config=EngineConfig(stop_when="all"),
        )
        result = engine.run()
        assert result.outputs == {0: "done", 1: "done"}


class TestEngineValidation:
    def test_rejects_empty_process_list(self):
        with pytest.raises(ValueError, match="at least one process"):
            SynchronousEngine([], ring(0))

    def test_rejects_bad_leader_index(self):
        with pytest.raises(ValueError, match="leader index"):
            SynchronousEngine([EchoProcess()], ring(1), leader=5)

    def test_leader_stop_requires_leader(self):
        with pytest.raises(ValueError, match="requires a leader"):
            SynchronousEngine([EchoProcess()], ring(1), leader=None)

    def test_wrong_node_set_raises(self):
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess()],
            lambda r: nx.path_graph(3),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=1),
        )
        with pytest.raises(TopologyError, match="do not match"):
            engine.run()

    def test_disconnected_graph_raises(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(2))
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess()],
            lambda r: graph,
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=1),
        )
        with pytest.raises(TopologyError, match="disconnected"):
            engine.run()

    def test_self_loop_raises(self):
        """Regression: a self-loop delivered a node its own broadcast."""
        graph = nx.path_graph(2)
        graph.add_edge(1, 1)
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess()],
            lambda r: graph,
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
            lambda r: graph,
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
            lambda r: nx.path_graph(2),
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
            lambda r: graph,
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
            lambda r: nx.path_graph(2),
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
            lambda r: nx.path_graph(2),
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
            lambda r: graph,
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
            lambda r: nx.path_graph(2) if r % 2 == 0 else nx.Graph([(0, 1)]),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=4),
        )
        assert engine.run().rounds == 4

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            EngineConfig(max_rounds=0)
        with pytest.raises(ValueError):
            EngineConfig(stop_when="never")


def _mixed_labels() -> nx.Graph:
    return nx.Graph([(0, 1), (1, "x"), ("x", 7)])


def _engine_run(graph: nx.Graph) -> None:
    SynchronousEngine(
        [EchoProcess() for _ in range(graph.number_of_nodes())],
        lambda r: graph,
        leader=None,
        config=EngineConfig(stop_when="budget", max_rounds=1),
    ).run()


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
            lambda: _engine_run(_mixed_labels()),
            TopologyError,
            "do not match process indices",
        ),
    ],
    ids=["lower_graph", "from_graphs", "engine"],
)
def test_mixed_type_labels_raise_model_error(check, error, match):
    """Regression: sorting ``int`` and ``str`` labels for the message
    raised ``TypeError`` instead of the model error."""
    with pytest.raises(error, match=match):
        check()


class TestTopologyProviderCoercion:
    def test_callable_is_wrapped(self):
        provider = as_topology_provider(lambda r: nx.path_graph(2))
        assert provider.graph(0, []).number_of_nodes() == 2

    def test_provider_object_passthrough(self):
        class Provider:
            def graph(self, round_no, processes):
                return nx.path_graph(2)

        provider = Provider()
        assert as_topology_provider(provider) is provider

    def test_rejects_non_topology(self):
        with pytest.raises(TypeError):
            as_topology_provider(42)

    def test_adversary_sees_processes(self):
        seen = []

        class Omniscient:
            def graph(self, round_no, processes):
                seen.append(len(processes))
                return nx.path_graph(2)

        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess()],
            Omniscient(),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=2),
        )
        engine.run()
        assert seen == [2, 2]


class TestTracing:
    def test_topology_trace_records_graphs(self):
        processes = [EchoProcess(), EchoProcess()]
        engine = SynchronousEngine(
            processes,
            lambda r: nx.path_graph(2),
            leader=None,
            config=EngineConfig(
                stop_when="budget",
                max_rounds=3,
                trace_level=TraceLevel.TOPOLOGY,
            ),
        )
        trace = engine.run().trace
        assert trace.rounds == 3
        assert all(record.graph.number_of_edges() == 1 for record in trace)
        assert trace.total_messages == 3 * 2

    def test_full_trace_records_deliveries(self):
        processes = [EchoProcess("a"), EchoProcess("b")]
        engine = SynchronousEngine(
            processes,
            lambda r: nx.path_graph(2),
            leader=None,
            config=EngineConfig(
                stop_when="budget", max_rounds=1, trace_level=TraceLevel.FULL
            ),
        )
        trace = engine.run().trace
        assert trace[0].deliveries[0] == Inbox(["b"])
        assert trace[0].deliveries[1] == Inbox(["a"])

    def test_no_trace_by_default(self):
        engine = SynchronousEngine(
            [EchoProcess(), EchoProcess()],
            lambda r: nx.path_graph(2),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=2),
        )
        assert engine.run().trace.rounds == 0


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
            lambda r: nx.star_graph(2),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=1),
        )
        engine.run()
        degrees = sorted(degree for _round, degree in observed)
        assert degrees == [1, 1, 2]

    def test_processes_without_hook_are_fine(self):
        engine = DegreeOracleEngine(
            [EchoProcess(), EchoProcess()],
            lambda r: nx.path_graph(2),
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
            lambda r: nx.path_graph(2),
            leader=None,
            config=EngineConfig(stop_when="budget", max_rounds=3),
        )
        assert engine._observers and engine._observers[0][0] == 0
        engine.run()
        assert observed == [(0, 1), (1, 1), (2, 1)]
