"""The synchronous round engine for anonymous dynamic networks.

The engine owns the global round loop of the model in Section 3 of the
paper: at each round ``r`` the adversary fixes a communication graph
``G_r`` over the (static) process set, every process broadcasts one
payload (send phase), and every process is then delivered the payloads
of its ``G_r``-neighbours with no sender information (receive phase).

The adversary is any object implementing :class:`TopologyProvider` --
including an *omniscient* worst-case adversary, since the provider is
handed the live process objects and may inspect their state before
choosing the round's graph.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import networkx as nx

from repro.obs import telemetry as telemetry_mod
from repro.obs.logger import get_logger
from repro.obs.metrics import counter
from repro.simulation.errors import (
    ProtocolViolationError,
    TerminationError,
    TopologyError,
    sorted_labels,
)
from repro.simulation.messages import Inbox, canonical_sort_key
from repro.simulation.node import Process
from repro.simulation.trace import RoundRecord, SimulationTrace, TraceLevel

_log = get_logger("simulation.engine")

__all__ = [
    "TopologyProvider",
    "EngineConfig",
    "SimulationResult",
    "SynchronousEngine",
    "DegreeOracleEngine",
    "as_topology_provider",
]


@runtime_checkable
class TopologyProvider(Protocol):
    """The adversary interface: produce the communication graph per round.

    The provider receives the live process objects, so a worst-case
    adversary may base its choice on the processes' internal state (the
    model's adversary is omniscient).  The returned graph must have node
    set ``{0, ..., n-1}`` where ``n = len(processes)``.
    """

    def graph(self, round_no: int, processes: Sequence[Process]) -> nx.Graph:
        """Return the communication graph for ``round_no``."""
        ...


class _CallableTopology:
    """Adapt a plain ``f(round_no) -> nx.Graph`` callable to the protocol."""

    def __init__(self, fn: Callable[[int], nx.Graph]) -> None:
        self._fn = fn

    def graph(self, round_no: int, processes: Sequence[Process]) -> nx.Graph:
        return self._fn(round_no)


def as_topology_provider(
    topology: TopologyProvider | Callable[[int], nx.Graph],
) -> TopologyProvider:
    """Coerce ``topology`` to a :class:`TopologyProvider`.

    Accepts either an object with a ``graph(round_no, processes)`` method
    (e.g. any adversary, or :class:`repro.networks.DynamicGraph`) or a
    plain callable mapping a round number to a graph.
    """
    if isinstance(topology, TopologyProvider):
        return topology
    if callable(topology):
        return _CallableTopology(topology)
    raise TypeError(f"cannot interpret {topology!r} as a topology provider")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of a :class:`SynchronousEngine` run.

    Attributes:
        max_rounds: Round budget; exceeding it raises
            :class:`TerminationError` unless ``stop_when`` is ``"budget"``.
        stop_when: Termination criterion -- ``"leader"`` stops when the
            leader process outputs, ``"all"`` when every process outputs,
            ``"any"`` when at least one outputs, and ``"budget"`` runs
            exactly ``max_rounds`` rounds.
        require_connected: Verify that every round's graph is connected
            (the 1-interval connectivity assumption).  Enabled by default
            because every model in the paper assumes it.  The engine
            remembers the last graph object it validated, so a provider
            that serves the same graph for consecutive rounds (a held
            topology) has it checked once.
        validate_payloads: Debug flag: verify every broadcast payload is
            hashable during the send phase.  Off by default -- the check
            runs ``hash(payload)`` for every process every round, which
            is measurable on the hot path; enable it when developing a
            new protocol (unhashable payloads surface as a
            :class:`ProtocolViolationError` at the offending round
            instead of a confusing failure wherever a multiset view is
            first taken).
        trace_level: How much per-round detail to record.
    """

    max_rounds: int = 10_000
    stop_when: str = "leader"
    require_connected: bool = True
    validate_payloads: bool = False
    trace_level: TraceLevel = TraceLevel.NONE

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.stop_when not in {"leader", "all", "any", "budget"}:
            raise ValueError(
                "stop_when must be one of 'leader', 'all', 'any', 'budget'"
            )


@dataclass
class SimulationResult:
    """Outcome of a synchronous execution.

    Attributes:
        rounds: Number of rounds executed (the last executed round is
            ``rounds - 1``; round numbering starts at 0).
        outputs: Mapping from process index to its output (only processes
            that produced an output appear).
        leader_output: Output of the leader process, or ``None``.
        terminated: Whether the stop criterion was met within budget.
        trace: The recorded trace (empty at ``TraceLevel.NONE``).
    """

    rounds: int
    outputs: dict[int, Any]
    leader_output: Any
    terminated: bool
    trace: SimulationTrace = field(default_factory=SimulationTrace)


class SynchronousEngine:
    """Drive a set of processes through synchronous anonymous rounds.

    Args:
        processes: The process objects, indexed ``0..n-1``.  Indices are
            engine bookkeeping only and are never revealed to processes.
        topology: The adversary (see :func:`as_topology_provider`).
        leader: Index of the leader process, used for the ``"leader"``
            stop criterion and for ``leader_output`` reporting.  May be
            ``None`` for leaderless protocols.
        config: Engine configuration.

    Example:
        >>> from repro.simulation import SynchronousEngine, EngineConfig
        >>> from repro.core.counting.star import make_star_processes
        >>> import networkx as nx
        >>> processes, leader = make_star_processes(5)
        >>> engine = SynchronousEngine(
        ...     processes, lambda r: nx.star_graph(4), leader=leader
        ... )
        >>> engine.run().leader_output
        5
    """

    def __init__(
        self,
        processes: Sequence[Process],
        topology: TopologyProvider | Callable[[int], nx.Graph],
        *,
        leader: int | None = 0,
        config: EngineConfig | None = None,
    ) -> None:
        if not processes:
            raise ValueError("need at least one process")
        self.processes: list[Process] = list(processes)
        self.topology = as_topology_provider(topology)
        self.leader = leader
        self.config = config or EngineConfig()
        if leader is not None and not 0 <= leader < len(self.processes):
            raise ValueError(f"leader index {leader} out of range")
        if self.config.stop_when == "leader" and leader is None:
            raise ValueError("stop_when='leader' requires a leader index")
        # Validation memo: the last graph object checked.  A held graph
        # (the same object again next round) is validated once; mutating
        # a served graph between rounds is unsupported.
        self._last_validated: nx.Graph | None = None
        # Round telemetry config, captured once per run(); None when
        # disabled, so the per-round guard is one attribute check.
        self._telemetry: telemetry_mod.Telemetry | None = None

    def run(self) -> SimulationResult:
        """Execute rounds until the stop criterion is met.

        Raises:
            TerminationError: The criterion was not met within
                ``config.max_rounds`` (never raised for ``"budget"``).
            TopologyError: The adversary produced an invalid graph.
        """
        config = self.config
        trace = SimulationTrace(level=config.trace_level)
        n = len(self.processes)
        expected_nodes = set(range(n))

        counter("engine.runs")
        self._telemetry = telemetry_mod.active()
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "run started",
                extra={
                    "n": n,
                    "stop_when": config.stop_when,
                    "max_rounds": config.max_rounds,
                    "trace_level": int(config.trace_level),
                },
            )
        rounds_executed = 0
        for round_no in range(config.max_rounds):
            graph = self._validated_graph(round_no, expected_nodes)
            self._execute_round(round_no, graph, trace)
            rounds_executed = round_no + 1
            if self._stop_criterion_met():
                self._log_run_end(rounds_executed, terminated=True)
                return self._result(rounds_executed, trace, terminated=True)

        if config.stop_when == "budget":
            self._log_run_end(rounds_executed, terminated=True)
            return self._result(rounds_executed, trace, terminated=True)
        raise TerminationError(
            f"stop criterion {config.stop_when!r} not met within "
            f"{config.max_rounds} rounds"
        )

    def _log_run_end(self, rounds: int, *, terminated: bool) -> None:
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "run finished",
                extra={"rounds": rounds, "terminated": terminated},
            )

    def _validated_graph(self, round_no: int, expected_nodes: set[int]) -> nx.Graph:
        graph = self.topology.graph(round_no, self.processes)
        counter("engine.graphs")
        if graph is self._last_validated:
            return graph
        if set(graph.nodes) != expected_nodes:
            raise TopologyError(
                f"round {round_no}: graph nodes "
                f"{sorted_labels(graph.nodes)[:10]}... "
                f"do not match process indices 0..{len(expected_nodes) - 1}"
            )
        # A self-loop would deliver a node its own broadcast -- outside
        # the paper's model, where neighbourhoods never include self.
        loops = [node for node, _ in nx.selfloop_edges(graph)]
        if loops:
            raise TopologyError(
                f"round {round_no}: self-loop at node(s) {sorted(loops)[:10]}; "
                "a process is never its own neighbour"
            )
        if (
            self.config.require_connected
            and len(expected_nodes) > 1
            and not nx.is_connected(graph)
        ):
            raise TopologyError(
                f"round {round_no}: graph is disconnected but 1-interval "
                "connectivity is required"
            )
        self._last_validated = graph
        return graph

    def _before_send(self, round_no: int, graph: nx.Graph) -> None:
        """Hook invoked before the send phase of every round.

        The base engine does nothing: in the paper's model a node does
        not know its round-``r`` degree before the receive phase of
        ``r``.  :class:`DegreeOracleEngine` overrides this to implement
        the *local degree detector* of the Discussion (Section 4.2).
        """

    def _execute_round(
        self, round_no: int, graph: nx.Graph, trace: SimulationTrace
    ) -> None:
        self._before_send(round_no, graph)
        # Send phase: every process composes its broadcast payload before
        # any delivery happens (the two phases are globally synchronous).
        validate = self.config.validate_payloads
        payloads: list[Any] = []
        for process in self.processes:
            payload = process.compose(round_no)
            if validate and payload is not None:
                try:
                    hash(payload)
                except TypeError as exc:
                    raise ProtocolViolationError(
                        f"round {round_no}: unhashable broadcast payload "
                        f"{payload!r} from {type(process).__name__}"
                    ) from exc
            payloads.append(payload)

        # Receive phase: deliver each neighbour's payload anonymously.
        # Each payload is keyed once per round, not once per delivery; a
        # stable sort of the neighbour indices by those keys yields the
        # same order as ``Inbox(...)`` sorting the payloads themselves.
        keys = [
            None if payload is None else canonical_sort_key(payload)
            for payload in payloads
        ]
        delivered = 0
        deliveries: dict[int, Any] | None = (
            {} if trace.level >= TraceLevel.FULL else None
        )
        for index, process in enumerate(self.processes):
            senders = [
                neighbour
                for neighbour in graph.neighbors(index)
                if keys[neighbour] is not None
            ]
            senders.sort(key=keys.__getitem__)
            inbox = Inbox._from_sorted(
                tuple(payloads[neighbour] for neighbour in senders)
            )
            delivered += len(inbox)
            if deliveries is not None:
                deliveries[index] = inbox
            process.deliver(round_no, inbox)

        sent = sum(1 for p in payloads if p is not None)
        counter("engine.rounds")
        counter("engine.messages_sent", sent)
        counter("engine.messages_delivered", delivered)
        if self._telemetry is not None and self._telemetry.wants(round_no):
            self._emit_telemetry(round_no, graph, sent, delivered)
        if trace.level >= TraceLevel.TOPOLOGY:
            trace.append(
                RoundRecord(
                    round_no=round_no,
                    graph=graph.copy(),
                    messages_sent=sent,
                    messages_delivered=delivered,
                    deliveries=deliveries,
                )
            )
        if _log.isEnabledFor(logging.DEBUG):
            # The same stats a RoundRecord carries, at every TraceLevel
            # (the trace may be off while the event log is on).
            _log.debug(
                "round executed",
                extra={
                    "round_no": round_no,
                    "edges": graph.number_of_edges(),
                    "sent": sent,
                    "delivered": delivered,
                },
            )

    def _emit_telemetry(
        self, round_no: int, graph: nx.Graph, sent: int, delivered: int
    ) -> None:
        """One sampled round record (post-round state; see obs.telemetry)."""
        informed = 0
        terminated = 0
        for process in self.processes:
            done = process.output() is not None
            terminated += done
            informed += bool(getattr(process, "informed", done))
        self._telemetry.emit(
            {
                "engine": "object",
                "round": round_no,
                "edges": graph.number_of_edges(),
                "sent": sent,
                "delivered": delivered,
                "informed": informed,
                "terminated": terminated,
                "nodes": len(self.processes),
                "lanes_active": 1,
            }
        )

    def _stop_criterion_met(self) -> bool:
        stop_when = self.config.stop_when
        if stop_when == "budget":
            return False
        if stop_when == "leader":
            return self.processes[self.leader].output() is not None
        outputs = (process.output() is not None for process in self.processes)
        return all(outputs) if stop_when == "all" else any(outputs)

    def _result(
        self, rounds: int, trace: SimulationTrace, *, terminated: bool
    ) -> SimulationResult:
        outputs = {
            index: output
            for index, process in enumerate(self.processes)
            if (output := process.output()) is not None
        }
        leader_output = (
            self.processes[self.leader].output() if self.leader is not None else None
        )
        return SimulationResult(
            rounds=rounds,
            outputs=outputs,
            leader_output=leader_output,
            terminated=terminated,
            trace=trace,
        )


class DegreeOracleEngine(SynchronousEngine):
    """An engine whose processes know their degree before sending.

    Implements the *local degree detector* oracle of the paper's
    Discussion (after Kuhn-style degree knowledge in Di Luna et al.,
    ICDCS 2014): before the send phase of round ``r``, every process
    that defines an ``observe_degree`` method is told ``|N(v, r)|``.
    The paper shows this minimal extra knowledge collapses the counting
    time of restricted ``G(PD)_2`` networks from ``Ω(log |V|)`` to
    ``O(1)`` -- the gap measured by ``benchmarks/bench_oracle.py``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Resolve the observers once: the set of processes is fixed for
        # the engine's lifetime, so the per-round ``getattr`` over every
        # process was pure hot-path overhead.  Processes that grow an
        # ``observe_degree`` attribute after construction are not seen.
        self._observers: list[tuple[int, Callable[[int, int], None]]] = [
            (index, observe)
            for index, process in enumerate(self.processes)
            if (observe := getattr(process, "observe_degree", None)) is not None
        ]

    def _before_send(self, round_no: int, graph: nx.Graph) -> None:
        for index, observe in self._observers:
            observe(round_no, graph.degree(index))
