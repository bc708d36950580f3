"""The synchronous round engine for anonymous dynamic networks.

The engine owns the global round loop of the model in Section 3 of the
paper: at each round ``r`` the adversary fixes a communication graph
``G_r`` over the (static) process set, every process broadcasts one
payload (send phase), and every process is then delivered the payloads
of its ``G_r``-neighbours with no sender information (receive phase).

The adversary is a :class:`~repro.networks.DynamicGraph` -- the same
topology type the fast backend runs on -- or an object whose
``as_dynamic_graph()`` returns one.  The engine does not hand the
processes to its topology: every round's graph is fixed by the round
number alone, which is how the paper's worst-case adversaries are
written (as schedules, see docs/MODEL.md).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import networkx as nx

from repro.obs import telemetry as telemetry_mod
from repro.obs.logger import get_logger
from repro.obs.metrics import counter
from repro.simulation.errors import TerminationError, TopologyError
from repro.simulation.messages import Inbox, canonical_sort_key
from repro.simulation.node import Process, checked_compose

if TYPE_CHECKING:
    from repro.networks.csr_native import DynamicGraph

_log = get_logger("simulation.engine")

__all__ = [
    "EngineConfig",
    "SimulationResult",
    "SynchronousEngine",
    "DegreeOracleEngine",
    "network_of",
]


def network_of(
    topology: Any, n: int, *, label: str = "topology"
) -> DynamicGraph:
    """``topology`` as a :class:`DynamicGraph` over exactly ``n`` nodes.

    The one coercion both engines run, once per topology: a
    :class:`DynamicGraph` is used as is, and any other object must have
    an ``as_dynamic_graph()`` method returning one (e.g.
    :class:`~repro.networks.generators.RandomConnectedAdversary`).

    Raises:
        TypeError: ``topology`` is neither.
        TopologyError: The graph's node count is not ``n``; ``label``
            names the topology in the message.
    """
    # Imported here: repro.networks imports this package's errors.
    from repro.networks import csr_native

    to_graph = getattr(topology, "as_dynamic_graph", None)
    network = topology if to_graph is None else to_graph()
    if not isinstance(network, csr_native.DynamicGraph):
        raise TypeError(
            f"cannot run on {topology!r}: need a DynamicGraph or an "
            "object with an as_dynamic_graph() method"
        )
    if network.n != n:
        raise TopologyError(
            f"{label} has {network.n} nodes, expected {n}: its nodes "
            f"do not match process indices 0..{n - 1}"
        )
    return network


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
            remembers the last graph object it checked, and a dynamic
            graph serves one object for consecutive rounds with one
            round key (a held topology), so such rounds are checked once.
        validate_payloads: Debug flag: verify every broadcast payload is
            hashable during the send phase.  Off by default -- the check
            runs ``hash(payload)`` for every process every round, which
            is measurable on the hot path; enable it when developing a
            new protocol (unhashable payloads surface as a
            :class:`ProtocolViolationError` at the offending round
            instead of a confusing failure wherever a multiset view is
            first taken).

    A run's per-round record is its telemetry event
    (:mod:`repro.obs.telemetry`, ``--telemetry``), on this engine and
    the fast one alike; round ``r``'s graph is the topology's
    ``DynamicGraph.at(r)``.
    """

    max_rounds: int = 10_000
    stop_when: str = "leader"
    require_connected: bool = True
    validate_payloads: bool = False

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
    """

    rounds: int
    outputs: dict[int, Any]
    leader_output: Any
    terminated: bool


class SynchronousEngine:
    """Drive a set of processes through synchronous anonymous rounds.

    Args:
        processes: The process objects, indexed ``0..n-1``.  Indices are
            engine bookkeeping only and are never revealed to processes.
        topology: The adversary: a :class:`DynamicGraph` over
            ``len(processes)`` nodes, or an object whose
            ``as_dynamic_graph()`` returns one (see :func:`network_of`).
        leader: Index of the leader process, used for the ``"leader"``
            stop criterion and for ``leader_output`` reporting.  May be
            ``None`` for leaderless protocols.
        config: Engine configuration.

    Example:
        >>> from repro.simulation import SynchronousEngine, EngineConfig
        >>> from repro.core.counting.star import make_star_processes
        >>> from repro.networks import DynamicGraph
        >>> import networkx as nx
        >>> processes, leader = make_star_processes(5)
        >>> star = DynamicGraph.from_graphs([nx.star_graph(4)], extend="hold")
        >>> engine = SynchronousEngine(processes, star, leader=leader)
        >>> engine.run().leader_output
        5
    """

    def __init__(
        self,
        processes: Sequence[Process],
        topology: Any,
        *,
        leader: int | None = 0,
        config: EngineConfig | None = None,
    ) -> None:
        if not processes:
            raise ValueError("need at least one process")
        self.processes: list[Process] = list(processes)
        self.network = network_of(topology, len(self.processes))
        self.leader = leader
        self.config = config or EngineConfig()
        if leader is not None and not 0 <= leader < len(self.processes):
            raise ValueError(f"leader index {leader} out of range")
        if self.config.stop_when == "leader" and leader is None:
            raise ValueError("stop_when='leader' requires a leader index")
        # Connectivity memo: the last graph object checked.  A held graph
        # (the same object again next round) is checked once; mutating a
        # served graph between rounds is unsupported.
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
        n = len(self.processes)

        counter("engine.runs")
        self._telemetry = telemetry_mod.active()
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "run started",
                extra={
                    "n": n,
                    "stop_when": config.stop_when,
                    "max_rounds": config.max_rounds,
                },
            )
        rounds_executed = 0
        for round_no in range(config.max_rounds):
            graph = self._validated_graph(round_no)
            self._execute_round(round_no, graph)
            rounds_executed = round_no + 1
            if self._stop_criterion_met():
                self._log_run_end(rounds_executed, terminated=True)
                return self._result(rounds_executed, terminated=True)

        if config.stop_when == "budget":
            self._log_run_end(rounds_executed, terminated=True)
            return self._result(rounds_executed, terminated=True)
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

    def _validated_graph(self, round_no: int) -> nx.Graph:
        # ``at`` serves a graph on exactly the nodes 0..n-1 with no
        # self-loops (its edge arrays are validated when drawn), so only
        # connectivity is left to check, once per graph object.
        graph = self.network.at(round_no)
        counter("engine.graphs")
        if graph is self._last_validated:
            return graph
        if (
            self.config.require_connected
            and self.network.n > 1
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

    def _execute_round(self, round_no: int, graph: nx.Graph) -> None:
        self._before_send(round_no, graph)
        # Send phase: every process composes its broadcast payload before
        # any delivery happens (the two phases are globally synchronous).
        validate = self.config.validate_payloads
        payloads: list[Any] = []
        for process in self.processes:
            payloads.append(
                checked_compose(process, round_no)
                if validate
                else process.compose(round_no)
            )

        # Receive phase: deliver each neighbour's payload anonymously.
        # Each payload is keyed once per round, not once per delivery; a
        # stable sort of the neighbour indices by those keys yields the
        # same order as ``Inbox(...)`` sorting the payloads themselves.
        keys = [
            None if payload is None else canonical_sort_key(payload)
            for payload in payloads
        ]
        delivered = 0
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
            process.deliver(round_no, inbox)

        sent = sum(1 for p in payloads if p is not None)
        counter("engine.rounds")
        counter("engine.messages_sent", sent)
        counter("engine.messages_delivered", delivered)
        if self._telemetry is not None and self._telemetry.wants(round_no):
            self._emit_telemetry(round_no, graph, sent, delivered)
        if _log.isEnabledFor(logging.DEBUG):
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

    def _result(self, rounds: int, *, terminated: bool) -> SimulationResult:
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
