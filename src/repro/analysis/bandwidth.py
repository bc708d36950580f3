"""Bandwidth accounting: what "unlimited bandwidth" actually costs.

The model grants unlimited per-message bandwidth, and the optimal
anonymous counter uses it: nodes broadcast their full state history, so
payloads grow linearly with the round number.  This module measures the
real payload volume of any protocol run:

* :func:`payload_size` -- structural size of a payload in *atoms*
  (scalars and container brackets), a bandwidth proxy that is stable
  across Python versions, unlike pickled byte counts;
* :func:`measure_engine_bandwidth` / :func:`measure_labeled_bandwidth`
  -- run a protocol and return the atoms delivered per round.

The ``tab-bandwidth`` experiment uses these to contrast the optimal
anonymous counter (growing payloads) with the degree-oracle counter
(constant) and the ID flood (grows with ``n``, not with rounds).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.networks.multigraph import DynamicMultigraph
from repro.simulation.engine import EngineConfig, SynchronousEngine
from repro.simulation.labeled import LabeledStarEngine
from repro.simulation.node import Process

__all__ = [
    "payload_size",
    "measure_engine_bandwidth",
    "measure_labeled_bandwidth",
]


def payload_size(payload: Any) -> int:
    """Structural size of a payload in atoms.

    Scalars count 1; containers count 1 (the bracket) plus their
    contents; mappings count keys and values.  ``None`` (silence)
    counts 0.
    """
    if payload is None:
        return 0
    if isinstance(payload, (str, bytes)):
        return 1
    if isinstance(payload, dict):
        return 1 + sum(
            payload_size(key) + payload_size(value)
            for key, value in payload.items()
        )
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 1 + sum(payload_size(item) for item in payload)
    return 1


class _MeteredEngine(SynchronousEngine):
    """Engine recording the atoms broadcast per round (pre-delivery)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sent_atoms: list[int] = []
        self.delivered_atoms: list[int] = []

    def _execute_round(self, round_no, graph):
        originals = [process.compose for process in self.processes]
        composed: list[Any] = [None] * len(self.processes)

        def wrap(index, fn):
            def metered(r):
                payload = fn(r)
                composed[index] = payload
                return payload

            return metered

        for index, process in enumerate(self.processes):
            process.compose = wrap(index, originals[index])
        try:
            super()._execute_round(round_no, graph)
        finally:
            for process in self.processes:
                # Remove the instance-level wrapper so the class method
                # shows through again.
                process.__dict__.pop("compose", None)
        self.sent_atoms.append(
            sum(payload_size(payload) for payload in composed)
        )
        self.delivered_atoms.append(
            sum(
                payload_size(composed[neighbour])
                for index in range(len(self.processes))
                for neighbour in graph.neighbors(index)
            )
        )


def measure_engine_bandwidth(
    processes: Sequence[Process],
    topology: Any,
    *,
    leader: int | None = 0,
    max_rounds: int = 64,
    stop_when: str = "leader",
) -> tuple[list[int], list[int]]:
    """Run a protocol and meter its traffic.

    Returns ``(sent, delivered)``: per round, the atoms broadcast by all
    processes and the atoms actually delivered (sent × degrees).
    """
    engine = _MeteredEngine(
        processes,
        topology,
        leader=leader,
        config=EngineConfig(max_rounds=max_rounds, stop_when=stop_when),
    )
    engine.run()
    return engine.sent_atoms, engine.delivered_atoms


def measure_labeled_bandwidth(
    leader_process: Process,
    w_processes: Sequence[Process],
    multigraph: DynamicMultigraph,
    *,
    max_rounds: int = 64,
) -> list[int]:
    """Atoms broadcast per round in an ``M(DBL)_k`` execution.

    Meters the ``W`` nodes' and the leader's composed payloads round by
    round until the leader outputs.
    """
    sent_per_round: list[int] = []
    processes = [leader_process, *w_processes]
    originals = [process.compose for process in processes]
    current: dict[int, int] = {}

    def wrap(index, fn):
        def metered(round_no):
            payload = fn(round_no)
            current[index] = payload_size(payload)
            if index == len(processes) - 1:
                sent_per_round.append(sum(current.values()))
            return payload

        return metered

    for index, process in enumerate(processes):
        process.compose = wrap(index, originals[index])
    try:
        engine = LabeledStarEngine(
            leader_process, w_processes, multigraph, max_rounds=max_rounds
        )
        engine.run()
    finally:
        for process in processes:
            process.__dict__.pop("compose", None)
    return sent_per_round
