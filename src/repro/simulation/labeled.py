"""Round engine for dynamic bipartite labeled multigraphs (``M(DBL)_k``).

In the multigraph model of Section 4.1, every non-leader node ``v`` in
``W`` is connected to the leader by between 1 and ``k`` parallel edges
carrying pairwise distinct labels from ``{1, ..., k}``; the label
assignment may change every round.  When a payload travels over an edge
``e``, the receiver also observes the label ``l_r(e)``.

This engine is the executable form of that model.  An adversary supplies
the per-round label sets (see :class:`LabelSetProvider`); each round the
leader broadcasts, every node in ``W`` broadcasts, and payloads are
delivered as ``(label, payload)`` pairs -- one pair per parallel edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence, runtime_checkable

from repro.simulation.errors import TerminationError, TopologyError
from repro.simulation.messages import LabeledInbox
from repro.simulation.node import Process, checked_compose

__all__ = ["LabelSetProvider", "LabeledStarEngine", "LabeledRunResult"]


@runtime_checkable
class LabelSetProvider(Protocol):
    """Adversary interface for the ``M(DBL)_k`` model.

    ``label_sets(round_no, processes)`` returns, for every node of ``W``
    (indexed ``0..|W|-1``), the set of edge labels connecting it to the
    leader in this round.  Each set must be a non-empty subset of
    ``{1, ..., k}`` -- the defining constraint of ``M(DBL)_k``.

    The provider sees the live process objects, so worst-case
    omniscient adversaries are expressible here.  (The graph engine,
    :class:`repro.simulation.engine.SynchronousEngine`, no longer hands
    processes to its topology: it reads a round-indexed
    :class:`repro.networks.DynamicGraph`.)
    """

    @property
    def k(self) -> int:
        """Maximum number of parallel edges (the ``k`` of ``M(DBL)_k``)."""
        ...

    def label_sets(
        self, round_no: int, processes: Sequence[Process]
    ) -> Sequence[frozenset[int]]:
        """Return the label set of every ``W`` node for ``round_no``."""
        ...


@dataclass
class LabeledRunResult:
    """Outcome of a :class:`LabeledStarEngine` execution."""

    rounds: int
    leader_output: Any
    outputs: dict[int, Any]
    terminated: bool


class LabeledStarEngine:
    """Drive a leader and ``|W|`` anonymous nodes over an ``M(DBL)_k``.

    Args:
        leader_process: The leader.  Its ``deliver`` receives a
            :class:`LabeledInbox` with one ``(label, payload)`` pair per
            incident edge.
        w_processes: The anonymous non-leader processes, one per node of
            ``W`` (indices are engine bookkeeping only).
        labels: The adversary supplying per-round label sets.
        max_rounds: Round budget (at least 1).
        stop_when: ``"leader"`` (default) stops when the leader outputs;
            ``"budget"`` runs exactly ``max_rounds`` rounds.
    """

    def __init__(
        self,
        leader_process: Process,
        w_processes: Sequence[Process],
        labels: LabelSetProvider,
        *,
        max_rounds: int = 10_000,
        stop_when: str = "leader",
    ) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if stop_when not in {"leader", "budget"}:
            raise ValueError("stop_when must be 'leader' or 'budget'")
        self.leader_process = leader_process
        self.w_processes = list(w_processes)
        self.labels = labels
        self.max_rounds = max_rounds
        self.stop_when = stop_when

    def run(self) -> LabeledRunResult:
        """Execute rounds until the leader outputs or the budget is hit."""
        rounds_executed = 0
        for round_no in range(self.max_rounds):
            label_sets = self._validated_label_sets(round_no)
            self._execute_round(round_no, label_sets)
            rounds_executed = round_no + 1
            if self.stop_when == "leader" and self.leader_process.output() is not None:
                return self._result(rounds_executed, terminated=True)
        if self.stop_when == "budget":
            return self._result(rounds_executed, terminated=True)
        raise TerminationError(
            f"leader did not output within {self.max_rounds} rounds"
        )

    def _validated_label_sets(self, round_no: int) -> list[frozenset[int]]:
        processes: list[Process] = [self.leader_process, *self.w_processes]
        label_sets = [
            frozenset(labels)
            for labels in self.labels.label_sets(round_no, processes)
        ]
        if len(label_sets) != len(self.w_processes):
            raise TopologyError(
                f"round {round_no}: adversary returned {len(label_sets)} label "
                f"sets for {len(self.w_processes)} W nodes"
            )
        valid_labels = frozenset(range(1, self.labels.k + 1))
        for index, labels in enumerate(label_sets):
            if not labels or not labels <= valid_labels:
                raise TopologyError(
                    f"round {round_no}: node {index} has label set "
                    f"{set(labels)!r}, expected a non-empty subset of "
                    f"{{1..{self.labels.k}}}"
                )
        return label_sets

    def _execute_round(
        self, round_no: int, label_sets: list[frozenset[int]]
    ) -> None:
        leader_payload = checked_compose(self.leader_process, round_no)
        w_payloads = [
            checked_compose(process, round_no) for process in self.w_processes
        ]

        # The leader observes every parallel edge separately: one
        # (label, payload) pair per edge, per Definition 7.
        leader_inbox = LabeledInbox(
            (label, payload)
            for labels, payload in zip(label_sets, w_payloads)
            if payload is not None
            for label in sorted(labels)
        )
        self.leader_process.deliver(round_no, leader_inbox)

        # Each W node observes the leader payload once per incident edge,
        # tagged with that edge's label -- this is how a node learns its
        # own label set L(v, r) during the receive phase.
        for process, labels in zip(self.w_processes, label_sets):
            pairs = (
                ((label, leader_payload) for label in sorted(labels))
                if leader_payload is not None
                else ()
            )
            process.deliver(round_no, LabeledInbox(pairs))

    def _result(self, rounds: int, *, terminated: bool) -> LabeledRunResult:
        outputs = {
            index: output
            for index, process in enumerate(self.w_processes)
            if (output := process.output()) is not None
        }
        return LabeledRunResult(
            rounds=rounds,
            leader_output=self.leader_process.output(),
            outputs=outputs,
            terminated=terminated,
        )
