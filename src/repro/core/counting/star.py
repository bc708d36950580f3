"""One-round counting in ``G(PD)_1`` star networks.

Graphs in ``G(PD)_1`` are stars with the leader at the centre at every
round; "the leader is able to output the exact count in one round
independently of the anonymity of the processes" (Section 1): every
non-leader node broadcasts anything, the leader's round-0 inbox size is
exactly ``|V| - 1``.

Two execution paths produce the same outcome: the object engine drives
one :class:`~repro.simulation.node.Process` per node (the semantics
oracle), while :class:`VectorizedStar` runs the round as a single sparse
matvec on the fast backend (``backend="fast"``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.counting.base import CountingOutcome
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.stars import star_network
from repro.simulation.engine import EngineConfig, SynchronousEngine
from repro.simulation.fast import (
    FastEngine,
    FastLane,
    LaneLayout,
    VectorizedProtocol,
    resolve_backend,
)
from repro.simulation.messages import Inbox
from repro.simulation.node import Process

__all__ = [
    "StarLeaderProcess",
    "StarMemberProcess",
    "VectorizedStar",
    "make_star_processes",
    "count_star",
]

_PING = "ping"


class StarLeaderProcess(Process):
    """Leader at the star's centre: count the round-0 inbox."""

    def __init__(self) -> None:
        self._output = None

    def compose(self, round_no: int) -> None:
        return None

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if self._output is None:
            self._output = len(inbox) + 1


class StarMemberProcess(Process):
    """Anonymous spoke node: broadcast one ping."""

    def compose(self, round_no: int) -> str:
        return _PING

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        pass


class VectorizedStar(VectorizedProtocol):
    """The star protocol on the fast backend.

    Every non-leader broadcasts, so the leader's round-0 delivery count
    is its degree -- one matvec computes it for every lane of the batch
    at once.  Only leaders ever output (stop with ``stop_when="leader"``),
    matching the object protocol.
    """

    def allocate(self, layouts: Sequence[LaneLayout]) -> None:
        total = layouts[-1].stop
        self._is_leader = np.zeros(total, dtype=bool)
        for layout in layouts:
            self._is_leader[layout.leader] = True
        self._counts = np.zeros(total, dtype=np.int64)
        self._mask = np.zeros(total, dtype=bool)

    def step(
        self, round_no: int, adjacency, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        sending = ~self._is_leader
        delivered = adjacency.matvec(sending.astype(np.float64)).astype(
            np.int64
        )
        if round_no == 0:
            leaders = self._is_leader
            self._counts[leaders] = delivered[leaders] + 1
            self._mask |= leaders
        return sending, delivered

    def output_mask(self) -> np.ndarray:
        return self._mask

    def outputs_for(self, layout: LaneLayout) -> dict[int, int]:
        if not self._mask[layout.leader]:
            return {}
        return {
            layout.leader - layout.offset: int(self._counts[layout.leader])
        }


def make_star_processes(n: int, *, leader: int = 0) -> tuple[list[Process], int]:
    """Build the ``n`` processes of the star protocol.

    Returns ``(processes, leader_index)``, ready to hand to
    :class:`repro.simulation.SynchronousEngine`.
    """
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    processes: list[Process] = [
        StarLeaderProcess() if index == leader else StarMemberProcess()
        for index in range(n)
    ]
    return processes, leader


def count_star(
    n: int,
    *,
    network: DynamicGraph | None = None,
    leader: int = 0,
    backend: str = "object",
) -> CountingOutcome:
    """Count a ``G(PD)_1`` network of ``n`` nodes (1 round, exact).

    Args:
        n: Number of nodes.
        network: The star dynamic graph; generated if omitted (any
            ``G(PD)_1`` graph *is* the star, so there is no other shape
            to pass).
        leader: The centre node's index.
        backend: ``"object"`` for the per-process engine, ``"fast"`` for
            the vectorized backend; both produce the same outcome.
    """
    resolve_backend(backend)
    if network is None:
        network = star_network(n, leader=leader)
    config = EngineConfig(max_rounds=4)
    if backend == "fast":
        if n < 2:
            raise ValueError("a star needs at least 2 nodes")
        engine = FastEngine(
            VectorizedStar(),
            [FastLane(network, n, leader=leader)],
            config=config,
        )
        result = engine.run()[0]
    else:
        processes, leader_index = make_star_processes(n, leader=leader)
        result = SynchronousEngine(
            processes, network, leader=leader_index, config=config
        ).run()
    return CountingOutcome(
        count=result.leader_output,
        output_round=result.rounds - 1,
        rounds=result.rounds,
        algorithm="star-one-round",
    )
