"""Protocol-level flooding: dissemination through the real engine.

Flooding is the primitive behind the dynamic diameter definition
(Section 3): "a node v floods message m by broadcasting it at each
round, each process receiving a flooded message m starts, in its turn, a
flooding of m".  This module runs that protocol through the actual
message-passing engine; the graph-level computation of the same quantity
lives in :func:`repro.networks.properties.flood_completion_time` and the
test suite checks they always agree.

Two execution paths compute the same quantity: the object engine (one
:class:`FloodProcess` per node) and :class:`VectorizedFlood`, where a
round is one sparse matvec over the informed-set indicator
(``backend="fast"``); :func:`flood_times_batch` stacks many independent
floods into a single fused execution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.networks.csr_native import DynamicGraph
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
    "FloodProcess",
    "VectorizedFlood",
    "flood_time_via_protocol",
    "flood_times_batch",
]

_FLOOD = "flood"


class FloodProcess(Process):
    """Re-broadcast the flood token once informed; output on receipt."""

    def __init__(self, informed: bool = False) -> None:
        self.informed = informed
        self._output = True if informed else None

    def compose(self, round_no: int) -> str | None:
        return _FLOOD if self.informed else None

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if not self.informed and _FLOOD in inbox:
            self.informed = True
            self._output = True


class VectorizedFlood(VectorizedProtocol):
    """Flooding on the fast backend: one matvec per round for all lanes.

    State is the boolean informed-set indicator over the stacked node
    axis; a node becomes informed exactly when a neighbour was sending,
    i.e. when its delivery count is positive, so the traffic matvec
    doubles as the state update.

    Args:
        sources: Per-lane source node (lane-local index), by batch lane
            index.
    """

    def __init__(self, sources: Sequence[int]) -> None:
        self._sources = [int(source) for source in sources]

    def allocate(self, layouts: Sequence[LaneLayout]) -> None:
        if len(self._sources) <= layouts[-1].index:
            raise ValueError("one source per lane required")
        total = layouts[-1].stop
        self.informed = np.zeros(total, dtype=bool)
        for layout in layouts:
            source = self._sources[layout.index]
            if not 0 <= source < layout.n:
                raise ValueError(
                    f"lane {layout.index}: source {source} out of range"
                )
            self.informed[layout.offset + source] = True

    def step(
        self, round_no: int, adjacency, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        sending = self.informed.copy()
        delivered = adjacency.matvec(sending.astype(np.float64)).astype(
            np.int64
        )
        np.logical_or(self.informed, delivered, out=self.informed)
        return sending, delivered

    def output_mask(self) -> np.ndarray:
        return self.informed

    def informed_mask(self) -> np.ndarray:
        return self.informed

    def outputs_for(self, layout: LaneLayout) -> dict[int, bool]:
        lane = self.informed[layout.offset : layout.stop]
        return dict.fromkeys(np.flatnonzero(lane).tolist(), True)


def flood_time_via_protocol(
    network: DynamicGraph,
    source: int,
    *,
    max_rounds: int = 10_000,
    backend: str = "object",
) -> int:
    """Rounds for a flood from ``source`` to inform all nodes (engine run).

    Matches the semantics of
    :func:`repro.networks.properties.flood_completion_time` with
    ``start_round = 0``: the returned value is the number of executed
    rounds after which every process holds the token.

    Args:
        network: A 1-interval connected dynamic graph.
        source: The initially informed node.
        max_rounds: Engine round budget.
        backend: ``"object"`` or ``"fast"``; both count the same rounds.
    """
    resolve_backend(backend)
    if backend == "fast":
        return flood_times_batch([(network, source)], max_rounds=max_rounds)[0]
    processes = [FloodProcess(index == source) for index in range(network.n)]
    engine = SynchronousEngine(
        processes,
        network,
        leader=None,
        config=EngineConfig(max_rounds=max_rounds, stop_when="all"),
    )
    return engine.run().rounds


def flood_times_batch(
    jobs: Sequence[tuple[DynamicGraph, int]],
    *,
    max_rounds: int = 10_000,
    max_lane_nodes: int | None = None,
) -> list[int]:
    """Flood completion times for many independent networks at once.

    Every ``(network, source)`` job becomes one lane of a single fused
    fast-backend execution; lanes that finish early stop advancing while
    the rest of the batch keeps stepping.  Equivalent to calling
    :func:`flood_time_via_protocol` per job, at batch speed.
    """
    if not jobs:
        return []
    lanes = [
        FastLane(network, network.n, leader=None) for network, _ in jobs
    ]
    engine = FastEngine(
        VectorizedFlood([source for _, source in jobs]),
        lanes,
        config=EngineConfig(max_rounds=max_rounds, stop_when="all"),
        max_lane_nodes=max_lane_nodes,
    )
    return [result.rounds for result in engine.run()]
