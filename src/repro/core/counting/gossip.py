"""Anonymous gossip size estimation (Kempe-style push-sum baseline).

Kempe, Dobra & Gehrke (FOCS 2003) compute aggregates on dynamic networks
with a *fair* adversary by exploiting conservation of mass.  Adapted to
size estimation in our broadcast model: every node starts with value
``x = 1``; the leader additionally holds weight ``w = 1`` (everyone else
``w = 0``).  Each round a node splits its ``(x, w)`` mass evenly over
itself and its current neighbours -- this requires knowing the degree
before sending, so the protocol runs under the degree oracle (Kempe's
point-to-point gossip implicitly knows its recipient count).  Masses are
conserved, and under fair dynamics every node's ratio ``x / w``
converges to ``Σx / Σw = |V|``.

The protocol never *terminates with certainty* -- it is an anonymous
estimator, not an exact counter, and the paper's lower bound explains
why exactness is unattainable quickly: against the worst-case adversary
no anonymous algorithm, gossip included, can pin ``|V|`` in ``o(log |V|)``
rounds.  The baseline benchmark records the estimation error per round
under fair adversaries.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.simulation.engine import DegreeOracleEngine, EngineConfig
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
    "PushSumProcess",
    "VectorizedPushSum",
    "gossip_size_estimates",
    "gossip_size_estimates_batch",
]


class PushSumProcess(Process):
    """One push-sum participant; the leader starts with weight 1."""

    def __init__(self, is_leader: bool) -> None:
        self.x = 1.0
        self.w = 1.0 if is_leader else 0.0
        self._degree = 0
        self._share: tuple[float, float] = (0.0, 0.0)

    def observe_degree(self, round_no: int, degree: int) -> None:
        self._degree = degree

    def compose(self, round_no: int) -> tuple[float, float, int]:
        shares = self._degree + 1
        self._share = (self.x / shares, self.w / shares)
        # Tag with the round so identical shares from different rounds
        # cannot be confused; the tuple stays hashable for the engine.
        return (*self._share, round_no)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        self.x, self.w = self._share
        for x_share, w_share, _tag in inbox:
            self.x += x_share
            self.w += w_share

    @property
    def estimate(self) -> float:
        """Current size estimate ``x / w`` (``inf`` before any weight arrives)."""
        return self.x / self.w if self.w > 0 else float("inf")


class VectorizedPushSum(VectorizedProtocol):
    """Push-sum on the fast backend: one matvec per round, all lanes.

    The masses ``x`` and ``w`` are the two columns of one C-contiguous
    ``(N, 2)`` array on the stacked node axis, so a round's receive
    phase is a single sparse product with both columns; each column is
    summed in the same order as a one-vector matvec, so the result is
    bit-identical to two of them.  The per-round split over
    ``degree + 1`` shares reads the degree straight off the CSR
    adjacency (the vectorized form of the degree oracle -- the oracle
    tells a node its round-``r`` degree before the send phase of ``r``,
    which is exactly the degree vector of the round's matrix); the
    ``(N, 2)`` divisor is kept for as long as the adjacency object
    repeats, so a held topology builds it once.  Leader estimates are
    recorded per lane after every round, in :attr:`estimates` by batch
    lane index.

    The protocol never commits an output (it is an estimator); run it
    under ``stop_when="budget"``.  Estimates match the object protocol
    up to float summation order (the object engine adds inbox shares in
    multiset-iteration order, the matvec in CSR order).
    """

    def __init__(self) -> None:
        self.estimates: list[list[float]] = []

    def allocate(self, layouts: Sequence[LaneLayout]) -> None:
        self._layouts = list(layouts)
        total = layouts[-1].stop
        self._mass = np.zeros((total, 2), dtype=np.float64)
        self._mass[:, 0] = 1.0
        for layout in layouts:
            self._mass[layout.leader, 1] = 1.0
        self._shares_of = None
        self.estimates[layouts[0].index :] = [[] for _ in layouts]

    @property
    def x(self) -> np.ndarray:
        """Per-node ``x`` mass on the stacked node axis."""
        return self._mass[:, 0]

    @property
    def w(self) -> np.ndarray:
        """Per-node ``w`` mass on the stacked node axis."""
        return self._mass[:, 1]

    def step(
        self, round_no: int, adjacency, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if adjacency is not self._shares_of:
            # A (N, 2) divisor: broadcasting a (N, 1) one divides ~3x
            # slower.
            shares = adjacency.degrees + 1.0
            self._shares = np.repeat(shares[:, None], 2, axis=1)
            self._shares_of = adjacency
        share = self._mass / self._shares
        self._mass = share + adjacency.matvec(share)
        for layout in self._layouts:
            x, weight = self._mass[layout.leader]
            self.estimates[layout.index].append(
                float(x / weight) if weight > 0 else float("inf")
            )
        sending = np.ones(self._mass.shape[0], dtype=bool)
        return sending, adjacency.degrees

    def output_mask(self) -> np.ndarray:
        return np.zeros(self._mass.shape[0], dtype=bool)

    def outputs_for(self, layout: LaneLayout) -> dict[int, float]:
        return {}


def gossip_size_estimates(
    topology: Any,
    n: int,
    rounds: int,
    *,
    leader: int = 0,
    backend: str = "object",
) -> list[float]:
    """Run push-sum for ``rounds`` rounds, returning the leader's estimates.

    Args:
        topology: The (typically fair/random) adversary: a
            :class:`~repro.networks.DynamicGraph` or an object with an
            ``as_dynamic_graph()`` method.
        n: Number of nodes.
        rounds: How many rounds to run.
        leader: Index of the weight-carrying node.
        backend: ``"object"`` or ``"fast"``; estimates agree up to float
            summation order.

    Returns:
        ``estimates[r]`` is the leader's ``x / w`` after round ``r``;
        under fair dynamics it converges to ``n``.
    """
    resolve_backend(backend)
    if backend == "fast":
        return gossip_size_estimates_batch(
            [(topology, n)], rounds, leader=leader
        )[0]
    processes = [PushSumProcess(index == leader) for index in range(n)]
    estimates: list[float] = []

    class _RecordingEngine(DegreeOracleEngine):
        """Snapshot the leader's estimate after every round."""

        def _before_send(self, round_no, graph):
            if round_no > 0:
                estimates.append(processes[leader].estimate)
            super()._before_send(round_no, graph)

    engine = _RecordingEngine(
        processes,
        topology,
        leader=leader,
        config=EngineConfig(max_rounds=rounds, stop_when="budget"),
    )
    engine.run()
    estimates.append(processes[leader].estimate)
    return estimates


def gossip_size_estimates_batch(
    specs: Sequence[tuple[Any, int]],
    rounds: int,
    *,
    leader: int = 0,
    max_lane_nodes: int | None = None,
) -> list[list[float]]:
    """Leader estimate curves for many push-sum runs, fused into one batch.

    Every ``(topology, n)`` spec becomes one lane; all lanes run exactly
    ``rounds`` rounds (``stop_when="budget"``), so a sweep over sizes or
    seeds advances with one matvec per round total.  Equivalent to
    calling :func:`gossip_size_estimates` per spec with
    ``backend="fast"``.
    """
    if not specs:
        return []
    protocol = VectorizedPushSum()
    lanes = [FastLane(topology, n, leader=leader) for topology, n in specs]
    engine = FastEngine(
        protocol,
        lanes,
        config=EngineConfig(max_rounds=rounds, stop_when="budget"),
        max_lane_nodes=max_lane_nodes,
    )
    engine.run()
    return [list(curve) for curve in protocol.estimates]
