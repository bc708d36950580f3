"""The vectorized batch simulation backend.

:class:`~repro.simulation.engine.SynchronousEngine` executes one Python
``compose``/``deliver`` call per process per round -- full protocol
fidelity, but the interpreter loop dominates wall-clock time on large
sweeps.  This module provides the *fast backend*: a second execution
path that compiles a round into array operations.

* Every lane runs on a :class:`~repro.networks.DynamicGraph` (or an
  adversary that converts to one through ``as_dynamic_graph()``).  Each
  round the engine reads every lane's validated edge arrays and builds
  the whole batch's block-diagonal CSR adjacency in one pass
  (:func:`~repro.networks.csr.csr_from_lane_edges`).  The engine keeps
  only the last round's stack, under its tuple of lane round keys, so a
  held or static batch builds once and fresh-graph-per-round workloads
  hold O(1) adjacency memory.
* A chunk whose lanes are all drawn fresh every round (no round key)
  and average at least :data:`DRAW_AHEAD_MIN_LANE_NODES` nodes, on a
  process allowed two or more CPUs, draws round ``r + 1``'s edges on a worker
  thread while the engine builds, checks and steps round ``r``.  Only
  the draw moves: the CSR build, the connectivity check and every
  counter stay on the engine thread.  A provider's error surfaces when
  its round is used, as without the draw ahead; a round drawn ahead but
  never used (the batch stopped first) is dropped with its error, and
  the run waits for it before returning, so no draw outlives a run.
  Such a chunk holds one extra round's edge arrays.
* Protocols whose per-round receive phase is an aggregation over the
  multiset of received values implement :class:`VectorizedProtocol`:
  state lives in NumPy arrays over a flat node axis and one ``step``
  performs the whole receive phase as a sparse matvec / histogram.
* Many independent runs (seeds x sizes of a sweep point) are stacked
  block-diagonally into *lanes* of one :class:`FastEngine`, so a batch
  advances with a single fused matvec per round.
* Batches larger than a node budget *stream*: with ``max_lane_nodes``
  set (engine argument, :func:`lane_budget_enabled` context, or the
  ``--max-lane-nodes`` CLI flag), lanes are partitioned into contiguous
  chunks under the budget, each chunk runs to completion through the
  same matvec loop, and results, ``engine.*`` counters, and telemetry
  trajectories fold losslessly -- a chunked run is indistinguishable
  from the monolithic single-stack run except in peak memory, which is
  bounded by the chunk budget instead of the whole grid.  One protocol
  object runs every chunk: each chunk's :meth:`~VectorizedProtocol.allocate`
  replaces the last chunk's state, and lane layouts keep their batch
  position (:attr:`LaneLayout.index`), so a protocol needs nothing
  extra to be chunked.

The object engine remains the semantics oracle: round counts, outputs,
stop-criterion behaviour, and the ``engine.*`` counters of a fast run
are defined to equal the object engine's on the same workload, and the
test suite differential-tests exactly that (floating-point protocols
match to within accumulation order).  A run's per-round record is its
telemetry event (:mod:`repro.obs.telemetry`, ``--telemetry``), as on
the object engine; a round's graph is ``DynamicGraph.at(r)`` of its
lane's topology.

Known chunking caveat (a documented divergence outside the
differential contract): a lane's topology is only evaluated for the
rounds its chunk executes (plus sampled telemetry rounds), so a graph
that turns invalid *after* every lane of its chunk terminated is not
observed the way the monolithic stack -- which keeps stacking finished
lanes -- would observe it.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from concurrent.futures import Future, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from repro.networks import csr
from repro.networks.csr import (
    CSRAdjacency,
    csr_from_lane_edges,
    index_dtype_for,
    thread_pool,
)
from repro.networks.csr_native import DynamicGraph
from repro.obs import telemetry as telemetry_mod
from repro.obs.logger import get_logger
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.simulation.engine import EngineConfig, SimulationResult, network_of
from repro.simulation.errors import TerminationError, TopologyError

_log = get_logger("simulation.fast")

__all__ = [
    "BACKENDS",
    "FastEngine",
    "FastLane",
    "LaneLayout",
    "VectorizedProtocol",
    "active_lane_budget",
    "lane_budget_enabled",
    "partition_lanes",
    "resolve_backend",
]

BACKENDS = ("object", "fast")
"""The two execution backends: ``"object"`` is the per-process oracle
engine, ``"fast"`` the vectorized batch engine of this module."""


def resolve_backend(backend: str) -> str:
    """Validate a ``backend=`` argument, returning it unchanged."""
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


#: Chunks whose lanes, every one drawn fresh each round, average at least
#: this many nodes draw the next round's edges on a worker thread while
#: the engine runs this one.  Below it the hand-off costs more than the
#: overlap saves, and small lanes lose at any stack size: each lane's
#: draw seeds its own generator, holding the GIL (x86_64, 2 vCPUs,
#: flooding fresh random trees, drawn ahead against inline: one lane of
#: 4,096 nodes 1.20x, 8,192 0.99x, 16,384 0.91x; 2 x 4,096 1.06x,
#: 1,024 x 8 1.40x, 2 x 16,384 0.88x); see
#: benchmarks/results/draw-ahead-breakeven.json.
DRAW_AHEAD_MIN_LANE_NODES = 8192

#: The draw-ahead pool's name: one thread, apart from the product pool,
#: since a provider may itself run a blocked product there.
_DRAW_POOL = "draw-ahead"


# -- ambient lane budget -----------------------------------------------

#: Process-wide default for ``FastEngine(max_lane_nodes=...)``; set by
#: the ``--max-lane-nodes`` CLI flag through :func:`lane_budget_enabled`.
#: Sweep workers inherit it through process forking on POSIX start
#: methods, so one flag bounds every engine of a sweep.
_lane_budget: int | None = None


def active_lane_budget() -> int | None:
    """The ambient streaming budget (nodes per chunk), if any."""
    return _lane_budget


def _validate_budget(max_lane_nodes: int) -> int:
    if (
        isinstance(max_lane_nodes, bool)
        or not isinstance(max_lane_nodes, (int, np.integer))
        or max_lane_nodes < 1
    ):
        raise ValueError(
            f"max_lane_nodes must be a positive integer, got "
            f"{max_lane_nodes!r}"
        )
    return int(max_lane_nodes)


@contextmanager
def lane_budget_enabled(max_lane_nodes: int) -> Iterator[int]:
    """Scoped ambient lane budget; restores the previous value."""
    global _lane_budget
    previous = _lane_budget
    _lane_budget = _validate_budget(max_lane_nodes)
    try:
        yield _lane_budget
    finally:
        _lane_budget = previous


def partition_lanes(
    sizes: Sequence[int], max_lane_nodes: int | None
) -> list[tuple[int, int]]:
    """Greedy contiguous ``[start, stop)`` chunks under the node budget.

    Each chunk's total node count stays at or below ``max_lane_nodes``
    except when a single lane alone exceeds the budget, in which case
    that lane forms its own (oversized) chunk -- the partition is always
    exhaustive and order-preserving.  ``None`` means no budget: one
    chunk covering everything (the monolithic stack).
    """
    if max_lane_nodes is None:
        return [(0, len(sizes))]
    budget = _validate_budget(max_lane_nodes)
    chunks: list[tuple[int, int]] = []
    start = 0
    load = 0
    for index, size in enumerate(sizes):
        if index > start and load + int(size) > budget:
            chunks.append((start, index))
            start, load = index, 0
        load += int(size)
    chunks.append((start, len(sizes)))
    return chunks


@dataclass(frozen=True)
class FastLane:
    """One independent run inside a batched fast execution.

    Attributes:
        topology: The lane's adversary: a
            :class:`~repro.networks.DynamicGraph`, or an object with an
            ``as_dynamic_graph()`` method returning one, such as
            :class:`~repro.networks.generators.RandomConnectedAdversary`.
        n: Number of nodes of this lane; must equal the topology's.
        leader: Leader index within the lane (``None`` for leaderless
            protocols), mirroring the object engine's argument.
    """

    topology: Any
    n: int
    leader: int | None = 0


@dataclass(frozen=True)
class LaneLayout:
    """Where a lane's nodes live on the stacked node axis.

    Attributes:
        index: Lane position in the whole batch, also under streaming;
            per-lane protocol arguments and results are read and
            written here.
        offset: First stacked node index of the lane, within its chunk.
        n: Lane size; the lane spans ``[offset, offset + n)``.
        leader: Stacked index of the lane's leader (``None`` if
            leaderless).
    """

    index: int
    offset: int
    n: int
    leader: int | None

    @property
    def stop(self) -> int:
        """One past the lane's last stacked node index."""
        return self.offset + self.n


class VectorizedProtocol(ABC):
    """A protocol whose rounds execute as array operations.

    Implementations hold all state as arrays over the *stacked* node
    axis (all lanes concatenated).  The engine drives:

    1. :meth:`allocate` once, with the lane layouts;
    2. :meth:`step` once per round with the stacked adjacency -- the
       whole send+receive phase, returning the round's traffic so the
       engine can keep the object engine's message counters exact;
    3. :meth:`output_mask` after each round for the stop criterion.

    Because lanes of a batch may stop at different rounds while the
    batch keeps stepping, ``step`` must be *stable after termination*:
    once a lane's stop criterion holds, further steps must not change
    that lane's outputs (every protocol here is monotone or commits its
    output exactly once, so this holds by construction).

    Under a streaming budget (``max_lane_nodes``) the engine runs the
    batch as contiguous lane chunks in ascending order, starting at
    lane 0, through this one object: :meth:`allocate` is called once
    per chunk with that chunk's layouts, which replaces the previous
    chunk's state, and every lane's outputs are read before the next
    chunk allocates.  A layout's ``index`` is the lane's position in
    the whole batch, so per-lane arguments and side products (push-sum
    estimate trails, dissemination message totals) are indexed by it;
    a protocol cannot see later chunks, so it checks only that the
    chunk's last lane has an argument.
    """

    @abstractmethod
    def allocate(self, layouts: Sequence[LaneLayout]) -> None:
        """Allocate state arrays for the given lane layouts."""

    @abstractmethod
    def step(
        self, round_no: int, adjacency: CSRAdjacency, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Execute one synchronous round over all lanes at once.

        Args:
            round_no: The global round number.
            adjacency: Block-diagonal stacked adjacency of this round.
            active: Boolean per *node*: does the node belong to a lane
                whose stop criterion has not yet been met?  Protocols
                that account per-round traffic of their own (message
                totals) must restrict that accounting to active nodes;
                state updates always cover all nodes.

        Returns:
            ``(sending, delivered)``: per-node boolean "broadcast a
            non-``None`` payload this round" and per-node count of
            payloads received.  The engine reduces these per lane into
            the ``engine.messages_sent`` / ``engine.messages_delivered``
            counters so fast-vs-object metric equality is checkable.
        """

    @abstractmethod
    def output_mask(self) -> np.ndarray:
        """Boolean per node: has the node committed an output?"""

    def informed_mask(self) -> np.ndarray:
        """Boolean per node: is the node informed? (round telemetry).

        Protocols with an explicit informed-set notion (flooding,
        dissemination) override this; the default equates "informed"
        with "committed an output", mirroring the object engine's
        fallback for processes without an ``informed`` attribute.
        """
        return self.output_mask()

    @abstractmethod
    def outputs_for(self, layout: LaneLayout) -> dict[int, Any]:
        """Outputs of one lane, keyed by lane-local node index."""


@dataclass
class _BlockOutcome:
    """What one streamed chunk reports back to the engine."""

    stats: dict[str, int]
    rounds_done: np.ndarray
    stuck: list[int]
    rounds_executed: int
    records: dict[int, dict[str, int]] = field(default_factory=dict)
    final_informed: int = 0
    final_terminated: int = 0


#: Additive telemetry fields merged across chunks (``round`` keys the
#: record, ``engine``/``nodes`` are batch-level).
_TELEMETRY_KEYS = (
    "edges",
    "sent",
    "delivered",
    "informed",
    "terminated",
    "lanes_active",
)


class _LaneBlock:
    """One contiguous chunk of lanes, executed to completion.

    Owns the chunk's layouts (offsets rebased to 0, indices numbered
    from ``first``, the chunk's first lane in the batch), the lanes'
    dynamic graphs, the last round's stacked adjacency, the next
    round's edges while they are drawn ahead, and the matvec loop.
    The monolithic run is the one-block special case, so chunked and
    single-stack executions share every line of the hot loop.
    """

    def __init__(
        self, lanes: Sequence[FastLane], config: EngineConfig, first: int = 0
    ) -> None:
        self.lanes = list(lanes)
        self.config = config
        offsets = np.concatenate(
            ([0], np.cumsum([lane.n for lane in self.lanes]))
        )
        self.total_nodes = int(offsets[-1])
        # Dtype policy: lane offsets and per-lane sent counts fit the
        # node-count dtype; per-lane delivered counts can reach ~n^2
        # (dense rounds deliver degree-many payloads per node).
        self._offsets = offsets.astype(index_dtype_for(self.total_nodes))
        self._count_dtype = index_dtype_for(self.total_nodes)
        self._acc_dtype = index_dtype_for(self.total_nodes**2)
        self.layouts: list[LaneLayout] = []
        for local, lane in enumerate(self.lanes):
            offset = int(self._offsets[local])
            leader = None if lane.leader is None else offset + lane.leader
            self.layouts.append(
                LaneLayout(first + local, offset, lane.n, leader)
            )
        if config.stop_when == "leader":
            self._leaders = np.array(
                [layout.leader for layout in self.layouts],
                dtype=self._offsets.dtype,
            )
        self.graphs = [
            network_of(
                lane.topology, lane.n, label=f"lane {layout.index} topology"
            )
            for layout, lane in zip(self.layouts, self.lanes)
        ]
        self._sizes = [lane.n for lane in self.lanes]
        # The last round's (tuple of lane round keys, stacked adjacency).
        self._last: tuple[tuple, CSRAdjacency] | None = None
        # Whether ``run`` draws ahead, and the future of the next
        # round's lane edges while one is drawn.
        self._draws_ahead = False
        self._ahead: Future | None = None

    # -- adjacency ----------------------------------------------------

    def adjacency(self, round_no: int) -> CSRAdjacency:
        """The round's stacked adjacency, reused while the tuple of
        lane round keys equals the last round's (a held batch)."""
        key = tuple(graph.round_key(round_no) for graph in self.graphs)
        last = self._last
        if last is not None and last[0] == key:
            counter("adjacency.stack_hits")
            return last[1]
        adjacency, connected = csr_from_lane_edges(
            self._sizes, self._lane_edges(round_no)
        )
        if self.config.require_connected and not connected.all():
            lane = self.layouts[int(np.flatnonzero(~connected)[0])].index
            raise TopologyError(
                f"round {round_no}: lane {lane} graph is disconnected "
                "but 1-interval connectivity is required"
            )
        self._last = (key, adjacency)
        return adjacency

    def _lane_edges(self, round_no: int) -> list:
        """Every lane's edges for the round, from the draw made ahead if
        there is one; then the next round's draw starts.

        A draw made ahead is always of this round: ``run`` asks for
        rounds in order and drops the last draw when it ends.
        """
        ahead, self._ahead = self._ahead, None
        if ahead is None:
            edges = DynamicGraph.lane_edges(self.graphs, round_no)
        else:
            edges = ahead.result()
            counter("adjacency.rounds_drawn_ahead")
        if self._draws_ahead and round_no + 1 < self.config.max_rounds:
            self._ahead = thread_pool(_DRAW_POOL, 1).submit(
                DynamicGraph.lane_edges, self.graphs, round_no + 1
            )
        return edges

    def _drop_ahead(self) -> None:
        """Drop the round drawn ahead, with its error: cancelled if it
        has not started, waited for if it has."""
        ahead, self._ahead = self._ahead, None
        if ahead is None:
            return
        counter("adjacency.rounds_dropped_ahead")
        if not ahead.cancel():
            wait([ahead])

    def _may_draw_ahead(self) -> bool:
        """Whether a run of this chunk draws each next round ahead.

        Never on the draw thread itself (a provider running an engine),
        whose only thread would wait on its own task.
        """
        return (
            self.total_nodes >= DRAW_AHEAD_MIN_LANE_NODES * len(self.lanes)
            and csr._WORKERS >= 2
            and all(graph.fresh_rounds for graph in self.graphs)
            and not threading.current_thread().name.startswith(_DRAW_POOL)
        )

    def edges_at(self, round_no: int) -> int:
        """Total edge count of the chunk's lanes at ``round_no``.

        Used to extend a finished chunk's telemetry over the rounds the
        batch keeps running: the monolithic stack still counts finished
        lanes' edges every round.
        """
        return self.adjacency(round_no).edges

    # -- stop criteria ------------------------------------------------

    def _lane_done(self, mask: np.ndarray) -> np.ndarray:
        """Per-lane boolean: stop criterion met, given the output mask."""
        stop_when = self.config.stop_when
        if stop_when == "budget":
            return np.zeros(len(self.lanes), dtype=bool)
        if stop_when == "leader":
            return mask[self._leaders]
        per_lane = np.add.reduceat(
            mask, self._offsets[:-1], dtype=self._count_dtype
        )
        if stop_when == "all":
            sizes = np.diff(self._offsets)
            return per_lane == sizes
        return per_lane > 0  # "any"

    # -- execution ----------------------------------------------------

    def run(
        self,
        protocol: VectorizedProtocol,
        telemetry,
        *,
        stream: bool,
        batch_nodes: int,
    ) -> _BlockOutcome:
        """Run the chunk's lanes to completion (or the round budget).

        With ``stream`` the chunk covers the whole batch and telemetry
        records are emitted directly (the monolithic path); otherwise
        sampled records are collected for cross-chunk merging.
        """
        config = self.config
        protocol.allocate(self.layouts)
        rounds_done = np.full(
            len(self.lanes), -1, dtype=index_dtype_for(config.max_rounds)
        )
        lane_active = np.ones(len(self.lanes), dtype=bool)
        sizes = np.diff(self._offsets)
        stats = {"rounds": 0, "graphs": 0, "sent": 0, "delivered": 0}
        records: dict[int, dict[str, int]] = {}
        rounds_executed = 0
        active_nodes = np.repeat(lane_active, sizes)
        self._draws_ahead = self._may_draw_ahead()
        try:
            for round_no in range(config.max_rounds):
                adjacency = self.adjacency(round_no)
                sending, delivered = protocol.step(
                    round_no, adjacency, active_nodes
                )
                rounds_executed = round_no + 1
                # Per-lane traffic, counted exactly like the object
                # engine: only lanes still running execute the round.
                sent_by_lane = np.add.reduceat(
                    sending, self._offsets[:-1], dtype=self._count_dtype
                )
                delivered_by_lane = np.add.reduceat(
                    delivered, self._offsets[:-1], dtype=self._acc_dtype
                )
                active_count = int(lane_active.sum())
                round_sent = int(sent_by_lane[lane_active].sum())
                round_delivered = int(delivered_by_lane[lane_active].sum())
                stats["rounds"] += active_count
                stats["graphs"] += active_count
                stats["sent"] += round_sent
                stats["delivered"] += round_delivered
                mask = protocol.output_mask()
                if telemetry is not None and telemetry.wants(round_no):
                    # Same post-round semantics as the object engine's
                    # record; traffic covers the lanes that executed
                    # the round, edges the whole stacked adjacency.
                    record = {
                        "edges": adjacency.edges,
                        "sent": round_sent,
                        "delivered": round_delivered,
                        "informed": int(
                            np.count_nonzero(protocol.informed_mask())
                        ),
                        "terminated": int(np.count_nonzero(mask)),
                        "lanes_active": active_count,
                    }
                    if stream:
                        telemetry.emit(
                            {
                                "engine": "fast",
                                "round": round_no,
                                **record,
                                "nodes": batch_nodes,
                            }
                        )
                    else:
                        records[round_no] = record
                newly_done = lane_active & self._lane_done(mask)
                if newly_done.any():
                    rounds_done[newly_done] = round_no + 1
                    lane_active &= ~newly_done
                    if not lane_active.any():
                        break
                    active_nodes = np.repeat(lane_active, sizes)
        finally:
            self._draws_ahead = False
            self._drop_ahead()
        if config.stop_when == "budget":
            rounds_done[lane_active] = config.max_rounds
            lane_active[:] = False
        outcome = _BlockOutcome(
            stats=stats,
            rounds_done=rounds_done,
            stuck=[int(i) for i in np.flatnonzero(lane_active)],
            rounds_executed=rounds_executed,
            records=records,
        )
        if telemetry is not None and not stream:
            # Frozen end-state, reused verbatim for the rounds the rest
            # of the batch keeps running (terminated lanes' informed and
            # terminated counts never change; traffic stops).
            outcome.final_informed = int(
                np.count_nonzero(protocol.informed_mask())
            )
            outcome.final_terminated = int(
                np.count_nonzero(protocol.output_mask())
            )
        return outcome


class FastEngine:
    """Drive a :class:`VectorizedProtocol` over batched lanes.

    Semantics mirror :class:`~repro.simulation.engine.SynchronousEngine`
    per lane: the same stop criteria (``leader``/``all``/``any``/
    ``budget``), the same round accounting (a lane's terminal round is
    executed in full), the same :class:`TerminationError` on budget
    exhaustion, and the same per-round validation rules -- performed
    once per distinct tuple of lane round keys, when the block's stacked
    adjacency is built.

    Args:
        protocol: The vectorized protocol instance (one per engine);
            it runs every chunk of the batch.
        lanes: The independent runs to stack; a single lane is the
            un-batched case.
        config: Engine configuration, as on the object engine.
        max_lane_nodes: Streaming budget -- the maximum number of nodes
            stacked into one block-diagonal chunk.  ``None`` (default)
            adopts the ambient budget (:func:`lane_budget_enabled`,
            set by ``--max-lane-nodes``); with no budget anywhere the
            whole batch runs as one monolithic stack.  Chunked and
            monolithic executions produce identical results, counters,
            and telemetry trajectories; only peak memory differs.

    Example:
        >>> from repro.core.counting.star import VectorizedStar
        >>> from repro.networks.generators.stars import star_network
        >>> engine = FastEngine(
        ...     VectorizedStar(),
        ...     [FastLane(star_network(5), 5, leader=0)],
        ...     config=EngineConfig(max_rounds=4),
        ... )
        >>> engine.run()[0].leader_output
        5
    """

    def __init__(
        self,
        protocol: VectorizedProtocol,
        lanes: Sequence[FastLane],
        *,
        config: EngineConfig | None = None,
        max_lane_nodes: int | None = None,
    ) -> None:
        if not lanes:
            raise ValueError("need at least one lane")
        self.config = config or EngineConfig()
        self.protocol = protocol
        self.lanes = list(lanes)
        sizes = []
        for index, lane in enumerate(self.lanes):
            if lane.n < 1:
                raise ValueError("every lane needs at least one node")
            if lane.leader is not None and not 0 <= lane.leader < lane.n:
                raise ValueError(
                    f"lane {index}: leader index {lane.leader} out of range"
                )
            if self.config.stop_when == "leader" and lane.leader is None:
                raise ValueError("stop_when='leader' requires a leader index")
            sizes.append(lane.n)
        self.total_nodes = int(sum(sizes))
        if max_lane_nodes is None:
            max_lane_nodes = active_lane_budget()
        if max_lane_nodes is not None:
            max_lane_nodes = _validate_budget(max_lane_nodes)
        self.max_lane_nodes = max_lane_nodes
        self._chunks = partition_lanes(sizes, max_lane_nodes)

    # -- execution ----------------------------------------------------

    def run(self) -> list[SimulationResult]:
        """Execute all lanes; one :class:`SimulationResult` per lane.

        Raises:
            TerminationError: Some lane did not meet the stop criterion
                within ``config.max_rounds`` (never for ``"budget"``).
            TopologyError: A lane produced an invalid graph.
        """
        config = self.config
        counter("engine.fast.batches")
        counter("engine.runs", len(self.lanes))
        telemetry = telemetry_mod.active()
        streaming = len(self._chunks) > 1
        stats = {"rounds": 0, "graphs": 0, "sent": 0, "delivered": 0}
        results: list[SimulationResult] = []
        stuck: list[int] = []
        fused_rounds = 0
        max_lane_rounds = 0
        # (outcome, block) per finished chunk, for telemetry merging.
        chunk_telemetry: list[tuple[_BlockOutcome, _LaneBlock]] = []
        with span(
            "engine.fast.run",
            lanes=len(self.lanes),
            nodes=self.total_nodes,
            stop_when=config.stop_when,
            chunks=len(self._chunks),
        ):
            for start, stop in self._chunks:
                block = _LaneBlock(self.lanes[start:stop], config, start)
                outcome = block.run(
                    self.protocol,
                    telemetry,
                    stream=not streaming,
                    batch_nodes=self.total_nodes,
                )
                # Extract lane results before the next chunk's allocate
                # replaces the protocol state.
                for local, layout in enumerate(block.layouts):
                    results.append(
                        self._lane_result(
                            block.lanes[local],
                            layout,
                            int(outcome.rounds_done[local]),
                        )
                    )
                for key in stats:
                    stats[key] += outcome.stats[key]
                stuck.extend(start + local for local in outcome.stuck)
                fused_rounds = max(fused_rounds, outcome.rounds_executed)
                max_lane_rounds = max(
                    max_lane_rounds, int(outcome.rounds_done.max(initial=0))
                )
                if telemetry is not None and streaming:
                    chunk_telemetry.append((outcome, block))
                del block, outcome
            # One value emission per batch: the monolithic loop executes
            # max-over-lanes rounds, and so does the slowest chunk.
            counter("engine.fast.fused_rounds", fused_rounds)
            if telemetry is not None and streaming:
                self._emit_merged_telemetry(
                    telemetry, chunk_telemetry, fused_rounds
                )
            if stuck:
                shown = sorted(stuck)[:10]
                raise TerminationError(
                    f"stop criterion {config.stop_when!r} not met within "
                    f"{config.max_rounds} rounds (lanes {shown})"
                )
        counter("engine.rounds", stats["rounds"])
        counter("engine.graphs", stats["graphs"])
        counter("engine.messages_sent", stats["sent"])
        counter("engine.messages_delivered", stats["delivered"])
        _log.debug(
            "fast batch finished",
            extra={
                "lanes": len(self.lanes),
                "nodes": self.total_nodes,
                "chunks": len(self._chunks),
                "lane_rounds": max_lane_rounds,
            },
        )
        return results

    def _emit_merged_telemetry(
        self,
        telemetry,
        chunk_telemetry: list[tuple[_BlockOutcome, _LaneBlock]],
        total_rounds: int,
    ) -> None:
        """Fold per-chunk telemetry into the monolithic trajectory.

        The monolithic stack emits one record per sampled round until
        the *last* lane finishes, with finished lanes' edges still
        counted and their informed/terminated tallies frozen.  A chunk
        that finished early therefore contributes its frozen end-state
        (and per-round edge counts) to every later sampled round.
        """
        merged: dict[int, dict[str, int]] = {}

        def slot(round_no: int) -> dict[str, int]:
            return merged.setdefault(
                round_no, dict.fromkeys(_TELEMETRY_KEYS, 0)
            )

        for outcome, block in chunk_telemetry:
            for round_no, record in outcome.records.items():
                entry = slot(round_no)
                for key in _TELEMETRY_KEYS:
                    entry[key] += record[key]
            for round_no in range(outcome.rounds_executed, total_rounds):
                if not telemetry.wants(round_no):
                    continue
                entry = slot(round_no)
                entry["edges"] += block.edges_at(round_no)
                entry["informed"] += outcome.final_informed
                entry["terminated"] += outcome.final_terminated
        for round_no in sorted(merged):
            record = merged[round_no]
            telemetry.emit(
                {
                    "engine": "fast",
                    "round": round_no,
                    **record,
                    "nodes": self.total_nodes,
                }
            )

    def _lane_result(
        self, lane: FastLane, layout: LaneLayout, rounds: int
    ) -> SimulationResult:
        outputs = self.protocol.outputs_for(layout)
        leader_output = (
            outputs.get(lane.leader) if lane.leader is not None else None
        )
        return SimulationResult(
            rounds=rounds,
            outputs=outputs,
            leader_output=leader_output,
            terminated=True,
        )
