"""Mass-drain counting: Milani-Mosteiro and Chakraborty-Milani-Mosteiro.

The second family of the algorithm zoo counts by *draining potential
into the leader*.  Every non-leader starts a phase with potential 1;
each round it broadcasts the share ``phi / (k + 1)`` for the current
candidate count ``k``, subtracts one share per neighbour, and adds the
shares it received; the leader only absorbs (``rho += received``).
Broadcast symmetry conserves total mass exactly, so ``rho`` climbs
toward ``n - 1`` while the residual potential decays.  A phase ends
with a *certify* window: nodes snapshot their residual potential,
max-flood it (max is the one aggregate anonymous duplication cannot
corrupt), and the leader accepts candidate ``k`` when the interval
``[rho, rho_stamp + k * max_residual]`` pins a unique integer ``q`` --
for ``k >= n - 1`` that integer is provably ``n - 1``.

Milani & Mosteiro (arXiv 1509.02140) run the candidate schedule
geometrically (``k = 1, 2, 4, ...``); Chakraborty, Milani & Mosteiro
(arXiv 1603.05459) probe every candidate (``k = 1, 2, 3, ...``) --
their *Incremental Counting* -- and demonstrate empirically that it is
polynomial in practice.  Phases for too-small ``k`` are guarded the
way the papers suggest: a clamp of a would-be-negative potential
(possible only when a degree exceeds ``k + 1``) raises a sticky
*dirty* flag that is OR-flooded with the snapshots, and ``rho > k``
vetoes the phase outright.  As in the source papers, sub-``n``
candidates are conjectured (and here fuzz-verified) not to certify a
wrong count; candidates at or above ``n - 1`` are exact.

All arithmetic is exact *fixed-point*: a phase with candidate ``k``
works on the grid ``1/(k+1)^4``, every potential is the integer number
of grid units, and the broadcast share is ``phi // (k+1)`` -- the
papers' bounded-message practicality taken literally.  Rounding a
share down only slows the drain; conservation stays exact, and the
quantisation stall floor ``(k+1)/(k+1)^4`` sits far below the ``1/k``
resolution the certify interval needs.  Integer state is also what
makes the fast backend (:class:`VectorizedDrain`) *bit-identical* to
the object engine: integer sums are associative, so CSR-order
``np.add.reduceat`` neighbour sums equal the object engine's
multiset-order inbox sums, and the object/fast differential in
``repro.verify`` can demand full equality rather than tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.counting.base import CountingOutcome
from repro.networks.csr import CSRAdjacency
from repro.networks.csr_native import DynamicGraph
from repro.simulation.engine import EngineConfig, SynchronousEngine
from repro.simulation.fast import (
    FastEngine,
    FastLane,
    LaneLayout,
    VectorizedProtocol,
    resolve_backend,
)
from repro.simulation.errors import TerminationError
from repro.simulation.messages import Inbox
from repro.simulation.node import Process

__all__ = [
    "DrainPhase",
    "DrainProcess",
    "VectorizedDrain",
    "count_chakraborty_mm",
    "count_chakraborty_mm_batch",
    "count_drain_batch",
    "count_milani_mosteiro",
    "count_milani_mosteiro_batch",
    "doubling_candidates",
    "incremental_candidates",
]

@dataclass(frozen=True)
class DrainPhase:
    """One candidate-``k`` phase of the round-indexed schedule.

    The schedule is a pure function of the round number -- every node
    derives it without knowing ``n``, which is what keeps the phases
    synchronized in an anonymous network.

    Attributes:
        candidate: The candidate count ``k`` probed by this phase.
        drain: Rounds of pure draining before the snapshot.
        flood: Certify-window rounds (drain continues; snapshots and
            dirty flags flood on top).
        start: First global round of the phase.
    """

    candidate: int
    drain: int
    flood: int
    start: int

    @property
    def length(self) -> int:
        return self.drain + self.flood

    @property
    def stop(self) -> int:
        return self.start + self.length

    @property
    def grid(self) -> int:
        """Fixed-point denominator: potentials are ints over this grid."""
        return (self.candidate + 1) ** 4


def _drain_rounds(k: int) -> int:
    # Quadratic in k on purpose: one round moves only a 1/(k+1) mass
    # fraction, so (k+2)^2 rounds amount to ~k units of diffusion time.
    # Phases then certify once k reaches the topology's mixing time --
    # immediately at k ~ n on expanders, k ~ n^2 on paths -- keeping the
    # worst case polynomial without any knowledge of n in the schedule.
    return (k + 2) * (k + 2)


def _flood_rounds(k: int) -> int:
    # k + 2 >= n + 1 hops whenever k >= n - 1: the max-flood provably
    # covers the network in every phase whose candidate is large enough.
    return k + 2


def doubling_candidates() -> Iterator[int]:
    """Milani-Mosteiro candidate schedule: ``1, 2, 4, 8, ...``."""
    k = 1
    while True:
        yield k
        k *= 2


def incremental_candidates() -> Iterator[int]:
    """Chakraborty-Milani-Mosteiro Incremental Counting: ``1, 2, 3, ...``."""
    k = 1
    while True:
        yield k
        k += 1


def default_drain_target(n: int) -> int:
    """Candidate ceiling for the default budget: well past ``n - 1``,
    with quadratic headroom for slow-mixing topologies where exact
    phases fail to certify until ``k`` reaches the mixing time (the
    residual max decays with the conductance, not with ``k``)."""
    return n * n + 4 * n + 8


class DrainProcess(Process):
    """Object-engine mass drain: one node of the MM/CMM protocols.

    The leader outputs ``q + 1`` at the end of the first phase whose
    :func:`certify` test yields a count ``q``, as in both papers.

    Args:
        phases: The (shared, round-indexed) candidate schedule.
        is_leader: Whether this node absorbs mass instead of holding it.
    """

    def __init__(
        self, phases: Sequence[DrainPhase], *, is_leader: bool
    ) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        self.phases = tuple(phases)
        self.is_leader = is_leader
        self._cursor = 0
        self._share = 0
        self._output: int | None = None
        self.decision_detail: dict[str, Any] | None = None
        self._reset(self.phases[0])

    def _reset(self, phase: DrainPhase) -> None:
        # All quantities are integer counts of 1/grid units.
        self.phi = 0 if self.is_leader else phase.grid
        self.rho = 0
        self.rho_stamp = 0
        self.flood = 0
        self.dirty = False

    def compose(self, round_no: int) -> tuple[int, int, int | None, bool]:
        phase = self.phases[self._cursor]
        if round_no >= phase.stop:
            self._cursor += 1
            phase = self.phases[self._cursor]
            self._reset(phase)
        local = round_no - phase.start
        self._share = self.phi // (phase.candidate + 1)
        flood = self.flood if local >= phase.drain else None
        return (self._cursor, self._share, flood, self.dirty)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        phase = self.phases[self._cursor]
        local = round_no - phase.start
        received = 0
        for _phase_index, share, flood, dirty in inbox:
            received += share
            if flood is not None and flood > self.flood:
                self.flood = flood
            if dirty:
                self.dirty = True
        if self.is_leader:
            self.rho += received
        else:
            residual = self.phi - len(inbox) * self._share
            if residual < 0:
                residual = 0
                self.dirty = True
            self.phi = residual + received
        if local == phase.drain - 1:
            self.flood = self.phi
            self.rho_stamp = self.rho
        if (
            self.is_leader
            and local == phase.length - 1
            and self._output is None
        ):
            self._decide(phase)

    def output(self) -> int | None:
        return self._output

    def _decide(self, phase: DrainPhase) -> None:
        q = certify(
            phase,
            rho=self.rho,
            rho_stamp=self.rho_stamp,
            residual_max=self.flood,
            dirty=self.dirty,
        )
        if q is not None:
            self._output = q + 1
            self.decision_detail = {
                "candidate": phase.candidate,
                "phases": self._cursor + 1,
            }


def certify(
    phase: DrainPhase,
    *,
    rho: int,
    rho_stamp: int,
    residual_max: int,
    dirty: bool,
) -> int | None:
    """The phase-end acceptance test, shared by both backends.

    Accepts iff the phase saw no clamp, absorbed no more mass than the
    candidate allows, and the interval ``[rho, rho_stamp + k * M]``
    (in grid units) contains exactly one integer ``q`` -- the claimed
    ``n - 1``.
    """
    k = phase.candidate
    if dirty or rho > k * phase.grid:
        return None
    low = math.ceil(Fraction(rho, phase.grid))
    high = math.floor(Fraction(rho_stamp + k * residual_max, phase.grid))
    return low if low == high else None


@dataclass
class _PhaseGroup:
    """The lanes of a :class:`VectorizedDrain` that share one plan.

    Attributes:
        plan: The group's phase plan.
        lanes: Chunk-local lane indices, ascending.
        leaders: Stacked leader index of each lane in ``lanes``.
        nodes: The group's stacked nodes: ``slice(None)`` when the
            group is the whole run, else an index array.
        cursor: Index of the group's current phase in ``plan``.
    """

    plan: tuple[DrainPhase, ...]
    lanes: list[int]
    leaders: np.ndarray
    nodes: slice | np.ndarray
    cursor: int = 0


class VectorizedDrain(VectorizedProtocol):
    """Fast-backend mass drain, bit-identical to :class:`DrainProcess`.

    State lives in object-dtype arrays of exact grid-unit integers
    (Python ints: unbounded, so huge candidates cannot overflow); the
    receive phase gathers neighbour values through the CSR index array
    and reduces with ``np.add.reduceat`` / ``np.maximum.reduceat``.
    Exactness makes summation order irrelevant, so outputs, rounds and
    engine counters match the object engine byte-for-byte.

    Every lane carries its own phase plan.  Lanes with equal plans form
    a *group* with one phase cursor, reset, snapshot, flood window and
    decision; per-lane state is only the leader scalars (``rho``,
    ``rho_stamp``) and the decided count.  A lane's leader outputs at
    the end of the first phase that certifies a count, as in
    :class:`DrainProcess`.  Each node divides by
    its group's ``k + 1``; a group reset or flood touches only its own
    nodes (the whole arrays when one group spans the run).  Neighbours
    never cross lanes, so the shared gathers stay exact.

    Each plan must cover the engine's round budget: the phase cursor
    never runs past the end of a plan.

    Args:
        plans: One phase plan per lane, in lane order.
    """

    def __init__(self, plans: Sequence[Sequence[DrainPhase]]) -> None:
        self.plans = [tuple(plan) for plan in plans]
        if not self.plans or not all(self.plans):
            raise ValueError("need at least one lane, each with a phase")
        self.details: list[dict[str, Any] | None] = []

    def allocate(self, layouts: Sequence[LaneLayout]) -> None:
        if len(layouts) != len(self.plans):
            raise ValueError(
                f"{len(self.plans)} lane plans for {len(layouts)} lanes"
            )
        self._layouts = list(layouts)
        total = layouts[-1].stop
        self._total = total
        leaders = []
        for layout in layouts:
            if layout.leader is None:
                raise ValueError("the drain protocols require a leader")
            leaders.append(layout.leader)
        self._leaders = np.asarray(leaders, dtype=np.int64)
        self._phi = np.empty(total, dtype=object)
        self._flood = np.empty(total, dtype=object)
        self._dirty = np.zeros(total, dtype=np.int8)
        self._divisor = np.empty(total, dtype=object)
        lanes = len(layouts)
        self._rho: list[int] = [0] * lanes
        self._rho_stamp: list[int] = [0] * lanes
        self._counts = np.zeros(lanes, dtype=np.int64)
        self._done = np.zeros(lanes, dtype=bool)
        self._mask = np.zeros(total, dtype=bool)
        self.details = [None] * lanes
        self._groups = self._group_lanes()
        for group in self._groups:
            self._reset_phase(group)

    def _group_lanes(self) -> list[_PhaseGroup]:
        members: dict[tuple[DrainPhase, ...], list[int]] = {}
        for lane, plan in enumerate(self.plans):
            members.setdefault(plan, []).append(lane)
        groups = []
        for plan, lanes in members.items():
            nodes: slice | np.ndarray = slice(None)
            if len(members) > 1:
                nodes = np.concatenate(
                    [
                        np.arange(
                            self._layouts[lane].offset,
                            self._layouts[lane].stop,
                        )
                        for lane in lanes
                    ]
                )
            groups.append(
                _PhaseGroup(plan, lanes, self._leaders[lanes], nodes)
            )
        return groups

    def _reset_phase(self, group: _PhaseGroup) -> None:
        phase = group.plan[group.cursor]
        nodes = group.nodes
        self._phi[nodes] = phase.grid
        self._phi[group.leaders] = 0
        self._flood[nodes] = 0
        self._dirty[nodes] = 0
        self._divisor[nodes] = phase.candidate + 1
        for lane in group.lanes:
            self._rho[lane] = 0
            self._rho_stamp[lane] = 0

    def _advance(
        self, round_no: int
    ) -> list[tuple[_PhaseGroup, DrainPhase, int]]:
        """Move every group to its phase of ``round_no``.

        Returns ``(group, phase, local round)`` per group.
        """
        live = []
        for group in self._groups:
            phase = group.plan[group.cursor]
            if round_no >= phase.stop:
                group.cursor += 1
                phase = group.plan[group.cursor]
                self._reset_phase(group)
            live.append((group, phase, round_no - phase.start))
        return live

    @staticmethod
    def _gather_reduce(
        adjacency: CSRAdjacency,
        values: np.ndarray,
        reducer: np.ufunc,
        fill: Any,
    ) -> np.ndarray:
        """Per-node reduction of neighbour ``values`` in CSR order.

        ``reduceat`` needs two fixes for empty neighbourhoods: a
        sentinel appended to the gather keeps trailing empty segments
        in bounds, and rows with degree 0 are overwritten with ``fill``
        (``reduceat`` yields the *next* element there, not the unit).
        """
        indptr = adjacency.matrix.indptr
        gathered = values[adjacency.matrix.indices]
        gathered = np.append(gathered, np.asarray([fill], dtype=values.dtype))
        reduced = reducer.reduceat(gathered, indptr[:-1])
        empty = np.diff(indptr) == 0
        if empty.any():
            reduced[empty] = fill
        return reduced

    def step(
        self, round_no: int, adjacency: CSRAdjacency, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        live = self._advance(round_no)
        degrees = adjacency.degrees

        shares = self._phi // self._divisor
        received = self._gather_reduce(adjacency, shares, np.add, 0)
        # Dirty flags and certify floods travel as composed *before*
        # this round's update, so gather from the pre-update state.
        neighbour_dirty = self._gather_reduce(
            adjacency, self._dirty, np.maximum, np.int8(0)
        )
        flooding = [
            group for group, phase, local in live if local >= phase.drain
        ]
        if flooding:
            neighbour_flood = self._gather_reduce(
                adjacency, self._flood, np.maximum, 0
            )
            for group in flooding:
                nodes = group.nodes
                self._flood[nodes] = np.maximum(
                    self._flood[nodes], neighbour_flood[nodes]
                )

        residual = self._phi - shares * degrees
        negative = np.less(residual, 0).astype(bool)
        if negative.any():
            residual[negative] = 0
            self._dirty[negative] = 1
        self._dirty = np.maximum(self._dirty, neighbour_dirty)
        for lane, leader in enumerate(self._leaders):
            self._rho[lane] = self._rho[lane] + received[leader]
        self._phi = residual + received
        self._phi[self._leaders] = 0

        for group, phase, local in live:
            if local == phase.drain - 1:
                self._flood[group.nodes] = self._phi[group.nodes]
                for lane in group.lanes:
                    self._rho_stamp[lane] = self._rho[lane]
            if local == phase.length - 1:
                self._decide(group, phase)

        sending = np.ones(self._total, dtype=bool)
        return sending, degrees

    def _decide(self, group: _PhaseGroup, phase: DrainPhase) -> None:
        for lane in group.lanes:
            if self._done[lane]:
                continue
            leader = self._layouts[lane].leader
            q = certify(
                phase,
                rho=self._rho[lane],
                rho_stamp=self._rho_stamp[lane],
                residual_max=int(self._flood[leader]),
                dirty=bool(self._dirty[leader]),
            )
            if q is not None:
                self._counts[lane] = q + 1
                self._done[lane] = True
                self._mask[leader] = True
                self.details[lane] = {
                    "candidate": phase.candidate,
                    "phases": group.cursor + 1,
                }

    def output_mask(self) -> np.ndarray:
        return self._mask

    def outputs_for(self, layout: LaneLayout) -> dict[int, int]:
        if not self._mask[layout.leader]:
            return {}
        return {
            layout.leader - layout.offset: int(self._counts[layout.index])
        }

    def subset(self, indices: Sequence[int]) -> "VectorizedDrain":
        return VectorizedDrain([self.plans[index] for index in indices])

    def absorb(self, sub: "VectorizedDrain", indices: Sequence[int]) -> None:
        # Chunks arrive in ascending lane order; align decision details
        # with their batch-level lane indices.
        for local, index in enumerate(indices):
            while len(self.details) <= index:
                self.details.append(None)
            self.details[index] = sub.details[local]


#: The drain kinds: candidate schedule and reported algorithm name.
_KINDS = {
    "doubling": (doubling_candidates, "milani-mosteiro"),
    "incremental": (incremental_candidates, "chakraborty-milani-mosteiro"),
}


def _schedule_for(kind: str, n: int, max_rounds: int | None) -> tuple[
    tuple[DrainPhase, ...], int
]:
    """The planned phases and round budget for one network of size ``n``.

    The plan always covers the requested round budget, so the phase
    cursor can never run off the end of the schedule mid-run.  A larger
    ``n`` only extends the plan, so the plan for a batch's largest
    network covers every smaller one.
    """
    candidates, _algorithm = _KINDS[kind]
    target = default_drain_target(n)
    phases: list[DrainPhase] = []
    start = 0
    for k in candidates():
        phase = DrainPhase(k, _drain_rounds(k), _flood_rounds(k), start)
        phases.append(phase)
        start = phase.stop
        if k >= target and (max_rounds is None or start >= max_rounds):
            break
    return tuple(phases), (start if max_rounds is None else max_rounds)


def _count_drain(
    network: DynamicGraph,
    *,
    kind: str,
    leader: int,
    backend: str,
    max_rounds: int | None,
) -> CountingOutcome:
    resolve_backend(backend)
    if backend == "fast":
        return count_drain_batch(
            [network], [kind], leader=leader, max_rounds=max_rounds
        )[0]
    n = network.n
    if not 0 <= leader < n:
        raise ValueError(f"leader {leader} out of range for n={n}")
    phases, budget = _schedule_for(kind, n, max_rounds)
    processes = [
        DrainProcess(phases, is_leader=(index == leader))
        for index in range(n)
    ]
    engine = SynchronousEngine(
        processes,
        network,
        leader=leader,
        config=EngineConfig(max_rounds=budget, stop_when="leader"),
    )
    result = engine.run()
    return CountingOutcome(
        count=int(result.leader_output),
        output_round=result.rounds - 1,
        rounds=result.rounds,
        algorithm=_KINDS[kind][1],
        detail=processes[leader].decision_detail or {},
    )


def count_drain_batch(
    networks: Sequence[DynamicGraph],
    kinds: Sequence[str],
    *,
    leader: int = 0,
    max_rounds: int | None = None,
    max_lane_nodes: int | None = None,
) -> list[CountingOutcome]:
    """Drain counts for many networks, fused into one fast batch.

    ``kinds[i]`` picks network ``i``'s candidate schedule:
    ``"doubling"`` (Milani-Mosteiro) or ``"incremental"``
    (Chakraborty-Milani-Mosteiro).  The engine runs to the largest of
    the kinds' round budgets, and every kind's plan is extended to
    cover it.  Each outcome equals the one its one-kind batch returns,
    and a lane that does not output within its own kind's budget raises
    :class:`TerminationError`.  A network may appear more than once,
    under both kinds for instance: the engine draws each distinct
    network once per round.
    """
    networks = list(networks)
    kinds = list(kinds)
    if len(kinds) != len(networks):
        raise ValueError(
            f"{len(kinds)} kinds for {len(networks)} networks"
        )
    unknown = sorted(set(kinds) - set(_KINDS))
    if unknown:
        raise ValueError(
            f"unknown drain kinds {unknown}; expected {sorted(_KINDS)}"
        )
    if not networks:
        return []
    largest: dict[str, int] = {}
    for network, kind in zip(networks, kinds):
        largest[kind] = max(largest.get(kind, 0), network.n)
    budgets = {
        kind: _schedule_for(kind, n, max_rounds)[1]
        for kind, n in largest.items()
    }
    budget = max(budgets.values())
    # Every plan covers the fused budget; a longer plan only extends a
    # kind's own, so lanes that output in time are unaffected.
    plans = {
        kind: _schedule_for(kind, n, budget)[0]
        for kind, n in largest.items()
    }
    protocol = VectorizedDrain([plans[kind] for kind in kinds])
    lanes = [FastLane(network, network.n, leader=leader) for network in networks]
    engine = FastEngine(
        protocol,
        lanes,
        config=EngineConfig(max_rounds=budget, stop_when="leader"),
        max_lane_nodes=max_lane_nodes,
    )
    results = engine.run()
    late = [
        index
        for index, (kind, result) in enumerate(zip(kinds, results))
        if result.rounds > budgets[kind]
    ]
    if late:
        # Only the kind with the smaller budget can run late.
        raise TerminationError(
            f"stop criterion 'leader' not met within "
            f"{budgets[kinds[late[0]]]} rounds (lanes {late[:10]})"
        )
    return [
        CountingOutcome(
            count=int(result.leader_output),
            output_round=result.rounds - 1,
            rounds=result.rounds,
            algorithm=_KINDS[kind][1],
            detail=protocol.details[index] or {},
        )
        for index, (kind, result) in enumerate(zip(kinds, results))
    ]


def count_milani_mosteiro(
    network: DynamicGraph,
    *,
    leader: int = 0,
    backend: str = "object",
    max_rounds: int | None = None,
) -> CountingOutcome:
    """Count with the Milani-Mosteiro doubling-candidate drain."""
    return _count_drain(
        network,
        kind="doubling",
        leader=leader,
        backend=backend,
        max_rounds=max_rounds,
    )


def count_milani_mosteiro_batch(
    networks: Sequence[DynamicGraph],
    *,
    leader: int = 0,
    max_rounds: int | None = None,
    max_lane_nodes: int | None = None,
) -> list[CountingOutcome]:
    """MM counts for many networks, fused into one fast batch."""
    networks = list(networks)
    return count_drain_batch(
        networks,
        ["doubling"] * len(networks),
        leader=leader,
        max_rounds=max_rounds,
        max_lane_nodes=max_lane_nodes,
    )


def count_chakraborty_mm(
    network: DynamicGraph,
    *,
    leader: int = 0,
    backend: str = "object",
    max_rounds: int | None = None,
) -> CountingOutcome:
    """Count with Chakraborty-Milani-Mosteiro Incremental Counting."""
    return _count_drain(
        network,
        kind="incremental",
        leader=leader,
        backend=backend,
        max_rounds=max_rounds,
    )


def count_chakraborty_mm_batch(
    networks: Sequence[DynamicGraph],
    *,
    leader: int = 0,
    max_rounds: int | None = None,
    max_lane_nodes: int | None = None,
) -> list[CountingOutcome]:
    """CMM counts for many networks, fused into one fast batch."""
    networks = list(networks)
    return count_drain_batch(
        networks,
        ["incremental"] * len(networks),
        leader=leader,
        max_rounds=max_rounds,
        max_lane_nodes=max_lane_nodes,
    )
