"""k-token dissemination -- the related problem behind the bounds.

Section 2 of the paper frames its contribution against *k-token
dissemination* (Kuhn, Lynch & Oshman, STOC 2010): ``k`` tokens start at
nodes of ``V`` and must reach every node.  Two regimes matter:

* with **unlimited bandwidth** (the paper's model) dissemination is
  trivial -- flooding completes in ``D`` rounds, which is exactly why
  the paper's ``D + Ω(log |V|)`` counting bound is interesting: in this
  model *information transport* is cheap and the log-cost is pure
  anonymity;
* with **one token per message** (the token-forwarding class for which
  the ``Ω(n log k)`` / ``Ω(nk / log n)`` lower bounds are proved),
  dissemination itself is expensive.  The classic upper bound with
  known ``n`` is implemented here: repeat ``k`` times "everyone
  broadcasts the smallest uncommitted token it knows, for ``n``
  rounds, then commits it".  1-interval connectivity guarantees the
  globally smallest uncommitted token reaches at least one new node per
  round, so each phase completes and the total is ``n·k`` rounds.

The ``tab-token-dissemination`` experiment runs both on the same
dynamics and tabulates the regime gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.counting.token_ids import union_neighbour_sets
from repro.networks.csr_native import DynamicGraph
from repro.simulation.engine import EngineConfig, SynchronousEngine
from repro.simulation.errors import ModelError
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
    "DisseminationResult",
    "TokenFloodProcess",
    "VectorizedTokenFlood",
    "MinTokenForwardProcess",
    "disseminate_by_flooding",
    "disseminate_by_flooding_batch",
    "disseminate_by_token_forwarding",
]


@dataclass(frozen=True)
class DisseminationResult:
    """Outcome of a dissemination run.

    Attributes:
        rounds: Executed rounds until every node held every token.
        tokens: Number of distinct tokens disseminated.
        messages: Total token-copies transmitted (bandwidth proxy).
    """

    rounds: int
    tokens: int
    messages: int


def _validate_assignment(
    network: DynamicGraph, assignment: dict[int, int]
) -> set[int]:
    if not assignment:
        raise ModelError("need at least one token")
    for node in assignment:
        if not 0 <= node < network.n:
            raise ModelError(f"token holder {node} outside the node set")
    return set(assignment.values())


class TokenFloodProcess(Process):
    """Unlimited bandwidth: broadcast every known token every round."""

    def __init__(self, initial: frozenset, total: int) -> None:
        self.known = initial
        self.total = total
        self.sent = 0
        self._output = None
        self._check_done()

    def _check_done(self) -> None:
        if len(self.known) == self.total and self._output is None:
            self._output = True

    def compose(self, round_no: int) -> frozenset:
        self.sent += len(self.known)
        return self.known

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for payload in inbox:
            self.known |= payload
        self._check_done()


class VectorizedTokenFlood(VectorizedProtocol):
    """Token flooding on the fast backend.

    Per-node token sets are rows of a boolean matrix (stacked nodes by
    lane-local token columns); a round of set unions is a
    sparse-by-dense matmul in column blocks
    (:func:`~repro.core.counting.token_ids.union_neighbour_sets`).  A
    node is done when its row is full; the message total (token-copies transmitted, the object protocol's
    ``sent`` accounting) sums the row populations of every active lane
    at each send phase -- including the terminal round, exactly as the
    object protocol's ``compose`` does.

    Args:
        assignments: Per-lane ``node -> token`` initial placement, by
            batch lane index.
        token_counts: Per-lane number of distinct tokens, likewise.
    """

    def __init__(
        self,
        assignments: Sequence[dict[int, int]],
        token_counts: Sequence[int],
    ) -> None:
        self._assignments = list(assignments)
        self._token_counts = [int(count) for count in token_counts]
        self.messages: list[int] = []

    def allocate(self, layouts: Sequence[LaneLayout]) -> None:
        if len(self._assignments) <= layouts[-1].index:
            raise ValueError("one assignment per lane required")
        self._layouts = list(layouts)
        total = layouts[-1].stop
        width = max(self._token_counts[layout.index] for layout in layouts)
        self.known = np.zeros((total, width), dtype=bool)
        self._required = np.zeros(total, dtype=np.int64)
        for layout in layouts:
            assignment = self._assignments[layout.index]
            count = self._token_counts[layout.index]
            columns = {
                token: column
                for column, token in enumerate(sorted(set(assignment.values())))
            }
            for node, token in assignment.items():
                self.known[layout.offset + node, columns[token]] = True
            self._required[layout.offset : layout.stop] = count
        self.messages[layouts[0].index :] = [0] * len(layouts)

    def step(
        self, round_no: int, adjacency, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        total = self.known.shape[0]
        # Send phase: every node broadcasts its (possibly empty) token
        # set -- an empty frozenset is still a non-None payload in the
        # object protocol, so every node counts as sending.
        held = self.known.sum(axis=1)
        for layout in self._layouts:
            if active[layout.offset]:
                self.messages[layout.index] += int(
                    held[layout.offset : layout.stop].sum()
                )
        sending = np.ones(total, dtype=bool)
        delivered = adjacency.degrees
        union_neighbour_sets(self.known, adjacency)
        return sending, delivered

    def output_mask(self) -> np.ndarray:
        return self.known.sum(axis=1) == self._required

    def outputs_for(self, layout: LaneLayout) -> dict[int, bool]:
        rows = slice(layout.offset, layout.stop)
        full = self.known[rows].sum(axis=1) == self._required[rows]
        return {index: True for index in range(layout.n) if full[index]}


def disseminate_by_flooding(
    network: DynamicGraph,
    assignment: dict[int, int],
    *,
    max_rounds: int = 10_000,
    backend: str = "object",
) -> DisseminationResult:
    """Disseminate by flooding (the paper's-model trivial algorithm).

    Args:
        network: A 1-interval connected dynamic graph.
        assignment: ``node -> token`` initial placement (one token per
            listed node; nodes may share a token value).
        max_rounds: Engine round budget.
        backend: ``"object"`` or ``"fast"``; same result either way.

    Returns:
        The result; ``rounds`` is at most the dynamic diameter ``D``.
    """
    resolve_backend(backend)
    if backend == "fast":
        return disseminate_by_flooding_batch(
            [(network, assignment)], max_rounds=max_rounds
        )[0]
    tokens = _validate_assignment(network, assignment)
    processes = [
        TokenFloodProcess(
            frozenset({assignment[node]}) if node in assignment else frozenset(),
            len(tokens),
        )
        for node in range(network.n)
    ]
    engine = SynchronousEngine(
        processes,
        network,
        leader=None,
        config=EngineConfig(max_rounds=max_rounds, stop_when="all"),
    )
    result = engine.run()
    return DisseminationResult(
        rounds=result.rounds,
        tokens=len(tokens),
        messages=sum(process.sent for process in processes),
    )


def disseminate_by_flooding_batch(
    jobs: Sequence[tuple[DynamicGraph, dict[int, int]]],
    *,
    max_rounds: int = 10_000,
    max_lane_nodes: int | None = None,
) -> list[DisseminationResult]:
    """Flood-dissemination over many networks, fused into one fast batch.

    Every ``(network, assignment)`` job becomes one lane; equivalent to
    :func:`disseminate_by_flooding` per job with ``backend="fast"``.
    """
    if not jobs:
        return []
    token_sets = [
        _validate_assignment(network, assignment)
        for network, assignment in jobs
    ]
    protocol = VectorizedTokenFlood(
        [assignment for _, assignment in jobs],
        [len(tokens) for tokens in token_sets],
    )
    lanes = [FastLane(network, network.n, leader=None) for network, _ in jobs]
    engine = FastEngine(
        protocol,
        lanes,
        config=EngineConfig(max_rounds=max_rounds, stop_when="all"),
        max_lane_nodes=max_lane_nodes,
    )
    return [
        DisseminationResult(
            rounds=result.rounds,
            tokens=len(tokens),
            messages=protocol.messages[index],
        )
        for index, (result, tokens) in enumerate(
            zip(engine.run(), token_sets)
        )
    ]


class MinTokenForwardProcess(Process):
    """Token forwarding with known ``n``: one token per message.

    Phase ``p`` spans rounds ``[p·n, (p+1)·n)``; throughout a phase the
    process broadcasts the smallest *uncommitted* token it knows.  At a
    phase boundary every process commits the smallest uncommitted token
    it knows -- by the one-new-node-per-round argument that token is,
    by then, common knowledge.  After ``k`` phases all tokens are
    committed everywhere.
    """

    def __init__(self, initial: frozenset, n: int, total: int) -> None:
        self.known: set[int] = set(initial)
        self.committed: set[int] = set()
        self.n = n
        self.total = total
        self.sent = 0
        self._output = None

    def _uncommitted_min(self) -> int | None:
        open_tokens = self.known - self.committed
        return min(open_tokens) if open_tokens else None

    def compose(self, round_no: int) -> int | None:
        token = self._uncommitted_min()
        if token is not None:
            self.sent += 1
        return token

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for payload in inbox:
            self.known.add(payload)
        if (round_no + 1) % self.n == 0:
            token = self._uncommitted_min()
            if token is not None:
                self.committed.add(token)
            if len(self.committed) == self.total and self._output is None:
                self._output = True


def disseminate_by_token_forwarding(
    network: DynamicGraph,
    assignment: dict[int, int],
) -> DisseminationResult:
    """The known-``n`` token-forwarding algorithm (``n·k`` rounds).

    Every message carries exactly one token, matching the
    token-forwarding model of the ``Ω(n log k)`` lower bound.  The run
    executes exactly ``n·k`` rounds and the test suite asserts every
    node then knows (and has committed) every token.
    """
    tokens = _validate_assignment(network, assignment)
    n, k = network.n, len(tokens)
    processes = [
        MinTokenForwardProcess(
            frozenset({assignment[node]}) if node in assignment else frozenset(),
            n,
            k,
        )
        for node in range(network.n)
    ]
    engine = SynchronousEngine(
        processes,
        network,
        leader=None,
        config=EngineConfig(max_rounds=n * k, stop_when="budget"),
    )
    result = engine.run()
    incomplete = [
        index
        for index, process in enumerate(processes)
        if len(process.known) != k or len(process.committed) != k
    ]
    if incomplete:
        raise ModelError(
            f"token forwarding incomplete at nodes {incomplete[:5]} after "
            f"{n * k} rounds -- connectivity assumption violated?"
        )
    return DisseminationResult(
        rounds=result.rounds,
        tokens=k,
        messages=sum(process.sent for process in processes),
    )
