"""Randomised counting and why it fails against the adversary.

The classic randomised fix for anonymity is self-assigned identifiers:
every node draws a long random bit-string as a tentative ID, all IDs
are flooded for ``D`` rounds, and the leader outputs the number of
distinct IDs -- correct with high probability when coins are fair and
the ID space is large.

Footnote 2 of the paper rules this out in the worst-case model: the
adversary governs the randomness, answers every node's draws
identically, and the network stays perfectly symmetric -- the leader
then sees exactly one ID no matter how many nodes exist.  This module
implements the protocol so both regimes can be executed.
"""

from __future__ import annotations

from repro.core.counting.base import CountingOutcome
from repro.networks.csr_native import DynamicGraph
from repro.simulation.engine import EngineConfig, SynchronousEngine
from repro.simulation.messages import Inbox
from repro.simulation.node import Process
from repro.simulation.randomness import AdversarialCoins, CoinSource, FairCoins

__all__ = ["RandomIdProcess", "count_with_random_ids"]

_ID_BITS = 48


class RandomIdProcess(Process):
    """Draw a random tentative ID, flood known IDs, output after ``horizon``."""

    def __init__(self, coins: CoinSource, horizon: int) -> None:
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.known: frozenset[tuple[int, ...]] = frozenset(
            {coins.draw_bits(_ID_BITS)}
        )
        self.horizon = horizon
        self._output = None

    def compose(self, round_no: int) -> frozenset:
        return self.known

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for payload in inbox:
            self.known |= payload
        if round_no + 1 >= self.horizon and self._output is None:
            self._output = len(self.known)


def count_with_random_ids(
    network: DynamicGraph,
    horizon: int,
    *,
    coins: str = "fair",
    seed: int = 0,
    leader: int = 0,
) -> CountingOutcome:
    """Randomised counting by self-assigned IDs.

    Args:
        network: Any 1-interval connected dynamic graph.
        horizon: Dissemination budget; must be at least the dynamic
            diameter for every ID to reach the leader.
        coins: ``"fair"`` gives each process an independent stream
            (correct with probability ``1 - O(n² / 2^48)``);
            ``"adversarial"`` lets the worst-case adversary answer all
            draws -- identically -- so the output is always 1
            regardless of the true size (the paper's footnote 2).
        seed: Seed for the fair streams.
        leader: Node whose output is reported.
    """
    if coins == "fair":
        sources: list[CoinSource] = [
            FairCoins(seed, stream) for stream in range(network.n)
        ]
    elif coins == "adversarial":
        sources = [AdversarialCoins() for _ in range(network.n)]
    else:
        raise ValueError("coins must be 'fair' or 'adversarial'")
    processes = [RandomIdProcess(source, horizon) for source in sources]
    engine = SynchronousEngine(
        processes,
        network,
        leader=leader,
        config=EngineConfig(max_rounds=horizon + 1),
    )
    result = engine.run()
    return CountingOutcome(
        count=result.leader_output,
        output_round=result.rounds - 1,
        rounds=result.rounds,
        algorithm=f"random-ids-{coins}",
    )
