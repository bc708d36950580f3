"""Di Luna-Viglietta linear-time counting for anonymous dynamic nets.

Di Luna & Viglietta, "Brief Announcement: A Stronger Model for Dynamic
Networks" / "Optimal computation in anonymous dynamic networks"
(arXiv 2204.02128) show that a single leader suffices to count an
anonymous 1-interval-connected network in ``O(n)`` rounds using
*history trees*: every node floods its full view, and the leader
recovers the class multiplicities from exact linear constraints.  Here
a node's message is the id of its hash-consed view, which names that
whole tree.

This module is the thin leader-anchored wrapper over the shared
machinery in :mod:`repro.core.counting.history` -- the anchor is the
unique leader (``anchor_total=1``) and only the leader decides.  The
protocol is *object-engine only*: the per-node state is an unbounded
recursively-defined view, which does not vectorize into fixed-width
lanes (the drain-based counters in :mod:`repro.core.counting.drain` are
the fast-backend members of the zoo).

The implementation is an honest adaptation, not a line-by-line
transcription: termination uses the linear margin + cross-level
agreement rule documented in :mod:`repro.core.counting.history`, and
the ``repro.verify`` counting suite fuzzes ``count == n`` across every
network family.
"""

from __future__ import annotations

from repro.core.counting.base import CountingOutcome
from repro.core.counting.history import HistoryProcess, ViewTable
from repro.networks.csr_native import DynamicGraph
from repro.simulation.engine import EngineConfig, SynchronousEngine

__all__ = ["count_diluna_viglietta", "default_history_budget"]


def default_history_budget(n: int) -> int:
    """Round budget for the history-tree counters: comfortably linear."""
    return 4 * n + 16


def count_diluna_viglietta(
    network: DynamicGraph,
    *,
    leader: int = 0,
    max_rounds: int | None = None,
    slack: int = 2,
) -> CountingOutcome:
    """Count ``network`` with the DV history-tree protocol.

    Args:
        network: Dynamic graph to count; must stay connected each round.
        leader: Index of the unique distinguished node.
        max_rounds: Engine round budget; defaults to
            :func:`default_history_budget`.
        slack: Termination-margin slack forwarded to
            :class:`~repro.core.counting.history.HistoryProcess`.

    Returns:
        A :class:`CountingOutcome` whose ``detail`` records the level
        the winning multiplicity solve used.
    """
    n = network.n
    if not 0 <= leader < n:
        raise ValueError(f"leader {leader} out of range for n={n}")
    budget = default_history_budget(n) if max_rounds is None else max_rounds
    table = ViewTable()
    processes = [
        HistoryProcess(
            table,
            marked=(index == leader),
            anchor_total=1,
            decide=(index == leader),
            slack=slack,
        )
        for index in range(n)
    ]
    engine = SynchronousEngine(
        processes,
        network,
        leader=leader,
        config=EngineConfig(max_rounds=budget, stop_when="leader"),
    )
    result = engine.run()
    decider = processes[leader]
    return CountingOutcome(
        count=int(result.leader_output),
        output_round=result.rounds - 1,
        rounds=result.rounds,
        algorithm="diluna-viglietta",
        detail={
            "solve_level": decider.decided_level,
            "slack": slack,
            "views_interned": len(table),
        },
    )
