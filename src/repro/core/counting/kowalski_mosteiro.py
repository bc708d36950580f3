"""Kowalski-Mosteiro counting without a unique leader.

Kowalski & Mosteiro (arXiv 2104.02937) give the first polynomial-time
counting algorithm for anonymous dynamic networks *without a
distinguished leader*: instead, some known number ``ell >= 1`` of
indistinguishable *supervisor* nodes exists.  Fully leaderless
anonymous counting is impossible -- a symmetric network is
indistinguishable from its double -- so the known-``ell`` relaxation is
exactly what makes the problem solvable, and it strictly generalises
the single-leader setting (``ell = 1`` recovers DV).

Our adaptation reuses the history-tree machinery of
:mod:`repro.core.counting.history` with the anchor constraint
"the marked classes hold ``ell`` nodes in total" instead of "the
leader class holds exactly one".  Every supervisor runs the decider;
the engine stops as soon as *any* node outputs, and the outcome takes
the minimum-index decider's count.  Notably this handles networks the
single-leader anchors cannot, e.g. the all-supervisors symmetric cycle
where every node shares one view class of multiplicity ``ell = n``.

Every node floods only the id of its current view, as in DV, and a
supervisor solves over the records reachable from its own view.
Object-engine only, like DV: the view state does not vectorize.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.counting.base import CountingOutcome
from repro.core.counting.diluna_viglietta import default_history_budget
from repro.core.counting.history import HistoryProcess, ViewTable
from repro.networks.csr_native import DynamicGraph
from repro.simulation.engine import EngineConfig, SynchronousEngine

__all__ = ["count_kowalski_mosteiro"]


def count_kowalski_mosteiro(
    network: DynamicGraph,
    *,
    supervisors: int | Sequence[int] = 1,
    max_rounds: int | None = None,
    slack: int = 2,
) -> CountingOutcome:
    """Count ``network`` with ``ell`` indistinguishable supervisors.

    Args:
        network: Dynamic graph to count; must stay connected each round.
        supervisors: Either the number of supervisors (taken as nodes
            ``0 .. ell-1``; indices are a simulation convenience only,
            the supervisors never learn them) or an explicit sequence
            of supervisor node indices.
        max_rounds: Engine round budget; defaults to
            :func:`~repro.core.counting.diluna_viglietta.default_history_budget`.
        slack: Termination-margin slack for the history decider.

    Returns:
        A :class:`CountingOutcome`; ``detail`` records the supervisor
        count and how many supervisors had decided by the final round.
    """
    n = network.n
    if isinstance(supervisors, int):
        marked = tuple(range(supervisors))
    else:
        marked = tuple(sorted(set(supervisors)))
    if not marked:
        raise ValueError("at least one supervisor is required")
    if marked[0] < 0 or marked[-1] >= n:
        raise ValueError(f"supervisor indices {marked} out of range for n={n}")
    ell = len(marked)
    budget = default_history_budget(n) if max_rounds is None else max_rounds
    table = ViewTable()
    marked_set = set(marked)
    processes = [
        HistoryProcess(
            table,
            marked=(index in marked_set),
            anchor_total=ell,
            decide=(index in marked_set),
            slack=slack,
        )
        for index in range(n)
    ]
    engine = SynchronousEngine(
        processes,
        network,
        leader=None,
        config=EngineConfig(max_rounds=budget, stop_when="any"),
    )
    result = engine.run()
    decided = dict(result.outputs)
    first = min(decided)
    return CountingOutcome(
        count=int(decided[first]),
        output_round=result.rounds - 1,
        rounds=result.rounds,
        algorithm="kowalski-mosteiro",
        detail={
            "supervisors": ell,
            "deciders": len(decided),
            "solve_level": processes[first].decided_level,
            "slack": slack,
        },
    )
