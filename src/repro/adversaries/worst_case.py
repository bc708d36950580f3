"""The worst-case adversary realising the ``Ω(log |V|)`` lower bound.

The adversary plays the constructive side of Lemma 5: for a network of
size ``n`` it schedules the node label-histories of the *smaller twin*
configuration at the last ambiguous round
``r_h = ambiguity_horizon(n)``.  Through round ``r_h`` the leader's
observations are identical to those of an ``(n+1)``-node network (the
larger twin), so no algorithm -- not even the information-theoretically
optimal one -- can output before round ``r_h + 1``.  From round
``r_h + 1`` the schedule continues with all-labels connections and the
feasible interval collapses, so the optimal counter terminates at
exactly ``rounds_to_count(n) = r_h + 2`` executed rounds: the measured
curve coincides with the theoretical bound point for point
(``benchmarks/bench_lower_bound.py``).
"""

from __future__ import annotations

from repro.obs.logger import get_logger
from repro.obs.metrics import counter
from repro.core.lowerbound.bounds import ambiguity_horizon
from repro.core.lowerbound.pairs import twin_configurations
from repro.core.solver import feasible_size_interval
from repro.core.states import ObservationSequence
from repro.networks.csr_native import precompile_schedule
from repro.networks.csr_native import DynamicGraph
from repro.networks.multigraph import DynamicMultigraph
from repro.networks.transform import PD2Layout, mdbl_to_pd2

_log = get_logger("adversaries.worst_case")

__all__ = [
    "max_ambiguity_multigraph",
    "worst_case_pd2_network",
    "measured_ambiguity_curve",
]


def max_ambiguity_multigraph(n: int, *, extend: str = "full") -> DynamicMultigraph:
    """The worst-case ``M(DBL)_2`` schedule for a network of size ``n``.

    Returns the smaller Lemma 5 twin at the ambiguity horizon of ``n``:
    the instance whose leader state stays consistent with both ``n`` and
    ``n + 1`` nodes for as many rounds as the theory allows.
    """
    horizon = ambiguity_horizon(n)
    smaller, _larger = twin_configurations(horizon, n)
    counter("adversary.worst_case_schedules")
    _log.debug(
        "worst-case schedule built", extra={"n": n, "horizon": horizon}
    )
    return DynamicMultigraph.from_solution(
        2, smaller, extend=extend, name=f"worst-case-n{n}"
    )


def worst_case_pd2_network(
    n: int, *, precompiled: bool = False
) -> tuple[DynamicGraph, PD2Layout]:
    """The worst-case adversary lifted to a ``G(PD)_2`` dynamic graph.

    Applies the Lemma 1 transformation to
    :func:`max_ambiguity_multigraph`; the returned network has
    ``n + 3`` nodes (leader, two middle nodes, ``n`` outer nodes).

    Args:
        n: Network size the adversary is playing against.
        precompiled: When true, the schedule's prefix is lowered once
            into stacked CSR-native index arrays
            (:func:`repro.networks.precompile_schedule`), so fast-backend
            executions never build a ``networkx`` graph per round.  The
            ``extend="full"`` tail is constant past the ambiguity
            horizon, so holding the last prefix round is exact.
    """
    multigraph = max_ambiguity_multigraph(n)
    network, layout = mdbl_to_pd2(multigraph)
    if precompiled:
        network = precompile_schedule(
            network,
            multigraph.prefix_rounds + 1,
            extend="hold",
            name=f"{network.name}:precompiled",
        )
    return network, layout


def measured_ambiguity_curve(
    multigraph: DynamicMultigraph, *, max_rounds: int = 64
) -> list[int]:
    """The leader's interval width after each round of an execution.

    Runs the exact solver on the instance's ground-truth observations
    round by round and records ``interval.width``; the curve is the
    empirical ambiguity profile (positive while counting is impossible,
    0 from the first round the size is pinned).  Stops one round after
    the width first reaches 0.
    """
    observations = ObservationSequence(multigraph.k)
    widths: list[int] = []
    for round_no in range(max_rounds):
        observations.append(multigraph.observation(round_no))
        interval = feasible_size_interval(observations)
        widths.append(interval.width)
        if interval.is_unique:
            _log.debug(
                "ambiguity collapsed",
                extra={"multigraph": multigraph.name, "round_no": round_no},
            )
            return widths
    return widths
