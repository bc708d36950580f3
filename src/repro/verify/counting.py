"""Counting-zoo oracles: ``count == n`` plus object-vs-fast drains.

The algorithm zoo (:mod:`repro.core.counting`) implements four
published anonymous counting upper bounds.  Their correctness contract
is unusually crisp -- a counting algorithm must output *exactly* the
network size, and Theorem 1 forbids it from doing so before round
``floor(log3(2n+1)) - 1`` -- which makes every generated network a
free oracle:

* **Correctness** -- every algorithm's outcome must report
  ``count == n`` and an output round at or above the Theorem 1
  horizon, on every generated family (``G(PD)_h``, T-interval,
  edge-markov).
* **Differential** -- the drain-based algorithms (Milani-Mosteiro,
  Chakraborty-Milani-Mosteiro) ship a vectorized fast backend; the
  object engine and the fast batch (including chunked streaming via
  ``max_lane_nodes``) must agree on the full
  :class:`~repro.core.counting.base.CountingOutcome` *and* on the
  ``engine.*`` observability counters, exactly like the backend suite.
  ``drain-mixed`` cases run every network under both drains as one
  fused batch, the zoo's fast path, checked unchunked and chunked.

The history-tree algorithms (Di Luna-Viglietta, Kowalski-Mosteiro) do
not vectorize, so they run correctness-only on the object engine.
"""

from __future__ import annotations

from repro.core.counting.base import CountingOutcome
from repro.core.counting.diluna_viglietta import count_diluna_viglietta
from repro.core.counting.drain import (
    count_chakraborty_mm,
    count_drain_batch,
    count_milani_mosteiro,
)
from repro.core.counting.kowalski_mosteiro import count_kowalski_mosteiro
from repro.core.lowerbound.bounds import theorem1_bound
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.verify.drivers import ENGINE_COUNTERS
from repro.verify.strategies import Case, build_network

__all__ = ["case_population", "check_counting_case"]

#: Drain case kind -> (object-engine counter, fast batch kind).
_DRAINS = {
    "milani-mosteiro": (count_milani_mosteiro, "doubling"),
    "chakraborty-mm": (count_chakraborty_mm, "incremental"),
}


def case_population(case: Case) -> int:
    """The true node count of a counting case's network."""
    params = case.params
    if "n" in params:
        return int(params["n"])
    # G(PD)_h networks are described by layer sizes plus the center.
    return 1 + sum(int(size) for size in params["layers"])


def _correctness(outcome: CountingOutcome, n: int, label: str) -> list[str]:
    violations: list[str] = []
    if outcome.count != n:
        violations.append(
            f"{label}: counted {outcome.count} on a {n}-node network"
        )
    horizon = theorem1_bound(n)
    if outcome.output_round < horizon:
        violations.append(
            f"{label}: output at round {outcome.output_round}, below "
            f"the Theorem 1 horizon {horizon} for n={n}"
        )
    return violations


def _lane_networks(case: Case) -> list:
    """One deterministic network per lane, all from the case seed."""
    return [
        build_network(
            Case(case.suite, case.kind, case.seed + lane, case.params)
        )
        for lane in range(int(case.params.get("lanes", 1)))
    ]


def _drain_lanes(case: Case) -> list[tuple[int, str]]:
    """``(network index, drain kind)`` per lane of a drain case.

    A ``drain-mixed`` case runs every network under both drains, as the
    zoo does: grouped by drain, or network by network with
    ``interleave``.
    """
    networks = range(int(case.params.get("lanes", 1)))
    if case.kind != "drain-mixed":
        return [(index, case.kind) for index in networks]
    if case.params.get("interleave"):
        return [(index, kind) for index in networks for kind in _DRAINS]
    return [(index, kind) for kind in _DRAINS for index in networks]


def _drain_leg(
    case: Case,
    lanes: list[tuple[int, str]],
    *,
    fast: bool,
    max_lane_nodes: int | None = None,
) -> tuple[list[CountingOutcome], dict[str, float]]:
    # Fresh networks per leg (identical by construction) so no leg can
    # leak state through the per-round graph cache.  Within a leg the
    # lanes of one network share its object, as in the zoo.
    networks = _lane_networks(case)
    registry = MetricsRegistry()
    with use_registry(registry):
        if fast:
            outcomes = count_drain_batch(
                [networks[index] for index, _kind in lanes],
                [_DRAINS[kind][1] for _index, kind in lanes],
                max_lane_nodes=max_lane_nodes,
            )
        else:
            outcomes = [
                _DRAINS[kind][0](networks[index], backend="object")
                for index, kind in lanes
            ]
    snapshot = registry.snapshot()["counters"]
    return outcomes, {name: snapshot.get(name, 0) for name in ENGINE_COUNTERS}


def _check_drain_case(case: Case, n: int) -> list[str]:
    lanes = _drain_lanes(case)
    budget = case.params.get("max_lane_nodes")
    legs = {"object": _drain_leg(case, lanes, fast=False)}
    if case.kind == "drain-mixed":
        # The fused batch, both monolithic and chunked.
        legs["fast"] = _drain_leg(case, lanes, fast=True)
        legs[f"fast (max_lane_nodes={budget})"] = _drain_leg(
            case, lanes, fast=True, max_lane_nodes=budget
        )
    else:
        legs["fast"] = _drain_leg(case, lanes, fast=True, max_lane_nodes=budget)

    violations: list[str] = []
    expected, expected_counters = legs.pop("object")
    for lane, (outcome, (_index, kind)) in enumerate(zip(expected, lanes)):
        violations.extend(_correctness(outcome, n, f"{kind}[lane {lane}]"))
    for leg, (outcomes, counters) in legs.items():
        if outcomes != expected:
            violations.append(
                f"{case.kind}: object backend returned {expected!r} "
                f"but {leg} backend returned {outcomes!r}"
            )
        for name in ENGINE_COUNTERS:
            if counters[name] != expected_counters[name]:
                violations.append(
                    f"{case.kind}: counter {name} = "
                    f"{expected_counters[name]} (object) vs "
                    f"{counters[name]} ({leg})"
                )
    return violations


def check_counting_case(case: Case) -> list[str]:
    """Run the counting-suite oracle on one generated case."""
    n = case_population(case)
    if case.kind == "diluna-viglietta":
        outcome = count_diluna_viglietta(build_network(case))
        return _correctness(outcome, n, case.kind)
    if case.kind == "kowalski-mosteiro":
        outcome = count_kowalski_mosteiro(
            build_network(case),
            supervisors=int(case.params.get("supervisors", 1)),
        )
        return _correctness(outcome, n, case.kind)
    return _check_drain_case(case, n)
