"""Differential drivers: two implementations, one answer.

Where the oracles in :mod:`repro.verify.oracles` check a single
implementation against closed-form truth, the drivers here run *two
independent execution paths* on the same generated input and demand
byte-identical answers:

* **backend** (:func:`check_backend_case`) -- the object engine
  (:class:`~repro.simulation.engine.SynchronousEngine`, the semantics
  oracle) versus the vectorized fast backend
  (:mod:`repro.simulation.fast`) on the same dynamic graphs, for each
  of the three protocol entry points (flooding, counting with IDs,
  token dissemination).  Outputs, round counts *and* the ``engine.*``
  observability counters (runs, rounds, graphs, messages sent and
  delivered) must agree -- the counters are part of the backend
  contract, not a best-effort extra.
* **runtime** (:func:`check_runtime_case`) -- the sweep runtime run
  three ways over a generated workload: serially in-process, in a
  worker pool with cache + journal, and resumed from that journal.
  All three must produce equal results (modulo runtime bookkeeping
  notes), the resume leg must satisfy every task from the journal, and
  the merged ``engine.*`` counters of the serial and pooled legs must
  match.

Both drivers return violation strings (empty = pass), like the oracles.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path
from typing import Any

from repro.analysis.registry import ExperimentRequest, ExperimentResult
from repro.analysis.runtime import Journal, ResultCache, run_sweep
from repro.core.counting.flooding import (
    flood_time_via_protocol,
    flood_times_batch,
)
from repro.core.counting.token_ids import count_with_ids, count_with_ids_batch
from repro.core.dissemination import (
    disseminate_by_flooding,
    disseminate_by_flooding_batch,
)
from repro.networks.csr_native import DynamicGraph
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.verify.strategies import Case, build_network

__all__ = ["check_backend_case", "check_runtime_case"]

#: The observability counters both backends must report identically.
ENGINE_COUNTERS = (
    "engine.runs",
    "engine.rounds",
    "engine.graphs",
    "engine.messages_sent",
    "engine.messages_delivered",
)

#: Notes that record *how* a result was produced rather than *what* it
#: is; stripped before cross-leg result comparison.
_BOOKKEEPING_PREFIXES = ("timing:", "cache:", "runtime:")


# -- backend suite ----------------------------------------------------


def _lane_networks(case: Case) -> list[DynamicGraph]:
    """One deterministic network per lane, all from the case seed."""
    return [
        build_network(
            Case(case.suite, case.kind, case.seed + lane, case.params)
        )
        for lane in range(int(case.params.get("lanes", 1)))
    ]


def _run_flood(networks, case, backend: str):
    n = int(case.params["n"])
    source = case.seed % n
    budget = 4 * n + 8
    if backend == "fast":
        return flood_times_batch(
            [(network, source) for network in networks],
            max_rounds=budget,
            max_lane_nodes=case.params.get("max_lane_nodes"),
        )
    return [
        flood_time_via_protocol(
            network, source, max_rounds=budget, backend="object"
        )
        for network in networks
    ]


def _run_token_ids(networks, case, backend: str):
    horizon = int(case.params["n"])
    if backend == "fast":
        outcomes = count_with_ids_batch(
            [(network, horizon) for network in networks],
            max_lane_nodes=case.params.get("max_lane_nodes"),
        )
    else:
        outcomes = [
            count_with_ids(network, horizon, backend="object")
            for network in networks
        ]
    return [
        (outcome.count, outcome.output_round, outcome.rounds)
        for outcome in outcomes
    ]


def _run_dissemination(networks, case, backend: str):
    n = int(case.params["n"])
    rng = random.Random(f"verify:tokens:{case.seed}")
    holders = rng.sample(range(n), rng.randint(1, n))
    assignment = {node: rng.randint(0, 3) for node in holders}
    budget = 4 * n + 8
    if backend == "fast":
        results = disseminate_by_flooding_batch(
            [(network, assignment) for network in networks],
            max_rounds=budget,
            max_lane_nodes=case.params.get("max_lane_nodes"),
        )
    else:
        results = [
            disseminate_by_flooding(
                network, assignment, max_rounds=budget, backend="object"
            )
            for network in networks
        ]
    return [
        (result.rounds, result.tokens, result.messages)
        for result in results
    ]


_PROTOCOL_RUNNERS = {
    "flood": _run_flood,
    "token-ids": _run_token_ids,
    "dissemination": _run_dissemination,
}


def check_backend_case(case: Case) -> list[str]:
    """Object engine vs fast backend on one generated protocol run."""
    runner = _PROTOCOL_RUNNERS[case.kind]
    legs: dict[str, Any] = {}
    counters: dict[str, dict[str, float]] = {}
    for backend in ("object", "fast"):
        # Fresh networks per leg: identical by construction (seeded
        # providers), but never shared, so neither leg can leak state
        # to the other through the per-round graph cache.
        networks = _lane_networks(case)
        registry = MetricsRegistry()
        with use_registry(registry):
            legs[backend] = runner(networks, case, backend)
        snapshot = registry.snapshot()["counters"]
        counters[backend] = {
            name: snapshot.get(name, 0) for name in ENGINE_COUNTERS
        }

    violations: list[str] = []
    if legs["object"] != legs["fast"]:
        violations.append(
            f"{case.kind}: object backend returned {legs['object']!r} "
            f"but fast backend returned {legs['fast']!r}"
        )
    for name in ENGINE_COUNTERS:
        if counters["object"][name] != counters["fast"][name]:
            violations.append(
                f"{case.kind}: counter {name} = {counters['object'][name]} "
                f"(object) vs {counters['fast'][name]} (fast)"
            )
    return violations


# -- runtime suite ----------------------------------------------------


def _requests(case: Case) -> list[ExperimentRequest]:
    return [
        ExperimentRequest(experiment=name, params=dict(params))
        for name, params in case.params["workload"]
    ]


def _comparable(result: ExperimentResult) -> dict[str, Any]:
    payload = result.to_dict()
    payload["notes"] = [
        note
        for note in payload["notes"]
        if not note.startswith(_BOOKKEEPING_PREFIXES)
    ]
    return payload


def check_runtime_case(case: Case) -> list[str]:
    """Serial vs pooled vs resumed sweeps over a generated workload."""
    violations: list[str] = []
    workload_size = len(case.params["workload"])

    serial_registry = MetricsRegistry()
    with use_registry(serial_registry):
        serial = run_sweep(_requests(case), jobs=1)

    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        journal = Journal(Path(tmp) / "journal.jsonl")
        pool_registry = MetricsRegistry()
        with use_registry(pool_registry):
            pooled = run_sweep(
                _requests(case), jobs=2, cache=cache, journal=journal
            )
        resumed = run_sweep(
            _requests(case),
            jobs=2,
            cache=cache,
            journal=journal,
            resume=True,
        )

    for label, outcome in (("pooled", pooled), ("resumed", resumed)):
        for serial_result, other in zip(serial.results, outcome.results):
            if _comparable(serial_result) != _comparable(other):
                violations.append(
                    f"{serial_result.experiment}: serial and {label} "
                    f"sweeps disagree"
                )
    if resumed.skipped != workload_size:
        violations.append(
            f"resume replayed {resumed.skipped}/{workload_size} tasks "
            f"from the journal (expected all of them)"
        )
    serial_counters = serial_registry.snapshot()["counters"]
    pool_counters = pool_registry.snapshot()["counters"]
    for name in ENGINE_COUNTERS:
        if serial_counters.get(name, 0) != pool_counters.get(name, 0):
            violations.append(
                f"counter {name} = {serial_counters.get(name, 0)} "
                f"(serial) vs {pool_counters.get(name, 0)} (pool of 2)"
            )
    return violations
