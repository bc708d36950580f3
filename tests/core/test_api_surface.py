"""The counting API's keyword surface.

The lane budget ``max_lane_nodes`` only changes anything on a batch of
several lanes, so it belongs to the ``*_batch`` helpers (and to
:class:`~repro.simulation.fast.FastEngine`), never to a single-network
entry point.  The drain counters output at the first certifying phase,
and the fast engine has no per-round callback.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro.core.counting
import repro.core.dissemination
from repro.simulation.fast import FastEngine


def _public_parameters() -> dict[str, set[str]]:
    """Parameter names of every public callable, by qualified name."""
    modules = [repro.core.counting, repro.core.dissemination] + [
        importlib.import_module(f"repro.core.counting.{info.name}")
        for info in pkgutil.iter_modules(repro.core.counting.__path__)
    ]
    found = {}
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("_") or not callable(value):
                continue
            if getattr(value, "__module__", "").startswith("repro.core"):
                found[f"{value.__module__}.{name}"] = set(
                    inspect.signature(value).parameters
                )
    return found


PARAMETERS = _public_parameters()


def test_surface_covers_the_drain_counters():
    names = {name.rsplit(".", 1)[1] for name in PARAMETERS}
    assert {
        "count_milani_mosteiro",
        "count_drain_batch",
        "DrainProcess",
        "VectorizedDrain",
        "disseminate_by_flooding",
    } <= names


def test_lane_budget_only_on_batch_helpers():
    offenders = [
        name
        for name, parameters in PARAMETERS.items()
        if "max_lane_nodes" in parameters and not name.endswith("_batch")
    ]
    assert offenders == []


def test_no_confirmations_keyword():
    offenders = [
        name
        for name, parameters in PARAMETERS.items()
        if "confirmations" in parameters
    ]
    assert offenders == []


def test_fast_engine_has_no_round_hook():
    assert "round_hook" not in inspect.signature(FastEngine).parameters
