"""Wrap the public callables of each layer so their calls become spans.

The program itself carries no benchmark spans; this module replaces
module and class attributes from outside.  A module-level function is
replaced in *every* loaded ``repro`` module that holds it under its
name, because ``from x import f`` copies the reference: patching only
the defining module would miss, for example, the ``csr_from_edges``
that :mod:`repro.networks.csr_native` calls.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from typing import Iterator

from benchlib import Tracer

__all__ = ["PATCHES", "traced"]

#: (span name, defining module, class or None, attribute).
PATCHES = (
    ("networks.sample", "repro.networks.csr_native", "CSRDynamicGraph", "edges"),
    ("networks.csr_build", "repro.networks.csr", None, "csr_from_edges"),
    ("networks.stack", "repro.networks.csr", None, "stack_adjacencies"),
    ("simulation.matvec", "repro.networks.csr", "CSRAdjacency", "matvec"),
    ("simulation.step", "repro.core.counting.flooding", "VectorizedFlood", "step"),
    ("simulation.step", "repro.core.counting.gossip", "VectorizedPushSum", "step"),
    ("simulation.step", "repro.core.counting.drain", "VectorizedDrain", "step"),
    ("simulation.engine", "repro.simulation.fast", "FastEngine", "run"),
    (
        "counting.dv",
        "repro.core.counting.diluna_viglietta",
        None,
        "count_diluna_viglietta",
    ),
    (
        "counting.km",
        "repro.core.counting.kowalski_mosteiro",
        None,
        "count_kowalski_mosteiro",
    ),
    ("counting.mm", "repro.core.counting.drain", None, "count_milani_mosteiro"),
    (
        "counting.mm",
        "repro.core.counting.drain",
        None,
        "count_milani_mosteiro_batch",
    ),
    ("counting.cmm", "repro.core.counting.drain", None, "count_chakraborty_mm"),
    (
        "counting.history_solve",
        "repro.core.counting.history",
        None,
        "solve_multiplicities",
    ),
    ("runtime.sweep", "repro.analysis.runtime.runner", None, "run_sweep"),
    ("runtime.experiment", "repro.analysis.runtime.runner", None, "timed_run"),
    ("runtime.cache_get", "repro.analysis.runtime.cache", "ResultCache", "load"),
    ("service.submit", "repro.service.jobs", "JobManager", "submit"),
)

#: Modules the upper-vs-lower job reaches through the registry; imported
#: up front so their ``from ... import`` copies exist when patching.
_PRELOAD = (
    "repro.analysis.experiments.upper_vs_lower",
    "repro.scenarios.runner",
    "repro.service.server",
)


def _engine_run(tracer: Tracer, original):
    """``FastEngine.run`` recording node-rounds as the span's work.

    Node-rounds are stacked nodes times the ``engine.fast.fused_rounds``
    the call adds to the current metrics registry.
    """
    from repro.obs.metrics import get_registry

    def run(self):
        registry = get_registry()
        before = registry.value("engine.fast.fused_rounds")
        with tracer.span("simulation.engine") as record:
            result = original(self)
            fused = registry.value("engine.fast.fused_rounds") - before
            record.work = int(self.total_nodes * fused)
        return result

    run.__wrapped__ = original
    return run


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper of :data:`PATCHES`; restore on exit."""
    for module in _PRELOAD:
        importlib.import_module(module)
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module_name, class_name, attribute in PATCHES:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                wrapper = (
                    _engine_run(tracer, original)
                    if name == "simulation.engine"
                    else tracer.wrap(name, original)
                )
                undo.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
                continue
            original = getattr(module, attribute)
            wrapper = tracer.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                if getattr(loaded, attribute, None) is original:
                    undo.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapper)
        yield tracer
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
