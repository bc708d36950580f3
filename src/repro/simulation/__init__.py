"""Synchronous anonymous message-passing simulation engine.

This package implements the computation model of Di Luna & Baldoni
(PODC 2015): a finite static set of processes that execute deterministic
round-based computations and communicate through an *anonymous broadcast*
primitive over a dynamic communication graph chosen by an adversary.

Every round is divided in a *send phase* -- each process composes one
broadcast payload -- and a *receive phase* -- each process is delivered
the payloads broadcast by its current neighbours, with no sender
information attached.  A process does not learn its degree at round ``r``
before the receive phase of ``r`` (unless explicitly given a degree
oracle, see :mod:`repro.core.counting.degree_oracle`).

Main entry points:

* :class:`repro.simulation.engine.SynchronousEngine` -- run a protocol on
  a dynamic graph.
* :class:`repro.simulation.labeled.LabeledStarEngine` -- run a protocol on
  a dynamic bipartite labeled multigraph (the ``M(DBL)_k`` model).
* :class:`repro.simulation.node.Process` -- base class for protocols.
* :class:`repro.simulation.fast.FastEngine` -- vectorized batch backend
  for protocols implementing
  :class:`repro.simulation.fast.VectorizedProtocol`.
"""

from repro.simulation.engine import EngineConfig, SimulationResult, SynchronousEngine
from repro.simulation.errors import (
    ProtocolViolationError,
    ReproError,
    SimulationError,
    TerminationError,
    TopologyError,
)
from repro.simulation.labeled import LabeledStarEngine
from repro.simulation.messages import Inbox, LabeledInbox
from repro.simulation.node import LeaderAware, Process

__all__ = [
    "EngineConfig",
    "FastEngine",
    "FastLane",
    "Inbox",
    "LabeledInbox",
    "LabeledStarEngine",
    "LaneLayout",
    "LeaderAware",
    "Process",
    "ProtocolViolationError",
    "ReproError",
    "SimulationError",
    "SimulationResult",
    "SynchronousEngine",
    "TerminationError",
    "TopologyError",
    "VectorizedProtocol",
]

# The fast backend pulls in repro.networks (CSR lowering), which itself
# depends back on simulation errors and core state modules; importing it
# eagerly here would close an import cycle during package init.  Resolve
# the fast-backend names lazily instead (PEP 562).
_FAST_EXPORTS = {"FastEngine", "FastLane", "LaneLayout", "VectorizedProtocol"}


def __getattr__(name: str):
    if name in _FAST_EXPORTS:
        from repro.simulation import fast

        return getattr(fast, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
