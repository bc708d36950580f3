"""Exception hierarchy for the ``repro`` library.

All exceptions raised deliberately by the library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` and friends)
propagate.
"""

from __future__ import annotations

from typing import Hashable, Iterable

__all__ = [
    "ReproError",
    "SimulationError",
    "TopologyError",
    "ProtocolViolationError",
    "TerminationError",
    "ModelError",
    "InfeasibleObservationError",
    "sorted_labels",
]


def sorted_labels(labels: Iterable[Hashable]) -> list[Hashable]:
    """Node labels in a stable order for error messages.

    Plain ``sorted`` when the labels are mutually comparable; otherwise
    (e.g. ``int`` mixed with ``str``) ordered by ``(type name, repr)``,
    so reporting a malformed node set never raises ``TypeError`` itself.
    """
    labels = list(labels)
    try:
        return sorted(labels)
    except TypeError:
        return sorted(
            labels, key=lambda label: (type(label).__name__, repr(label))
        )


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SimulationError(ReproError):
    """A failure inside the synchronous simulation engine."""


class TopologyError(SimulationError):
    """The adversary produced an invalid communication graph.

    Raised, for example, when the graph for a round does not span the
    process set, is disconnected while the engine requires 1-interval
    connectivity, or a multigraph round violates the ``M(DBL)_k``
    labeling rules.
    """


class ProtocolViolationError(SimulationError):
    """A process implementation broke the rules of the model.

    Raised when a process mutates shared payloads, emits an invalid
    broadcast, or reports an output of an unexpected shape.
    """


class TerminationError(SimulationError):
    """A simulation exceeded its round budget without terminating."""


class ModelError(ReproError):
    """A model object (dynamic graph, multigraph, schedule) is malformed."""


class InfeasibleObservationError(ReproError):
    """A leader observation sequence admits no consistent configuration.

    This can only happen when observations are hand-crafted (or
    corrupted); observations produced by an actual ``M(DBL)_k`` execution
    are always feasible.
    """
