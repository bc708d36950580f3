"""Process base classes for round-based anonymous protocols.

A protocol is written by subclassing :class:`Process` and implementing
the two phases of a synchronous round:

* :meth:`Process.compose` -- the *send phase*: return the payload this
  process broadcasts in the given round (or ``None`` to stay silent).
* :meth:`Process.deliver` -- the *receive phase*: consume the inbox of
  payloads broadcast by the current neighbours.

Processes are anonymous.  The engine never exposes a node identity to the
process; the only initial asymmetry permitted by the model is the leader
flag (the leader starts "with a different unique state w.r.t. all the
other nodes", Section 3 of the paper), conveyed at construction time via
:class:`LeaderAware`.

A process signals termination by returning a value from
:meth:`Process.output`; the engine polls it after every receive phase.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.simulation.errors import ProtocolViolationError
from repro.simulation.messages import Inbox

__all__ = ["Process", "LeaderAware", "checked_compose"]


class Process(ABC):
    """A deterministic, anonymous, round-based process.

    Subclasses hold all protocol state as instance attributes.  The
    engine drives each round as ``compose`` (send) then ``deliver``
    (receive), and checks :meth:`output` after the receive phase.
    """

    @abstractmethod
    def compose(self, round_no: int) -> Any:
        """Return the payload to broadcast in round ``round_no``.

        Returning ``None`` broadcasts nothing this round.  Payloads must
        be hashable and should be immutable; the same object is delivered
        to every neighbour.
        """

    @abstractmethod
    def deliver(self, round_no: int, inbox: Inbox) -> None:
        """Process the payloads received in round ``round_no``.

        ``inbox`` holds one payload per neighbour that broadcast a
        non-``None`` payload this round, with no sender information.
        ``len(inbox)`` therefore reveals the node degree only *after*
        the receive phase, as the model prescribes.
        """

    def output(self) -> Any:
        """Return this process's final output, or ``None`` if still running.

        The default implementation reads ``self._output`` if the subclass
        has set it, so most protocols simply assign
        ``self._output = value`` when they decide.
        """
        return getattr(self, "_output", None)


def checked_compose(process: Process, round_no: int) -> Any:
    """``process.compose(round_no)``, checked to be hashable.

    Raises:
        ProtocolViolationError: The payload is neither ``None`` nor
            hashable.
    """
    payload = process.compose(round_no)
    if payload is not None:
        try:
            hash(payload)
        except TypeError as exc:
            raise ProtocolViolationError(
                f"round {round_no}: unhashable broadcast payload "
                f"{payload!r} from {type(process).__name__}"
            ) from exc
    return payload


class LeaderAware(Process, ABC):
    """A process that knows at start-up whether it is the leader.

    This is the only admissible initial asymmetry in the model: counting
    is impossible in fully anonymous dynamic networks without a leader
    (Michail, Chatzigiannakis & Spirakis, DISC 2012), so every counting
    protocol in this library starts from a distinguished leader state.
    """

    def __init__(self, is_leader: bool) -> None:
        self.is_leader = bool(is_leader)
