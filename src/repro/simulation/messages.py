"""Inbox containers delivered to processes during the receive phase.

The model is anonymous: a delivered payload carries no sender identity.
To make this hard to get wrong, the engine hands processes an
:class:`Inbox` -- an immutable multiset-like container whose iteration
order is deterministic (payloads are sorted by a canonical key) so that a
protocol cannot accidentally extract information from delivery order.

In the labeled multigraph model (``M(DBL)_k``) an edge label *is*
observable: the leader receives a :class:`LabeledInbox` of
``(label, payload)`` pairs, matching Definition 7 of the paper (the
leader state is built from ``(j, S(v, r))`` pairs).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from typing import Any

__all__ = ["Inbox", "LabeledInbox", "canonical_sort_key"]


def canonical_sort_key(payload: Any) -> str:
    """Return a deterministic, content-only ordering key for a payload.

    The key is ``repr``-based: payloads used by the protocols in this
    library (tuples, frozensets, ints, Fractions) all have deterministic
    ``repr`` once frozensets are converted through :func:`repr` of their
    sorted contents.  Frozensets are special-cased because their native
    ``repr`` order follows hash randomisation.
    """
    return _canonical_repr(payload)


def _canonical_repr(payload: Any) -> str:
    if isinstance(payload, frozenset):
        inner = ", ".join(sorted(_canonical_repr(item) for item in payload))
        return f"frozenset({{{inner}}})"
    if isinstance(payload, tuple):
        inner = ", ".join(_canonical_repr(item) for item in payload)
        return f"({inner})"
    if isinstance(payload, dict):
        inner = ", ".join(
            f"{_canonical_repr(key)}: {_canonical_repr(value)}"
            for key, value in sorted(
                payload.items(), key=lambda kv: _canonical_repr(kv[0])
            )
        )
        return f"{{{inner}}}"
    return repr(payload)


class Inbox:
    """An immutable multiset of anonymous payloads.

    Iteration yields payloads in canonical (content-sorted) order, so two
    inboxes holding the same multiset of payloads are indistinguishable
    -- exactly the guarantee the anonymous broadcast model provides.
    """

    __slots__ = ("_payloads",)

    def __init__(self, payloads: Iterable[Any]) -> None:
        self._payloads: tuple[Any, ...] = tuple(
            sorted(payloads, key=canonical_sort_key)
        )

    @classmethod
    def _from_sorted(cls, payloads: tuple[Any, ...]) -> "Inbox":
        """Wrap ``payloads`` already in canonical order (engine use only).

        The engine keys each sender's payload once per round and sorts
        every receiver's neighbours by those keys; the result must equal
        ``Inbox(payloads)`` tuple for tuple.
        """
        inbox = cls.__new__(cls)
        inbox._payloads = payloads
        return inbox

    def __iter__(self) -> Iterator[Any]:
        return iter(self._payloads)

    def __len__(self) -> int:
        return len(self._payloads)

    def __bool__(self) -> bool:
        return bool(self._payloads)

    def __contains__(self, payload: Any) -> bool:
        return payload in self._payloads

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Inbox):
            return NotImplemented
        return self._payloads == other._payloads

    def __hash__(self) -> int:
        return hash(self._payloads)

    def __repr__(self) -> str:
        return f"Inbox({list(self._payloads)!r})"

    def counts(self) -> Counter:
        """Return the multiset of payloads as a :class:`collections.Counter`.

        Payloads must be hashable for this view.
        """
        return Counter(self._payloads)

    def as_tuple(self) -> tuple[Any, ...]:
        """Return the payloads as a canonical-ordered tuple."""
        return self._payloads


class LabeledInbox:
    """An immutable multiset of ``(label, payload)`` pairs.

    Used by the ``M(DBL)_k`` engine: the receiver observes, for every
    incident edge, the edge label together with the payload carried over
    that edge.  Pairs are canonically ordered by ``(label, payload)``.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[tuple[int, Any]]) -> None:
        self._pairs: tuple[tuple[int, Any], ...] = tuple(
            sorted(pairs, key=lambda pair: (pair[0], canonical_sort_key(pair[1])))
        )

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledInbox):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"LabeledInbox({list(self._pairs)!r})"

    def labels(self) -> tuple[int, ...]:
        """Return the multiset of labels, canonically ordered."""
        return tuple(label for label, _payload in self._pairs)

    def counts(self) -> Counter:
        """Return the multiset of pairs as a :class:`collections.Counter`."""
        return Counter(self._pairs)

    def payloads(self) -> tuple[Any, ...]:
        """Return just the payloads, in canonical pair order."""
        return tuple(payload for _label, payload in self._pairs)
