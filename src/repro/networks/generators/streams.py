"""Per-round random streams: one counter-based Philox stream per
``(seed, round, stream)``.

Every seeded dynamic family draws round ``r`` as a pure function of its
seed and ``r``, so any round can be rebuilt alone, in any order, on
either engine.  :func:`round_rng` is the one place that turns
``(seed, round_no, stream)`` into a generator: Philox keyed by ``seed``
with its 256-bit counter starting at ``[0, round_no, stream, 0]``.  The
draws are those of a freshly built
``Generator(Philox(key=seed, counter=[0, round_no, stream, 0]))``, but
the generator is built once per thread and reset in place, which costs
about a sixth of building a ``default_rng`` seeded with the list
``[seed, round_no]`` (whose SeedSequence hashing dominated a tiny
lane's draw).  Philox advances counter word 0 only, so a round's stream
would have to draw 2^64 blocks of four words before it ran into the
next round's.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

__all__ = ["KEY_LIMIT", "TOPOLOGY_STREAM", "round_rng"]

#: Version of the per-round streams.  Every seeded topology, and so
#: every stored result drawn from one, depends on it; a result cache
#: treats an entry written under another version as a miss.  Version 1
#: (never written down) seeded each round with a ``default_rng`` of the
#: list ``[seed, round_no]``; version 2 is :func:`round_rng`.
TOPOLOGY_STREAM = 2

#: Seeds are Philox keys: two 64-bit words, so ``0 <= seed < 2**128``.
KEY_LIMIT = 2**128
_WORD_LIMIT = 2**64
_LOW_WORD = _WORD_LIMIT - 1


class _Kept(threading.local):
    """This thread's generator and the state dict that resets it.

    A reset rewrites the dict's key and counter arrays in place and
    assigns the dict back, which also empties the generator's buffer.
    """

    def __init__(self) -> None:
        self.bit_generator = np.random.Philox(0)
        self.generator = np.random.Generator(self.bit_generator)
        self.state = self.bit_generator.state
        self.key = self.state["state"]["key"]
        self.counter = self.state["state"]["counter"]


_kept = _Kept()


def round_rng(
    seed: int, round_no: int, stream: int = 0
) -> np.random.Generator:
    """This thread's generator, reset to the ``(seed, round_no,
    stream)`` stream.

    Its draws equal those of
    ``Generator(Philox(key=seed, counter=[0, round_no, stream, 0]))``.
    ``stream`` separates draws one family makes for the same round
    (say, a persistent tree and the round's extra edges).

    Every call on a thread resets and returns the same generator: a
    caller finishes with one round's generator before it asks for
    another, and never keeps it past its own round.  Each thread has
    its own, so a round drawn on a worker thread never disturbs one
    drawn on the engine thread.

    Raises:
        ValueError: ``seed`` is negative or at least ``2**128`` (the
            Philox key width), or ``round_no`` or ``stream`` is
            negative or at least ``2**64``.
    """
    seed = operator.index(seed)
    if not 0 <= seed < KEY_LIMIT:
        raise ValueError(
            f"seed must be in [0, 2**128) (a Philox key is two 64-bit "
            f"words), got {seed}"
        )
    if not (0 <= round_no < _WORD_LIMIT and 0 <= stream < _WORD_LIMIT):
        raise ValueError(
            f"round_no and stream must be in [0, 2**64), got "
            f"round_no={round_no}, stream={stream}"
        )
    kept = _kept
    kept.key[0] = seed & _LOW_WORD
    kept.key[1] = seed >> 64
    counter = kept.counter
    counter[1] = round_no
    counter[2] = stream
    kept.bit_generator.state = kept.state
    return kept.generator
