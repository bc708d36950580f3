"""Sampled round-level run telemetry for both simulation backends.

The paper's whole argument is about *per-round* information flow -- how
fast the informed set grows under an adversarial dynamic graph -- yet
spans and counters only see whole experiments.  Telemetry opens the
round loop: when enabled, both engines emit one ``{"kind":
"telemetry", ...}`` JSONL event per sampled round to every registered
sink, carrying the round-indexed quantities the analysis reasons
about::

    {"kind": "telemetry", "engine": "object", "round": 3, "edges": 12,
     "sent": 9, "delivered": 17, "informed": 9, "terminated": 9,
     "nodes": 16, "lanes_active": 1, "ts": ..., "pid": ..., "seq": ...}

Field semantics (identical across backends -- the differential test in
``tests/obs/test_telemetry.py`` holds them to it):

* ``round`` -- the 0-based round just executed; state fields are
  post-round.
* ``informed`` -- nodes whose protocol reports them informed (an
  ``informed`` attribute on the process / an ``informed_mask`` on the
  vectorized protocol); falls back to the committed-output count for
  protocols without an explicit informed notion.
* ``terminated`` -- nodes with a committed output.
* ``sent`` / ``delivered`` / ``edges`` -- the round's traffic and
  graph size (fast backend: totals over the *active* lanes /
  the stacked adjacency).
* ``lanes_active`` -- always 1 on the object engine; on the fast
  backend, lanes whose stop criterion was still unmet entering the
  round.

Cost model: disabled telemetry is a single ``is not None`` attribute
check per round (the engines capture :func:`active` once per run);
``benchmarks/bench_obs.py`` gates that overhead.  Enabled telemetry
samples every ``every``-th round (``--telemetry every=K``), so even a
million-round run can record a bounded trajectory.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import counter
from repro.obs.spans import emit_event

__all__ = [
    "Telemetry",
    "active",
    "disable",
    "enable",
    "parse_every",
    "telemetry_enabled",
]


@dataclass(frozen=True)
class Telemetry:
    """Live telemetry configuration (present only while enabled).

    Attributes:
        every: Sampling period: emit on rounds ``0, every, 2*every...``.
    """

    every: int = 1

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("telemetry sampling period must be >= 1")

    def wants(self, round_no: int) -> bool:
        """Whether ``round_no`` is a sampled round."""
        return round_no % self.every == 0

    def emit(self, record: dict[str, Any]) -> None:
        """Stamp and fan one round record out to the event sinks."""
        record["kind"] = "telemetry"
        record["ts"] = round(time.time(), 6)
        counter("telemetry.records")
        emit_event(record)


_active: Telemetry | None = None


def active() -> Telemetry | None:
    """The enabled telemetry config, or ``None`` (the common case).

    Engines call this once per ``run()`` and keep the result, so the
    per-round cost when disabled is one attribute check.
    """
    return _active


def enable(every: int = 1) -> Telemetry:
    """Enable round telemetry (``--telemetry``); returns the config."""
    global _active
    _active = Telemetry(every=every)
    return _active


def disable() -> None:
    """Disable round telemetry."""
    global _active
    _active = None


@contextmanager
def telemetry_enabled(every: int = 1) -> Iterator[Telemetry]:
    """Scoped :func:`enable` / :func:`disable` (tests, benchmarks)."""
    global _active
    previous = _active
    config = enable(every)
    try:
        yield config
    finally:
        _active = previous


def parse_every(text: str | None) -> int:
    """Parse the ``--telemetry`` argument: ``K`` or ``every=K``.

    ``None`` (bare ``--telemetry``) means every round.
    """
    if text is None:
        return 1
    try:
        every = int(text.removeprefix("every="))
    except ValueError:
        raise ValueError(
            f"--telemetry expects K or every=K, got {text!r}"
        ) from None
    if every < 1:
        raise ValueError("--telemetry sampling period must be >= 1")
    return every
