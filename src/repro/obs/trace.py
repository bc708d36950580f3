"""Cross-process trace identity and JSONL trace stitching.

Spans always carried a name-only ``parent`` field, which is ambiguous
the moment two attempts of the same experiment overlap and useless the
moment a sweep fans out over worker processes.  This module gives every
span real identity:

* ``trace_id`` -- one id for a whole logical operation (a sweep, a
  ``repro run``); every span and sink event of the operation carries
  it, across however many processes executed parts of it.
* ``span_id`` / ``parent_id`` -- per-span identity and the edge to the
  enclosing span, so the span *tree* is reconstructible offline.

Propagation is explicit: the sweep runtime captures the current
:func:`propagation_context` before spawning an attempt's
``multiprocessing.Process`` and the worker calls
:func:`adopt_context` first thing, so the worker's root span parents
to the sweep's span even under the ``spawn`` start method (under
``fork`` the context would also be inherited, but adoption makes the
tree deterministic either way).

The second half of the module is the *stitcher*: read one or more
JSONL event files (the per-sink ``pid``/``seq`` stamps make
multi-process interleavings orderable), group events by ``trace_id``,
rebuild each span tree, and render it as an indented tree
(``repro trace``) or as folded stacks for flamegraph tooling
(``repro trace --flame``).
"""

from __future__ import annotations

import glob as glob_mod
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.jsonl import read_jsonl

__all__ = [
    "SpanNode",
    "StitchedTrace",
    "adopt_context",
    "ambient_context",
    "clear_context",
    "expand_paths",
    "folded_stacks",
    "new_id",
    "read_events",
    "render_trace",
    "stitch",
]


def new_id() -> str:
    """A fresh 64-bit hex id (trace or span)."""
    return os.urandom(8).hex()


# Process-ambient trace context: ``(trace_id, parent_span_id)`` adopted
# from a parent process.  The *root* span opened while this is set joins
# the parent's trace instead of starting a new one.  Deliberately
# process-global, not thread-local: it is worker bootstrap state.
_ambient: tuple[str, str | None] | None = None


def adopt_context(trace_id: str, parent_span_id: str | None) -> None:
    """Join the trace of a parent process (worker bootstrap).

    After adoption, the next span opened at stack depth 0 carries
    ``trace_id`` and parents to ``parent_span_id``, and sink events
    emitted outside any span are stamped with ``trace_id``.
    """
    global _ambient
    _ambient = (trace_id, parent_span_id)


def clear_context() -> None:
    """Drop the adopted ambient context (tests; end of worker life)."""
    global _ambient
    _ambient = None


def ambient_context() -> tuple[str, str | None] | None:
    """The adopted ``(trace_id, parent_span_id)``, or ``None``."""
    return _ambient


# -- stitching ---------------------------------------------------------


def expand_paths(patterns: Sequence[str | Path]) -> list[Path]:
    """Expand literal paths and glob patterns into an ordered file list.

    Raises:
        FileNotFoundError: A pattern matched nothing and names no file.
    """
    paths: list[Path] = []
    for pattern in patterns:
        text = str(pattern)
        matches = sorted(glob_mod.glob(text))
        if not matches:
            if Path(text).exists():
                matches = [text]
            else:
                raise FileNotFoundError(f"no file matches {text!r}")
        paths.extend(Path(match) for match in matches)
    return paths


def read_events(
    paths: Sequence[str | Path],
) -> tuple[list[dict[str, Any]], int]:
    """Parse JSONL event files into one list; count unparseable lines.

    Events are ordered by ``(ts, pid, seq)`` so interleavings from
    multiple processes (or multiple files) come back in wall-clock
    order with per-process sequence numbers breaking ties.
    """
    events: list[dict[str, Any]] = []
    bad = 0
    for path in expand_paths(paths):
        file_events, file_bad = read_jsonl(path)
        events.extend(file_events)
        bad += file_bad  # e.g. the torn final write of a killed worker
    events.sort(
        key=lambda e: (e.get("ts", 0.0), e.get("pid", 0), e.get("seq", 0))
    )
    return events, bad


@dataclass
class SpanNode:
    """One span of a stitched trace, with its children."""

    event: dict[str, Any]
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.event.get("name", "?"))

    @property
    def duration_s(self) -> float:
        return float(self.event.get("duration_s") or 0.0)

    @property
    def start(self) -> float:
        return float(self.event.get("ts") or 0.0)

    def self_time_s(self) -> float:
        """Duration not covered by child spans (floored at zero)."""
        return max(
            self.duration_s - sum(c.duration_s for c in self.children), 0.0
        )


@dataclass
class StitchedTrace:
    """All events of one ``trace_id``, with the span tree rebuilt.

    Attributes:
        trace_id: The trace identity (``None`` groups legacy events
            that carry no trace context).
        roots: Top-level spans (``parent_id`` absent).  A well-formed
            single-operation trace has exactly one.
        spans: Every span node keyed by ``span_id``.
        events: Non-span events of the trace (logs, telemetry), in
            ``(ts, pid, seq)`` order.
        orphan_spans: Spans whose ``parent_id`` names no known span --
            evidence of a lost parent (e.g. a killed worker whose
            enclosing span never closed).
    """

    trace_id: str | None
    roots: list[SpanNode] = field(default_factory=list)
    spans: dict[str, SpanNode] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    orphan_spans: list[SpanNode] = field(default_factory=list)

    @property
    def pids(self) -> list[int]:
        """Every process id that contributed an event, ascending."""
        seen = {
            event.get("pid")
            for event in self.events
        } | {node.event.get("pid") for node in self.spans.values()}
        return sorted(pid for pid in seen if pid is not None)


def stitch(events: Iterable[dict[str, Any]]) -> list[StitchedTrace]:
    """Group events by ``trace_id`` and rebuild each span tree.

    Returns one :class:`StitchedTrace` per distinct ``trace_id``, in
    first-appearance order; events without a ``trace_id`` (pre-stitching
    files) fold into a trailing ``trace_id=None`` group.
    """
    groups: dict[str | None, StitchedTrace] = {}
    order: list[str | None] = []
    for event in events:
        trace_id = event.get("trace_id")
        if trace_id not in groups:
            groups[trace_id] = StitchedTrace(trace_id=trace_id)
            order.append(trace_id)
        trace = groups[trace_id]
        if event.get("kind") == "span" and event.get("span_id"):
            trace.spans[event["span_id"]] = SpanNode(event)
        else:
            trace.events.append(event)
    # ``None`` last: identified traces render before the legacy bucket.
    order.sort(key=lambda t: t is None)
    for trace in groups.values():
        for node in trace.spans.values():
            parent_id = node.event.get("parent_id")
            if parent_id is None:
                trace.roots.append(node)
            elif parent_id in trace.spans:
                trace.spans[parent_id].children.append(node)
            else:
                trace.orphan_spans.append(node)
        for node in trace.spans.values():
            node.children.sort(key=lambda c: c.start)
        trace.roots.sort(key=lambda r: r.start)
    return [groups[trace_id] for trace_id in order]


def _format_span(node: SpanNode) -> str:
    event = node.event
    parts = [f"{node.name}  {node.duration_s:.3f}s"]
    if event.get("rss_mib") is not None:
        parts.append(f"rss {event['rss_mib']:.1f}MiB")
    if event.get("pid") is not None:
        parts.append(f"pid {event['pid']}")
    attrs = event.get("attrs") or {}
    parts.extend(f"{key}={value}" for key, value in attrs.items())
    return "  ".join(parts)


def _render_node(node: SpanNode, prefix: str, last: bool, out: list[str]) -> None:
    branch = "`- " if last else "|- "
    out.append(prefix + branch + _format_span(node))
    child_prefix = prefix + ("   " if last else "|  ")
    for index, child in enumerate(node.children):
        _render_node(
            child, child_prefix, index == len(node.children) - 1, out
        )


def render_trace(trace: StitchedTrace) -> str:
    """Render one stitched trace as an indented span tree."""
    label = trace.trace_id or "(no trace context)"
    kinds: dict[str, int] = {}
    for event in trace.events:
        kind = str(event.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
    summary = ", ".join(
        f"{count} {kind}" for kind, count in sorted(kinds.items())
    )
    lines = [
        f"trace {label}  "
        f"({len(trace.roots)} root(s), {len(trace.spans)} span(s), "
        f"pids {trace.pids or '[]'}"
        + (f", {summary}" if summary else "")
        + ")"
    ]
    for index, root in enumerate(trace.roots):
        _render_node(root, "", index == len(trace.roots) - 1, lines)
    for node in trace.orphan_spans:
        lines.append(
            f"!- orphan (parent {node.event.get('parent_id')!r} missing): "
            + _format_span(node)
        )
    return "\n".join(lines)


def folded_stacks(trace: StitchedTrace) -> list[str]:
    """Folded-stack lines (``a;b;c <microseconds>``) for flamegraphs.

    Each span contributes its *self* time (duration minus child span
    durations), so the flamegraph's widths add up exactly to each
    root's wall-clock.  Orphan spans fold under a synthetic
    ``(orphaned)`` frame rather than disappearing.
    """
    lines: list[str] = []

    def walk(node: SpanNode, stack: list[str]) -> None:
        stack = stack + [node.name]
        micros = round(node.self_time_s() * 1e6)
        lines.append(";".join(stack) + f" {micros}")
        for child in node.children:
            walk(child, stack)

    for root in trace.roots:
        walk(root, [])
    for node in trace.orphan_spans:
        walk(node, ["(orphaned)"])
    return lines
