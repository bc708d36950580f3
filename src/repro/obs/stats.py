"""Summarise observability artifacts: ``repro stats PATH``.

Accepts either artifact the CLI can produce and renders aligned text
tables (via :func:`repro.analysis.tables.render_table`):

* a **metrics snapshot** (``--metrics-out``): one JSON object with
  ``counters`` / ``gauges`` / ``histograms`` keys;
* a **JSONL event log** (``--log-json``): one JSON object per line,
  ``kind: "span"`` events and ``kind: "log"`` records interleaved.

For event logs, spans are aggregated per name (count, total, mean, max
seconds) -- the quickest way to see *why* a sweep was slow without
re-running it under a profiler.  Round telemetry records
(:mod:`repro.obs.telemetry`) are aggregated per engine.

``repro stats`` accepts several paths (and shell-style globs):
snapshots merge through :meth:`MetricsRegistry.merge` and event logs
concatenate, so the per-worker artifacts of a sweep summarise as one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from repro.analysis.tables import render_table
from repro.obs.jsonl import read_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import expand_paths

__all__ = [
    "summarize_events",
    "summarize_snapshot",
    "summarize_stats_file",
    "summarize_stats_files",
]


def summarize_snapshot(snapshot: dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as tables."""
    sections: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        rows = [
            {"counter": name, "value": value}
            for name, value in sorted(counters.items())
        ]
        sections.append(render_table(rows, ["counter", "value"], title="Counters"))
    gauges = snapshot.get("gauges", {})
    if gauges:
        rows = [
            {"gauge": name, "value": value}
            for name, value in sorted(gauges.items())
        ]
        sections.append(render_table(rows, ["gauge", "value"], title="Gauges"))
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = [
            {
                "histogram": name,
                "count": hist["count"],
                "total": hist["total"],
                "mean": hist["total"] / hist["count"] if hist["count"] else 0.0,
                "min": hist["min"],
                "max": hist["max"],
            }
            for name, hist in sorted(histograms.items())
        ]
        sections.append(
            render_table(
                rows,
                ["histogram", "count", "total", "mean", "min", "max"],
                title="Histograms",
            )
        )
    if not sections:
        return "empty metrics snapshot"
    return "\n\n".join(sections)


def summarize_events(events: list[dict[str, Any]]) -> str:
    """Aggregate a JSONL event stream (spans + log records) as tables."""
    spans: dict[str, dict[str, float]] = {}
    levels: dict[str, int] = {}
    telemetry: dict[str, dict[str, int]] = {}
    other = 0
    for event in events:
        kind = event.get("kind")
        if kind == "span":
            agg = spans.setdefault(
                event.get("name", "?"),
                {"count": 0, "total": 0.0, "max": 0.0},
            )
            duration = float(event.get("duration_s") or 0.0)
            agg["count"] += 1
            agg["total"] += duration
            agg["max"] = max(agg["max"], duration)
        elif kind == "log":
            level = str(event.get("level", "?"))
            levels[level] = levels.get(level, 0) + 1
        elif kind == "telemetry":
            agg_t = telemetry.setdefault(
                str(event.get("engine", "?")),
                {"records": 0, "last_round": 0, "delivered": 0},
            )
            agg_t["records"] += 1
            agg_t["last_round"] = max(
                agg_t["last_round"], int(event.get("round", 0))
            )
            agg_t["delivered"] += int(event.get("delivered", 0))
        else:
            other += 1
    sections: list[str] = []
    if spans:
        rows = [
            {
                "span": name,
                "count": int(agg["count"]),
                "total s": agg["total"],
                "mean s": agg["total"] / agg["count"],
                "max s": agg["max"],
            }
            # Slowest in total first: that is what one is looking for.
            for name, agg in sorted(
                spans.items(), key=lambda item: -item[1]["total"]
            )
        ]
        sections.append(
            render_table(
                rows,
                ["span", "count", "total s", "mean s", "max s"],
                title=f"Spans ({sum(int(a['count']) for a in spans.values())} events)",
            )
        )
    if levels:
        rows = [
            {"level": level, "records": count}
            for level, count in sorted(levels.items())
        ]
        sections.append(
            render_table(rows, ["level", "records"], title="Log records")
        )
    if telemetry:
        rows = [
            {
                "engine": engine,
                "records": agg["records"],
                "last round": agg["last_round"],
                "delivered": agg["delivered"],
            }
            for engine, agg in sorted(telemetry.items())
        ]
        sections.append(
            render_table(
                rows,
                ["engine", "records", "last round", "delivered"],
                title="Round telemetry",
            )
        )
    if other:
        sections.append(f"(plus {other} events of unknown kind)")
    if not sections:
        return "no events"
    return "\n\n".join(sections)


def _sniff(path: Path) -> tuple[dict[str, Any] | None, list[dict[str, Any]], int]:
    """Classify one file: ``(snapshot, events, bad_lines)``.

    A single JSON object with a ``counters``/``gauges``/``histograms``
    key is a metrics snapshot; anything else is read as a JSONL event
    log (unparseable lines are counted, not fatal).
    """
    try:
        payload = json.loads(path.read_bytes())
    except ValueError:
        payload = None
    if isinstance(payload, dict) and (
        {"counters", "gauges", "histograms"} & payload.keys()
    ):
        return payload, [], 0
    events, bad = read_jsonl(path)
    return None, events, bad


def summarize_stats_file(path: str | Path) -> str:
    """Summarise ``path`` -- a metrics snapshot or a JSONL event log.

    Raises:
        OSError: ``path`` cannot be read.
    """
    return summarize_stats_files([str(path)])


def summarize_stats_files(patterns: Sequence[str | Path]) -> str:
    """Summarise several artifacts (paths or globs) as one report.

    Metrics snapshots merge into a single registry (counters add,
    histograms combine, gauges last-write-wins in argument order);
    event logs concatenate before aggregation.  Mixing kinds renders
    both sections.

    Raises:
        FileNotFoundError: A pattern matched nothing.
        OSError: A matched path cannot be read.
    """
    paths = expand_paths([str(pattern) for pattern in patterns])
    merged = MetricsRegistry()
    snapshots = 0
    events: list[dict[str, Any]] = []
    bad = 0
    for path in paths:
        snapshot, file_events, file_bad = _sniff(Path(path))
        if snapshot is not None:
            merged.merge(snapshot)
            snapshots += 1
        events.extend(file_events)
        bad += file_bad
    sections: list[str] = []
    if snapshots:
        sections.append(summarize_snapshot(merged.snapshot()))
    if events or not snapshots:
        sections.append(summarize_events(events))
    summary = "\n\n".join(sections)
    if len(paths) > 1:
        summary += f"\n\n(merged from {len(paths)} file(s))"
    if bad:
        summary += f"\n\n({bad} unparseable line(s) skipped)"
    return summary
