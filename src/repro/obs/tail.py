"""Follow a live sweep: ``repro tail`` over journal + event files.

A running ``repro all --jobs N --cache-dir D --log-json E`` leaves two
append-only JSONL streams behind: the checkpoint journal
(``D/journal.jsonl`` -- task lifecycle) and the event log (``E`` --
spans, log records, round telemetry, from every worker process).  This
module renders both as one human-readable feed:

* one pass by default (print what is there now and exit -- scriptable),
* ``--follow`` to keep polling for appended lines until interrupted,

Both modes read through :class:`repro.obs.jsonl.JsonlCursor`: a torn
trailing line (a writer mid-``write``) is held back until its newline
arrives -- delayed, never mangled -- and unparseable lines are skipped.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Sequence, TextIO

from repro.obs.jsonl import JsonlCursor

__all__ = ["format_record", "tail"]

#: Seconds between polls in follow mode.
POLL_S = 0.5


def format_record(record: dict[str, Any]) -> str:
    """One JSONL record as a human-readable feed line."""
    if "event" in record:  # journal lifecycle line
        event = record["event"]
        parts = [f"journal {event}"]
        for key in ("task", "experiment", "attempt", "tasks", "failures"):
            if key in record:
                parts.append(f"{key}={record[key]}")
        if record.get("error"):
            parts.append(f"error={record['error']}")
        return "  ".join(parts)
    kind = record.get("kind")
    if kind == "span":
        duration = record.get("duration_s")
        timing = f"{duration:.3f}s" if duration is not None else "?"
        pid = record.get("pid", "?")
        return f"span {record.get('name', '?')}  {timing}  pid={pid}"
    if kind == "log":
        line = (
            f"{str(record.get('level', '?')).lower():<8}"
            f"{record.get('logger', '?')}: {record.get('msg', '')}"
        )
        extras = {
            key: value
            for key, value in record.items()
            if key not in ("kind", "ts", "level", "logger", "msg", "pid", "seq", "trace_id")
        }
        if extras:
            line += "  " + " ".join(f"{k}={v}" for k, v in extras.items())
        return line
    if kind == "telemetry":
        return (
            f"telemetry {record.get('engine', '?')} "
            f"round={record.get('round')} "
            f"informed={record.get('informed')}/{record.get('nodes')} "
            f"delivered={record.get('delivered')} "
            f"lanes={record.get('lanes_active')}"
        )
    return json.dumps(record, default=repr)


def tail(
    paths: Sequence[str | Path],
    *,
    follow: bool = False,
    poll_s: float = POLL_S,
    stream: TextIO,
    max_polls: int | None = None,
) -> int:
    """Render the files' records to ``stream``; returns lines printed.

    Args:
        paths: Journal and/or JSONL event files.  In one-pass mode each
            must exist; in follow mode missing files are awaited.
        follow: Keep polling for appended lines until interrupted.
        poll_s: Seconds between polls in follow mode.
        stream: Output stream.
        max_polls: Follow-mode poll budget (tests); ``None`` is forever.

    Raises:
        FileNotFoundError: One-pass mode and a path does not exist.
    """
    cursors = [JsonlCursor(path) for path in paths]
    if not follow:
        for cursor in cursors:
            if not cursor.path.exists():
                raise FileNotFoundError(f"no such file: {cursor.path}")
    printed = 0
    polls = 0
    while True:
        for cursor in cursors:
            prefix = f"[{cursor.path.name}] " if len(cursors) > 1 else ""
            records, _bad = cursor.records()
            for record in records:
                stream.write(prefix + format_record(record) + "\n")
            printed += len(records)
        stream.flush()
        if not follow:
            return printed
        polls += 1
        if max_polls is not None and polls >= max_polls:
            return printed
        try:
            time.sleep(poll_s)
        except KeyboardInterrupt:
            return printed
