"""The JSONL checkpoint journal behind ``repro all --resume``.

The runner appends one JSON object per line as tasks move through
their lifecycle, flushing after every write -- so however a sweep dies
(worker kill, power loss, ``SweepAborted``), the journal on disk names
exactly which tasks completed (and where their results live) and which
were in flight.  A resumed run replays the journal, loads completed
results from their recorded paths, and re-queues everything else.

Line vocabulary (all lines carry ``ts``, Unix seconds)::

    {"event": "sweep",     "tasks": N, "resume": false}
    {"event": "started",   "task": K, "experiment": ID,
     "params_hash": H, "attempt": A}
    {"event": "completed", "task": K, "attempt": A, "result_path": P}
    {"event": "failed",    "task": K, "attempt": A, "error": E,
     "kind": "retryable"|"fatal", "final": true|false}
    {"event": "aborted",   "failures": N}

``task`` is the result-cache file stem ``<experiment>-<digest>`` where
the digest is :meth:`ResultCache.key` of ``(experiment,
effective_params)`` -- the same 16-hex params-hash that keys the cache,
so journal and cache can never disagree about identity.

Replay folds lines per task, last event winning; unreadable lines are
skipped (a torn final write must not poison a resume).

Sharding: because the task key is a deterministic digest of the task's
identity, a grid spreads across machines by hashing keys into shards
(:func:`shard_of`, driven by ``--shard i/N``); each machine journals its
own subset, and :func:`merge_journals` folds the shard journals back
into one file that ``--resume`` replays as if a single machine had run
everything.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.obs.jsonl import read_jsonl
from repro.obs.logger import get_logger

_log = get_logger("analysis.runtime.journal")

__all__ = [
    "Journal",
    "JournalEntry",
    "merge_journals",
    "parse_shard",
    "shard_of",
]

#: Task states a replay can land on.
STARTED = "started"
COMPLETED = "completed"
FAILED = "failed"
RETRYING = "retrying"


def shard_of(key: str, count: int) -> int:
    """Deterministic shard owner of a task key.

    Hashes the journal/cache key (:meth:`Journal.task_key`) with
    SHA-256 and reduces the first 8 bytes modulo ``count`` -- stable
    across processes, machines, and Python versions (unlike ``hash()``),
    so every shard of a sweep agrees on the partition without
    coordination.
    """
    if count < 1:
        raise ValueError(f"shard count must be at least 1, got {count}")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % count


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse a ``"i/N"`` shard spec into a validated ``(index, count)``."""
    index_text, sep, count_text = str(spec).partition("/")
    try:
        if not sep:
            raise ValueError
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like 'i/N' (e.g. '0/4'), got {spec!r}"
        ) from None
    if count < 1:
        raise ValueError(f"shard count must be at least 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index {index} outside 0..{count - 1} (spec {spec!r})"
        )
    return index, count


def _read_journal(path: Path) -> list[dict[str, Any]]:
    """The journal's records; unreadable lines are skipped with a warning."""
    records, bad = read_jsonl(path)
    if bad:
        _log.warning("skipping %d unreadable journal line(s) in %s", bad, path)
    return records


def merge_journals(
    out_path: str | Path, sources: Iterable[str | Path]
) -> int:
    """Merge shard journals into one resumable journal; returns lines kept.

    Records from every source are pooled and stably sorted by their
    ``ts`` stamp (ties keep source order), reconstructing a plausible
    global timeline; sweep/aborted markers ride along, and unreadable
    lines are skipped with a warning, exactly as replay would skip
    them.  A record without a ``ts`` stamp inherits its predecessor's
    stamp from the same source file -- it must keep its position in
    that file's timeline, not teleport to the front of the merge and
    reorder its task's event sequence.  The merged file replays as if
    one machine had journalled the whole sweep, so ``--resume`` against
    it skips every task any shard completed.
    """
    sources = [Path(source) for source in sources]
    if not sources:
        raise ValueError("need at least one journal to merge")
    keyed: list[tuple[float, dict[str, Any]]] = []
    for source in sources:
        last_ts = float("-inf")
        for record in _read_journal(source):
            ts = record.get("ts")
            if isinstance(ts, (int, float)) and not isinstance(ts, bool):
                last_ts = float(ts)
            keyed.append((last_ts, record))
    keyed.sort(key=lambda pair: pair[0])
    records = [record for _ts, record in keyed]
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as stream:
        for record in records:
            stream.write(json.dumps(record, default=repr) + "\n")
    return len(records)


@dataclass
class JournalEntry:
    """The folded state of one task after replaying the journal."""

    task: str
    experiment: str | None = None
    params_hash: str | None = None
    status: str = STARTED
    attempt: int = 0
    result_path: str | None = None
    error: str | None = None


class Journal:
    """Append-only JSONL task journal (see module docstring).

    The file handle is opened lazily on first write and every line is
    flushed, so concurrent readers (and post-mortem humans) always see
    a prefix of whole lines.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._stream = None

    @staticmethod
    def task_key(experiment: str, digest: str) -> str:
        """The journal/cache identity of a task: ``<experiment>-<digest>``."""
        return f"{experiment}-{digest}"

    def _write(self, record: dict[str, Any]) -> None:
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "a", encoding="utf-8")
        record["ts"] = round(time.time(), 6)
        self._stream.write(json.dumps(record, default=repr) + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def truncate(self) -> None:
        """Start a fresh epoch (non-resume runs wipe stale state)."""
        self.close()
        if self.path.exists():
            self.path.write_text("")

    # -- lifecycle records -------------------------------------------------

    def record_sweep(self, *, tasks: int, resume: bool) -> None:
        self._write({"event": "sweep", "tasks": tasks, "resume": resume})

    def record_started(
        self, task: str, *, experiment: str, params_hash: str, attempt: int
    ) -> None:
        self._write(
            {
                "event": "started",
                "task": task,
                "experiment": experiment,
                "params_hash": params_hash,
                "attempt": attempt,
            }
        )

    def record_completed(
        self, task: str, *, attempt: int, result_path: str | None
    ) -> None:
        self._write(
            {
                "event": "completed",
                "task": task,
                "attempt": attempt,
                "result_path": result_path,
            }
        )

    def record_failed(
        self, task: str, *, attempt: int, error: str, kind: str, final: bool
    ) -> None:
        self._write(
            {
                "event": "failed",
                "task": task,
                "attempt": attempt,
                "error": error,
                "kind": kind,
                "final": final,
            }
        )

    def record_aborted(self, *, failures: int) -> None:
        self._write({"event": "aborted", "failures": failures})

    # -- replay ------------------------------------------------------------

    def replay(self) -> dict[str, JournalEntry]:
        """Fold the journal into per-task end states (last event wins).

        A missing journal file is an empty replay, not an error, so
        ``--resume`` on a fresh directory simply runs everything.
        """
        entries: dict[str, JournalEntry] = {}
        try:
            records = _read_journal(self.path)
        except OSError:
            return entries
        for record in records:
            task = record.get("task")
            if task is None:
                continue  # sweep/aborted markers carry no task state
            entry = entries.setdefault(task, JournalEntry(task=task))
            event = record.get("event")
            entry.attempt = record.get("attempt", entry.attempt)
            if event == "started":
                entry.status = STARTED
                entry.experiment = record.get("experiment", entry.experiment)
                entry.params_hash = record.get(
                    "params_hash", entry.params_hash
                )
            elif event == "completed":
                entry.status = COMPLETED
                entry.result_path = record.get("result_path")
            elif event == "failed":
                entry.status = FAILED if record.get("final") else RETRYING
                entry.error = record.get("error")
        return entries
