"""The one reader of JSONL artifacts: journals, event logs, job streams.

Lines end in ``\\n``; surrounding whitespace (a CRLF's ``\\r``) is
stripped and blank lines are skipped.  A line that is not a JSON
object -- torn, or valid JSON such as ``5`` -- is *bad*: skipped and
counted, never fatal.  :func:`read_jsonl` reads a file in one pass,
last line included; :class:`JsonlCursor` follows a growing file by
byte offset and holds a torn tail back until its newline arrives.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = ["JsonlCursor", "iter_jsonl", "read_jsonl"]


def iter_jsonl(lines: Iterable[bytes]) -> Iterator[dict[str, Any] | None]:
    """Each non-blank line's object, or ``None`` for a bad line."""
    for line in lines:
        line = line.strip()
        if line:
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            yield record if isinstance(record, dict) else None


def _parse(data: bytes) -> tuple[list[dict[str, Any]], int]:
    parsed = list(iter_jsonl(data.split(b"\n")))
    records = [record for record in parsed if record is not None]
    return records, len(parsed) - len(records)


def read_jsonl(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """``(records, bad_lines)`` of a whole file; raises ``OSError``."""
    return _parse(Path(path).read_bytes())


class JsonlCursor:
    """Follow one append-only JSONL file by byte offset."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.offset = 0
        self.pending = b""  # bytes after the last newline: a torn tail

    def read(self) -> bytes:
        """The whole lines appended since the last read."""
        try:
            with open(self.path, "rb") as stream:
                stream.seek(self.offset)
                chunk = stream.read()
        except OSError:
            chunk = b""  # not created yet, or gone
        cut = chunk.rfind(b"\n") + 1
        self.offset += cut
        self.pending = chunk[cut:]
        return chunk[:cut]

    def records(self) -> tuple[list[dict[str, Any]], int]:
        """:meth:`read`, parsed into ``(records, bad_lines)``."""
        return _parse(self.read())
