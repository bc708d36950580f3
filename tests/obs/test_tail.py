"""``repro tail`` follow mode: torn lines and non-ASCII text."""

from __future__ import annotations

import io
import json

from repro.obs.tail import format_record, tail


class _AppendAfterPoll(io.StringIO):
    """Output stream that appends the next chunk to a file after each poll.

    :func:`tail` flushes its output stream once per poll, so each flush
    marks the gap between two polls in which a writer appends.
    """

    def __init__(self, path, chunks):
        super().__init__()
        self.path = path
        self.chunks = list(chunks)

    def flush(self):
        super().flush()
        if self.chunks:
            with open(self.path, "ab") as stream:
                stream.write(self.chunks.pop(0))


def _record(msg):
    return {"kind": "log", "level": "INFO", "logger": "repro.x", "msg": msg}


def _line(record):
    return json.dumps(record, ensure_ascii=False).encode() + b"\n"


def _follow(path, chunks, polls):
    out = _AppendAfterPoll(path, chunks)
    printed = tail([path], follow=True, poll_s=0, stream=out, max_polls=polls)
    return printed, out.getvalue().splitlines()


def test_torn_line_is_held_back_then_printed_once(tmp_path):
    path = tmp_path / "events.jsonl"
    first, second = _record("one"), _record("two")
    whole = _line(second)
    path.write_bytes(_line(first) + whole[:10])  # writer mid-line
    printed, lines = _follow(path, [b"", whole[10:]], polls=4)
    assert printed == 2
    assert lines == [format_record(first), format_record(second)]


def test_follow_counts_bytes_not_characters(tmp_path):
    # Every multi-byte character of the first record once shifted the
    # next poll's offset back by a byte, re-reading (and, mid-character,
    # failing to decode) the first record's tail.
    path = tmp_path / "events.jsonl"
    first = _record("café ✓ ✓✓")
    later = [_record("après"), _record("✓ done")]
    path.write_bytes(_line(first))
    printed, lines = _follow(path, [_line(r) for r in later], polls=4)
    assert lines == [format_record(r) for r in [first, *later]]
    assert printed == 3
