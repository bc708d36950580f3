"""The shared JSONL reader: one table of framing cases, both modes."""

from __future__ import annotations

import pytest

from repro.obs.jsonl import JsonlCursor, iter_jsonl, read_jsonl

A, B, C = {"a": 1}, {"b": 2}, {"c": 3}

#: ``(data, one-pass (records, bad), follow (records, bad, pending))``.
CASES = {
    "blank lines": (
        b'\n{"a": 1}\n\n   \n{"b": 2}\n\n',
        ([A, B], 0),
        ([A, B], 0, b""),
    ),
    "torn middle line": (
        b'{"a": 1}\n{"b": \n{"c": 3}\n',
        ([A, C], 1),
        ([A, C], 1, b""),
    ),
    "torn last line": (
        b'{"a": 1}\n{"b": 2',
        ([A], 1),
        ([A], 0, b'{"b": 2'),
    ),
    "complete last line without newline": (
        b'{"a": 1}\n{"b": 2}',
        ([A, B], 0),
        ([A], 0, b'{"b": 2}'),
    ),
    "non-object values": (
        b'5\n{"a": 1}\n[]\n"s"\nnull\n',
        ([A], 4),
        ([A], 4, b""),
    ),
    "CRLF line endings": (
        b'{"a": 1}\r\n{"b": 2}\r\n',
        ([A, B], 0),
        ([A, B], 0, b""),
    ),
    "non-ASCII text": (
        '{"m": "café ✓"}\n'.encode(),
        ([{"m": "café ✓"}], 0),
        ([{"m": "café ✓"}], 0, b""),
    ),
    "empty file": (b"", ([], 0), ([], 0, b"")),
}


@pytest.mark.parametrize(
    "data, one_pass, follow", list(CASES.values()), ids=list(CASES)
)
class TestFraming:
    def test_read_jsonl(self, tmp_path, data, one_pass, follow):
        path = tmp_path / "f.jsonl"
        path.write_bytes(data)
        assert read_jsonl(path) == one_pass

    def test_cursor(self, tmp_path, data, one_pass, follow):
        path = tmp_path / "f.jsonl"
        path.write_bytes(data)
        cursor = JsonlCursor(path)
        records, bad, pending = follow
        assert cursor.records() == (records, bad)
        assert cursor.pending == pending
        assert cursor.records() == ([], 0)  # nothing re-read

    def test_iter_jsonl_agrees_with_one_pass(
        self, tmp_path, data, one_pass, follow
    ):
        parsed = list(iter_jsonl(data.split(b"\n")))
        records = [record for record in parsed if record is not None]
        assert (records, len(parsed) - len(records)) == one_pass


class TestCursor:
    def test_torn_tail_is_delivered_once_when_completed(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b"')
        cursor = JsonlCursor(path)
        assert cursor.read() == b'{"a": 1}\n'
        assert cursor.read() == b""  # still torn: held back
        with open(path, "ab") as stream:
            stream.write(b': 2}\n{"c": 3}\n')
        assert cursor.records() == ([B, C], 0)
        assert cursor.pending == b""

    def test_offset_counts_bytes(self, tmp_path):
        path = tmp_path / "f.jsonl"
        first = '{"m": "café ✓✓"}\n'.encode()
        path.write_bytes(first)
        cursor = JsonlCursor(path)
        cursor.read()
        assert cursor.offset == len(first)
        with open(path, "ab") as stream:
            stream.write(b'{"a": 1}\n')
        assert cursor.records() == ([A], 0)

    def test_missing_file_reads_empty_until_created(self, tmp_path):
        path = tmp_path / "later.jsonl"
        cursor = JsonlCursor(path)
        assert cursor.read() == b"" and cursor.pending == b""
        path.write_bytes(b'{"a": 1}\n')
        assert cursor.records() == ([A], 0)

    def test_read_jsonl_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_jsonl(tmp_path / "absent.jsonl")
