"""Tests for span tracing and the JSONL event sink."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import (
    JsonlSink,
    add_sink,
    current_span,
    peak_rss_mib,
    remove_sink,
    span,
)
from tests import conftest


class TestSpanNesting:
    def test_nesting_depth_and_parent(self, sink_buffer):
        with span("outer"):
            assert current_span().name == "outer"
            with span("middle"):
                with span("leaf"):
                    assert current_span().depth == 2
        assert current_span() is None
        events = conftest.events(sink_buffer)
        # Innermost closes first.
        assert [e["name"] for e in events] == ["leaf", "middle", "outer"]
        assert [e["depth"] for e in events] == [2, 1, 0]
        assert events[0]["parent"] == "middle"
        assert events[1]["parent"] == "outer"
        assert "parent" not in events[2]

    def test_timing_monotone_over_nesting(self):
        with span("outer") as outer:
            with span("inner") as inner:
                sum(range(10_000))
        assert 0 <= inner.duration_s <= outer.duration_s

    def test_sequential_spans_do_not_nest(self, sink_buffer):
        with span("first"):
            pass
        with span("second"):
            pass
        events = conftest.events(sink_buffer)
        assert all(e["depth"] == 0 for e in events)
        assert all("parent" not in e for e in events)

    def test_stack_unwinds_on_exception(self, sink_buffer):
        with pytest.raises(RuntimeError):
            with span("failing"):
                raise RuntimeError("boom")
        assert current_span() is None
        events = conftest.events(sink_buffer)
        assert events[0]["name"] == "failing"
        assert events[0]["duration_s"] >= 0


class TestSpanData:
    def test_attrs_and_rss(self, sink_buffer):
        with span("attributed", experiment="tab-x", r=3) as record:
            pass
        event = conftest.events(sink_buffer)[0]
        assert event["kind"] == "span"
        assert event["attrs"] == {"experiment": "tab-x", "r": 3}
        if peak_rss_mib() is not None:  # POSIX
            assert record.rss_mib > 0
            assert event["rss_mib"] > 0

    def test_duration_observed_into_current_registry(self):
        with use_registry(MetricsRegistry()) as registry:
            with span("timed.block"):
                pass
            with span("timed.block"):
                pass
        hist = registry.snapshot()["histograms"]["span.timed.block.s"]
        assert hist["count"] == 2
        assert hist["total"] >= hist["max"] >= hist["min"] >= 0


class TestJsonlSink:
    def test_file_roundtrip(self, tmp_path):
        """Acceptance: spans written to disk parse back line by line."""
        path = tmp_path / "events.jsonl"
        sink = add_sink(JsonlSink(str(path)))
        try:
            with span("a", n=1):
                with span("b"):
                    pass
        finally:
            remove_sink(sink)
            sink.close()
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [e["name"] for e in events] == ["b", "a"]
        assert all(e["kind"] == "span" for e in events)
        assert events[1]["attrs"] == {"n": 1}

    def test_appends_across_sinks(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for _ in range(2):
            sink = add_sink(JsonlSink(str(path)))
            try:
                with span("appended"):
                    pass
            finally:
                remove_sink(sink)
                sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_non_json_attrs_fall_back_to_repr(self, sink_buffer):
        with span("weird", payload={1, 2}):
            pass
        event = conftest.events(sink_buffer)[0]
        assert "1, 2" in event["attrs"]["payload"]

    def test_remove_sink_is_idempotent(self):
        sink = JsonlSink(io.StringIO())
        remove_sink(sink)  # never added: no-op, no raise
