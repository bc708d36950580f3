"""Tests for trace identity, propagation, and JSONL stitching."""

from __future__ import annotations

import json

import pytest

from repro.analysis.registry import ExperimentRequest
from repro.analysis.runtime import (
    FaultPlan,
    Journal,
    ResultCache,
    RetryPolicy,
    run_sweep,
)
from repro.obs.spans import (
    JsonlSink,
    add_sink,
    adopt_worker_context,
    current_trace_id,
    propagation_context,
    remove_sink,
    span,
)
from repro.obs.trace import (
    adopt_context,
    clear_context,
    expand_paths,
    folded_stacks,
    new_id,
    read_events,
    render_trace,
    stitch,
)
from tests import conftest


class TestIdentity:
    def test_ids_are_fresh_hex(self):
        ids = {new_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_root_span_starts_a_trace(self, sink_buffer):
        with span("root"):
            with span("child"):
                pass
        child, root = conftest.events(sink_buffer)
        assert root["trace_id"] == child["trace_id"]
        assert child["parent_id"] == root["span_id"]
        assert "parent_id" not in root

    def test_sibling_roots_get_distinct_traces(self, sink_buffer):
        with span("first"):
            pass
        with span("second"):
            pass
        first, second = conftest.events(sink_buffer)
        assert first["trace_id"] != second["trace_id"]

    def test_ambient_context_adoption(self, sink_buffer):
        try:
            adopt_context("cafe" * 4, "beef" * 4)
            assert current_trace_id() == "cafe" * 4
            with span("worker.root"):
                pass
        finally:
            clear_context()
        event = conftest.events(sink_buffer)[0]
        assert event["trace_id"] == "cafe" * 4
        assert event["parent_id"] == "beef" * 4

    def test_adopt_worker_context_none_clears(self):
        adopt_context("dead" * 4, None)
        adopt_worker_context(None)
        assert current_trace_id() is None

    def test_propagation_context_prefers_open_span(self):
        assert propagation_context() is None
        with span("outer") as outer:
            trace_id, span_id = propagation_context()
            assert trace_id == outer.trace_id
            assert span_id == outer.span_id

    def test_sink_stamps_pid_and_monotonic_seq(self, sink_buffer):
        for _ in range(3):
            with span("stamped"):
                pass
        events = conftest.events(sink_buffer)
        assert all(event["pid"] > 0 for event in events)
        assert [event["seq"] for event in events] == [0, 1, 2]


class TestStitch:
    def _span_event(self, name, trace, sid, parent=None, ts=0.0, **extra):
        event = {
            "kind": "span",
            "name": name,
            "trace_id": trace,
            "span_id": sid,
            "ts": ts,
            "duration_s": 1.0,
            **extra,
        }
        if parent is not None:
            event["parent_id"] = parent
        return event

    def test_tree_reconstruction(self):
        events = [
            self._span_event("root", "t1", "a", ts=0.0, duration_s=3.0),
            self._span_event("late", "t1", "c", parent="a", ts=2.0),
            self._span_event("early", "t1", "b", parent="a", ts=1.0),
        ]
        (trace,) = stitch(events)
        assert [r.name for r in trace.roots] == ["root"]
        # Children ordered by start time, not input order.
        assert [c.name for c in trace.roots[0].children] == ["early", "late"]
        assert trace.orphan_spans == []

    def test_orphans_detected(self):
        events = [
            self._span_event("lost", "t1", "x", parent="never-closed"),
        ]
        (trace,) = stitch(events)
        assert trace.roots == []
        assert [n.name for n in trace.orphan_spans] == ["lost"]
        assert "orphan" in render_trace(trace)

    def test_untraced_events_group_last(self):
        events = [
            {"kind": "log", "msg": "legacy"},
            self._span_event("root", "t1", "a"),
        ]
        traces = stitch(events)
        assert [t.trace_id for t in traces] == ["t1", None]

    def test_non_span_events_kept_with_their_trace(self):
        events = [
            self._span_event("root", "t1", "a"),
            {"kind": "telemetry", "trace_id": "t1", "round": 0},
        ]
        (trace,) = stitch(events)
        assert len(trace.events) == 1
        assert trace.events[0]["round"] == 0

    def test_folded_stacks_self_time(self):
        events = [
            self._span_event("root", "t1", "a", ts=0.0, duration_s=3.0),
            self._span_event(
                "child", "t1", "b", parent="a", ts=0.5, duration_s=1.0
            ),
        ]
        (trace,) = stitch(events)
        lines = folded_stacks(trace)
        assert "root 2000000" in lines  # 3s - 1s child = 2s self
        assert "root;child 1000000" in lines

    def test_read_events_orders_and_counts_bad(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(
            json.dumps({"ts": 2.0, "pid": 1, "seq": 0, "n": "late"})
            + "\n{torn"
        )
        b.write_text(json.dumps({"ts": 1.0, "pid": 2, "seq": 5, "n": "early"}))
        events, bad = read_events([str(a), str(b)])
        assert [e["n"] for e in events] == ["early", "late"]
        assert bad == 1

    def test_expand_paths_globs(self, tmp_path):
        (tmp_path / "w1.jsonl").write_text("")
        (tmp_path / "w2.jsonl").write_text("")
        paths = expand_paths([str(tmp_path / "w*.jsonl")])
        assert [p.name for p in paths] == ["w1.jsonl", "w2.jsonl"]
        with pytest.raises(FileNotFoundError):
            expand_paths([str(tmp_path / "missing-*.jsonl")])


class TestSweepStitching:
    """Acceptance: a crash/retry/resume sweep stitches to one tree."""

    REQUESTS = [
        ExperimentRequest("tab-star-pd1", params={"sizes": sizes})
        for sizes in ((2,), (2, 5), (2, 5, 9))
    ]

    def _run(self, path, **kwargs):
        sink = add_sink(JsonlSink(str(path)))
        try:
            return run_sweep(self.REQUESTS, **kwargs)
        finally:
            remove_sink(sink)
            sink.close()

    def test_crash_retry_sweep_single_root_no_orphans(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        outcome = self._run(
            events_path,
            jobs=2,
            policy=RetryPolicy(retries=2, backoff_s=0.001, jitter=0.0),
            faults=FaultPlan(kind="kill", at=0),
        )
        assert outcome.passed
        events, bad = read_events([str(events_path)])
        assert bad == 0
        traces = stitch(events)
        assert len(traces) == 1, [t.trace_id for t in traces]
        trace = traces[0]
        assert trace.trace_id is not None
        # Exactly one root: the sweep span; every worker attempt span
        # parents under it (the killed attempt never closed its span,
        # so the retry contributes the surviving one).
        assert len(trace.roots) == 1
        root = trace.roots[0]
        assert root.name == "sweep.run"
        assert trace.orphan_spans == []
        attempts = [c for c in root.children if c.name == "experiment.run"]
        assert len(attempts) == len(self.REQUESTS)
        # Workers really are other processes, and every event is
        # stamped with trace identity and origin.
        assert len(trace.pids) >= 2
        for event in events:
            assert event["trace_id"] == trace.trace_id
            assert event["pid"] > 0
            assert event["seq"] >= 0

    def test_resumed_sweep_joins_new_trace(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal = Journal(tmp_path / "cache" / "journal.jsonl")
        first = tmp_path / "first.jsonl"
        with pytest.raises(Exception):
            self._run(
                first,
                jobs=2,
                cache=cache,
                journal=journal,
                policy=RetryPolicy(retries=0, backoff_s=0.001, jitter=0.0),
                faults=FaultPlan(kind="kill", at=2),
            )
        second = tmp_path / "second.jsonl"
        outcome = self._run(
            second,
            jobs=2,
            cache=cache,
            journal=journal,
            resume=True,
            policy=RetryPolicy(retries=0, backoff_s=0.001, jitter=0.0),
        )
        assert outcome.passed
        assert outcome.skipped >= 1
        # Each sweep is its own trace; both stitch cleanly on their own.
        for path in (first, second):
            events, _ = read_events([str(path)])
            traces = [t for t in stitch(events) if t.trace_id is not None]
            assert len(traces) == 1
            assert len(traces[0].roots) <= 1  # killed sweep may lose its root
            assert all(
                e.get("trace_id") == traces[0].trace_id for e in events
            )
        # The combined file pair still yields exactly two traces.
        combined = stitch(read_events([str(first), str(second)])[0])
        assert len([t for t in combined if t.trace_id is not None]) == 2
