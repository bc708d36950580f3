"""Tests for structured logging, engine round events, and `repro stats`."""

from __future__ import annotations

import json
import logging

import networkx as nx

from repro.core.counting.star import make_star_processes
from repro.networks import DynamicGraph
from repro.obs.logger import (
    configure_logging,
    get_logger,
    teardown_logging,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import span
from repro.obs.stats import summarize_stats_file
from repro.simulation import SynchronousEngine

from tests.conftest import recorded_telemetry


class TestGetLogger:
    def test_namespace_rooting(self):
        assert get_logger().name == "repro"
        assert get_logger("repro").name == "repro"
        assert get_logger("simulation.engine").name == "repro.simulation.engine"
        assert get_logger("repro.analysis").name == "repro.analysis"


class TestConfigureLogging:
    def test_noop_without_arguments(self):
        assert configure_logging() == []

    def test_console_handler_level(self, capsys):
        handlers = configure_logging("warning")
        try:
            get_logger("test").warning("visible", extra={"key": 7})
            get_logger("test").info("invisible")
        finally:
            teardown_logging(handlers)
        err = capsys.readouterr().err
        assert "visible" in err
        assert "key=7" in err
        assert "invisible" not in err

    def test_json_handler_writes_logs_and_spans(self, tmp_path):
        path = tmp_path / "events.jsonl"
        handlers = configure_logging(json_path=str(path))
        try:
            get_logger("test").info("hello", extra={"n": 3})
            with span("unit.of.work"):
                pass
        finally:
            teardown_logging(handlers)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {event["kind"] for event in events}
        assert kinds == {"log", "span"}
        log_event = next(e for e in events if e["kind"] == "log")
        assert log_event["msg"] == "hello"
        assert log_event["n"] == 3
        assert log_event["logger"] == "repro.test"

    def test_teardown_removes_handlers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        handlers = configure_logging(json_path=str(path))
        teardown_logging(handlers)
        get_logger("test").error("after teardown")
        with span("after.teardown"):
            pass
        lines = path.read_text().splitlines()
        assert not [line for line in lines if "after" in line]


def _run_star(n: int = 4):
    processes, leader = make_star_processes(n)
    engine = SynchronousEngine(
        processes,
        DynamicGraph.from_graphs([nx.star_graph(n - 1)], extend="hold"),
        leader=leader,
    )
    return engine.run()


class TestEngineRoundEvents:
    def test_round_events(self, caplog):
        """Debug round events fire with telemetry off."""
        with caplog.at_level(logging.DEBUG, logger="repro"):
            result = _run_star()
        rounds = [
            record
            for record in caplog.records
            if record.message == "round executed"
        ]
        assert len(rounds) == result.rounds
        for record in rounds:
            assert record.name == "repro.simulation.engine"
            assert record.edges == 3
            assert record.sent >= 1
            assert record.delivered >= 1
        start = [r for r in caplog.records if r.message == "run started"]
        assert start and start[0].stop_when == "leader"
        assert any(r.message == "run finished" for r in caplog.records)

    def test_counters_match_run(self):
        with use_registry(MetricsRegistry()) as registry:
            with recorded_telemetry() as events:
                result = _run_star()
        assert [event["round"] for event in events] == list(range(result.rounds))
        counters = registry.snapshot()["counters"]
        assert counters["engine.runs"] == 1
        assert counters["engine.rounds"] == result.rounds
        assert counters["engine.graphs"] == result.rounds
        assert counters["engine.messages_sent"] == sum(
            event["sent"] for event in events
        )
        assert counters["engine.messages_delivered"] == sum(
            event["delivered"] for event in events
        )

    def test_silent_at_default_level(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            _run_star()
        assert not [
            r for r in caplog.records if r.message == "round executed"
        ]


class TestStatsSummaries:
    def test_metrics_snapshot_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("engine.rounds", 12)
        registry.gauge("sparse.nnz", 972)
        registry.observe("span.sparse.rank.s", 0.25)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(registry.snapshot()))
        summary = summarize_stats_file(path)
        assert "engine.rounds" in summary
        assert "sparse.nnz" in summary
        assert "span.sparse.rank.s" in summary

    def test_event_log_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [
            json.dumps({"kind": "span", "name": "experiment.run", "duration_s": 1.5}),
            json.dumps({"kind": "span", "name": "experiment.run", "duration_s": 0.5}),
            json.dumps({"kind": "log", "level": "DEBUG", "msg": "x"}),
            "{corrupt",
        ]
        path.write_text("\n".join(lines) + "\n")
        summary = summarize_stats_file(path)
        assert "experiment.run" in summary
        assert "DEBUG" in summary
        assert "1 unparseable" in summary

    def test_empty_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(MetricsRegistry().snapshot()))
        assert "empty" in summarize_stats_file(path)
