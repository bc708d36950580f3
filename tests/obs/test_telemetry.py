"""Tests for sampled round telemetry (repro.obs.telemetry)."""

from __future__ import annotations

import pytest

from repro.core.counting.flooding import flood_time_via_protocol
from repro.networks.generators import star_network
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.telemetry import (
    Telemetry,
    active,
    disable,
    enable,
    parse_every,
    telemetry_enabled,
)
from tests import conftest

#: Fields both engines must report identically for the same run.
TRAJECTORY_FIELDS = [
    "round",
    "informed",
    "terminated",
    "sent",
    "delivered",
    "edges",
    "nodes",
]


class TestConfig:
    def test_disabled_by_default(self):
        assert active() is None

    def test_enable_disable_roundtrip(self):
        config = enable(every=3)
        try:
            assert active() is config
            assert config.every == 3
        finally:
            disable()
        assert active() is None

    def test_context_manager_restores_previous(self):
        with telemetry_enabled(every=2) as outer:
            assert active() is outer
            with telemetry_enabled(every=5):
                assert active().every == 5
            assert active() is outer
        assert active() is None

    def test_sampling_period(self):
        config = Telemetry(every=3)
        assert [r for r in range(10) if config.wants(r)] == [0, 3, 6, 9]
        assert all(Telemetry(every=1).wants(r) for r in range(5))

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            Telemetry(every=0)

    def test_parse_every(self):
        assert parse_every(None) == 1
        assert parse_every("4") == 4
        assert parse_every("every=7") == 7
        with pytest.raises(ValueError):
            parse_every("every=zero")
        with pytest.raises(ValueError):
            parse_every("0")
        # Regression: any key, or none, before "=" read as every=K.
        for text in ("foo=3", "=3", "every=every=3"):
            with pytest.raises(ValueError, match="expects K or every=K"):
                parse_every(text)


class TestEmission:
    def test_off_means_no_events(self, sink_buffer):
        flood_time_via_protocol(star_network(6), 0, backend="object")
        flood_time_via_protocol(star_network(6), 0, backend="fast")
        assert conftest.events(sink_buffer, "telemetry") == []

    def test_records_counted_and_stamped(self, sink_buffer):
        with use_registry(MetricsRegistry()) as registry:
            with telemetry_enabled():
                flood_time_via_protocol(star_network(6), 0, backend="object")
        events = conftest.events(sink_buffer, "telemetry")
        assert events
        snapshot = registry.snapshot()
        assert snapshot["counters"]["telemetry.records"] == len(events)
        for event in events:
            assert {"ts", "pid", "seq"} <= event.keys()
            assert event["engine"] == "object"

    def test_sampling_skips_rounds(self, sink_buffer):
        # A 2-node path floods in 1 round; use the engine's round budget
        # via a leaderless star so multiple rounds execute.
        network = star_network(5)
        with telemetry_enabled(every=2):
            flood_time_via_protocol(network, 1, backend="object")
        rounds = [e["round"] for e in conftest.events(sink_buffer, "telemetry")]
        assert rounds
        assert all(r % 2 == 0 for r in rounds)


class TestDifferential:
    """Acceptance: both backends emit identical round trajectories."""

    @pytest.mark.parametrize("source", [0, 3])
    def test_star_trajectories_identical(self, sink_buffer, source):
        with telemetry_enabled(every=1):
            rounds_object = flood_time_via_protocol(
                star_network(9), source, backend="object"
            )
            rounds_fast = flood_time_via_protocol(
                star_network(9), source, backend="fast"
            )
        assert rounds_object == rounds_fast
        events = conftest.events(sink_buffer, "telemetry")
        trajectory = {
            engine: [
                [event[field] for field in TRAJECTORY_FIELDS]
                for event in events
                if event["engine"] == engine
            ]
            for engine in ("object", "fast")
        }
        assert trajectory["object"]  # something was recorded
        assert trajectory["object"] == trajectory["fast"]

    def test_dynamic_network_trajectories_identical(self, sink_buffer):
        def network():
            return RandomConnectedAdversary(
                12, seed=7, extra_edge_p=0.2
            ).as_dynamic_graph()

        with telemetry_enabled(every=1):
            assert flood_time_via_protocol(
                network(), 0, backend="object"
            ) == flood_time_via_protocol(network(), 0, backend="fast")
        events = conftest.events(sink_buffer, "telemetry")
        by_engine = {
            engine: [
                [event[field] for field in TRAJECTORY_FIELDS]
                for event in events
                if event["engine"] == engine
            ]
            for engine in ("object", "fast")
        }
        assert len(by_engine["object"]) >= 2  # multi-round run
        assert by_engine["object"] == by_engine["fast"]

    def test_informed_grows_monotonically(self, sink_buffer):
        with telemetry_enabled(every=1):
            flood_time_via_protocol(
                RandomConnectedAdversary(10, seed=3).as_dynamic_graph(),
                0,
                backend="fast",
            )
        informed = [e["informed"] for e in conftest.events(sink_buffer, "telemetry")]
        assert informed == sorted(informed)
        assert informed[-1] == 10
