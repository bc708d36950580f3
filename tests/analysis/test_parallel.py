"""Tests for parallel_map, sweeps over mixed experiments, and the result cache."""

from __future__ import annotations

import logging

import pytest

from repro.analysis.registry import ExperimentResult, run_experiment
from repro.analysis.runtime import (
    ResultCache,
    parallel_map,
    run_sweep,
    timed_run,
)
from repro.obs.metrics import MetricsRegistry, use_registry

EXPERIMENTS = ["tab-star-pd1", "tab-kernel-structure"]


def _square(x: int) -> int:
    return x * x


def _fail_on_three(x: int) -> int:
    # Module-level so the process pool can pickle it.
    if x == 3:
        raise ValueError("three is right out")
    return x


class TestParallelMap:
    def test_serial_matches_plain_loop(self):
        assert parallel_map(_square, range(5), jobs=1) == [0, 1, 4, 9, 16]

    def test_parallel_preserves_order(self):
        assert parallel_map(_square, range(8), jobs=2) == [
            x * x for x in range(8)
        ]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_names_the_item(self, caplog, jobs):
        """Satellite: a failing item is logged/annotated with context."""
        with caplog.at_level(logging.ERROR, logger="repro"):
            with pytest.raises(ValueError, match="three") as excinfo:
                parallel_map(_fail_on_three, range(6), jobs=jobs)
        errors = [
            record
            for record in caplog.records
            if record.message == "parallel item failed"
        ]
        assert len(errors) == 1
        assert errors[0].index == 3
        assert errors[0].item == "3"
        assert errors[0].fn == "_fail_on_three"
        assert "ValueError" in errors[0].error
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("item 3" in note for note in notes)


class TestTimedRun:
    def test_appends_timing_note(self):
        result = timed_run("tab-star-pd1", sizes=(2, 5))
        assert result.passed
        assert any(note.startswith("timing:") for note in result.notes)


class TestRunExperiments:
    """A sweep over *different* experiments through ``run_sweep``."""

    def test_parallel_identical_to_serial(self):
        """Acceptance: --jobs N produces identical tables and checks."""
        serial = run_sweep(EXPERIMENTS, jobs=1).results
        parallel = run_sweep(EXPERIMENTS, jobs=2).results
        for a, b in zip(serial, parallel):
            assert a.experiment == b.experiment
            assert a.rows == b.rows
            assert a.headers == b.headers
            assert a.checks == b.checks

    def test_order_matches_request(self):
        names = list(reversed(EXPERIMENTS))
        results = run_sweep(names, jobs=2).results
        assert [r.experiment for r in results] == names


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_experiment("tab-star-pd1", sizes=(2, 5))
        cache.store(result, {"sizes": (2, 5)})
        loaded = cache.load("tab-star-pd1", {"sizes": (2, 5)})
        assert loaded is not None
        assert loaded.rows == result.rows
        assert loaded.checks == result.checks
        assert any(note.startswith("cache: hit") for note in loaded.notes)

    def test_key_depends_on_params(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key("e", {"n": 1}) != cache.key("e", {"n": 2})
        assert cache.key("e", {}) != cache.key("f", {})

    def test_miss_on_empty_dir(self, tmp_path):
        assert ResultCache(tmp_path).load("tab-star-pd1", {}) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("tab-star-pd1", {}).parent.mkdir(exist_ok=True)
        cache.path("tab-star-pd1", {}).write_text("{not json")
        assert cache.load("tab-star-pd1", {}) is None

    def test_run_sweep_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_sweep(["tab-star-pd1"], cache=cache).results
        second = run_sweep(["tab-star-pd1"], cache=cache).results
        assert not any(
            note.startswith("cache: hit") for note in first[0].notes
        )
        assert any(note.startswith("cache: hit") for note in second[0].notes)
        assert first[0].rows == second[0].rows
        assert first[0].checks == second[0].checks

    def test_hit_note_is_idempotent(self, tmp_path):
        """Satellite: repeated loads never accumulate duplicate notes."""
        cache = ResultCache(tmp_path)
        result = run_experiment("tab-star-pd1", sizes=(2, 5))
        cache.store(result, {})
        loaded = cache.load("tab-star-pd1", {})
        # Store the *loaded* result back (hit note and all), then load
        # again: the note must not double up.
        cache.store(loaded, {})
        reloaded = cache.load("tab-star-pd1", {})
        hit_notes = [
            note for note in reloaded.notes if note.startswith("cache: hit")
        ]
        assert len(hit_notes) == 1

    def test_hit_and_miss_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        with use_registry(MetricsRegistry()) as registry:
            assert cache.load("tab-star-pd1", {}) is None
            cache.store(run_experiment("tab-star-pd1", sizes=(2, 5)), {})
            assert cache.load("tab-star-pd1", {}) is not None
            assert cache.load("tab-star-pd1", {}) is not None
        assert registry.value("cache.misses") == 1
        assert registry.value("cache.hits") == 2

    def test_cached_render_identical(self, tmp_path):
        """A reload renders the same table (values survive JSON)."""
        from repro.analysis.tables import render_table

        cache = ResultCache(tmp_path)
        result = run_experiment("tab-kernel-structure", max_round=2, sparse_max_round=4)
        cache.store(result, {})
        loaded = cache.load("tab-kernel-structure", {})
        assert render_table(loaded.rows, loaded.headers) == render_table(
            result.rows, result.headers
        )


class TestMetricsAggregation:
    def test_parallel_counters_equal_serial(self):
        """Acceptance: worker registries merge losslessly into the
        caller's registry -- --jobs N aggregates the same counters."""
        with use_registry(MetricsRegistry()) as serial:
            run_sweep(EXPERIMENTS, jobs=1)
        with use_registry(MetricsRegistry()) as parallel:
            run_sweep(EXPERIMENTS, jobs=2)
        serial_counters = serial.snapshot()["counters"]
        parallel_counters = parallel.snapshot()["counters"]
        assert serial_counters == parallel_counters
        assert serial_counters["experiments.run"] == len(EXPERIMENTS)
        assert serial_counters["engine.rounds"] > 0
        assert serial_counters["engine.messages_delivered"] > 0

    def test_timed_run_records_span_histogram(self):
        with use_registry(MetricsRegistry()) as registry:
            timed_run("tab-star-pd1", sizes=(2, 5))
        snapshot = registry.snapshot()
        assert snapshot["counters"]["experiments.run"] == 1
        assert snapshot["counters"]["experiments.passed"] == 1
        assert snapshot["histograms"]["span.experiment.run.s"]["count"] == 1


class TestExperimentResultSerialisation:
    def test_to_from_dict_roundtrip(self):
        result = ExperimentResult(
            experiment="x",
            title="t",
            headers=["a", "b"],
            rows=[{"a": 1, "b": 2.5}, {"a": True, "b": "s"}],
            checks={"ok": True, "bad": False},
            notes=["n1"],
        )
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone.rows == result.rows
        assert clone.checks == result.checks
        assert clone.render() == result.render()

    def test_non_json_values_render_stably(self):
        result = ExperimentResult(
            experiment="x",
            title="t",
            headers=["a"],
            rows=[{"a": (1, 2)}],
        )
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone.render() == result.render()


class TestExperimentJobsParam:
    def test_sweep_jobs_identical(self):
        serial = run_experiment(
            "fig-counting-rounds-vs-n", max_n=30, per_decade=3, jobs=1
        )
        parallel = run_experiment(
            "fig-counting-rounds-vs-n", max_n=30, per_decade=3, jobs=2
        )
        assert serial.rows == parallel.rows
        assert serial.checks == parallel.checks
        # The global fit checks need the full-size sweep; the per-size
        # exactness checks must hold even on this shrunken one.
        assert all(
            ok for name, ok in serial.checks.items() if name.startswith("n")
        )

    def test_horizon_jobs_identical(self):
        serial = run_experiment(
            "tab-ambiguity-horizon", sizes=(2, 5, 14), jobs=1
        )
        parallel = run_experiment(
            "tab-ambiguity-horizon", sizes=(2, 5, 14), jobs=2
        )
        assert serial.rows == parallel.rows
        assert serial.checks == parallel.checks
        assert serial.passed
