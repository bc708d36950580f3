"""Tests for the fault-tolerant sweep runtime.

Fast-by-construction: every sweep here uses tiny star/kernel
parameterisations, retries with near-zero backoff, and the
deterministic fault-injection harness from
``repro.analysis.runtime.faults``.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.analysis.runtime import parallel_map
from repro.analysis.registry import ExperimentRequest
from repro.analysis.runtime import (
    FaultPlan,
    Journal,
    ResultCache,
    RetryPolicy,
    TaskTimeout,
    WorkerCrash,
    classify_error,
    run_sweep,
)
from repro.analysis.runtime.cache import STREAM_FIELD
from repro.analysis.runtime.errors import FATAL, RETRYABLE
from repro.analysis.runtime.runner import merge_snapshots_in_task_order
from repro.networks.generators.streams import TOPOLOGY_STREAM
from repro.obs.metrics import MetricsRegistry, counter, gauge, use_registry

#: A sweep of three distinct tiny tasks (distinct params => distinct
#: cache/journal keys).
REQUESTS = [
    ExperimentRequest("tab-star-pd1", params={"sizes": sizes})
    for sizes in ((2,), (2, 5), (2, 5, 9))
]

#: Retry fast: single retry, millisecond backoff, no jitter.
QUICK_RETRY = RetryPolicy(retries=1, backoff_s=0.001, jitter=0.0)


def counters_of(registry: MetricsRegistry) -> dict[str, int]:
    return registry.snapshot()["counters"]


class TestRetryPolicy:
    def test_attempts(self):
        assert RetryPolicy(retries=0).attempts() == 1
        assert RetryPolicy(retries=3).attempts() == 4

    def test_delay_is_deterministic_and_exponential(self):
        policy = RetryPolicy(backoff_s=0.5, backoff_factor=2.0, jitter=0.25)
        first = policy.delay_s(3, 1)
        assert first == policy.delay_s(3, 1)  # pure function
        assert 0.5 <= first <= 0.5 * 1.25
        assert 1.0 <= policy.delay_s(3, 2) <= 1.0 * 1.25
        assert policy.delay_s(3, 1) != policy.delay_s(4, 1)  # jitter spread

    def test_no_jitter_is_exact(self):
        policy = RetryPolicy(backoff_s=0.25, backoff_factor=2.0, jitter=0.0)
        assert policy.delay_s(0, 1) == 0.25
        assert policy.delay_s(0, 3) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"timeout_s": 0},
            {"max_failures": -1},
            {"jitter": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestErrorClassification:
    def test_retryable(self):
        for exc in (
            WorkerCrash("died"),
            TaskTimeout("slow"),
            OSError("io"),
            TimeoutError(),
            EOFError(),
            MemoryError(),
        ):
            assert classify_error(exc) == RETRYABLE

    def test_fatal(self):
        for exc in (ValueError("bad"), AssertionError(), KeyError("x")):
            assert classify_error(exc) == FATAL


class TestFaultPlan:
    def test_parse_pinned(self):
        plan = FaultPlan.parse("kill@3")
        assert (plan.kind, plan.at) == ("kill", 3)
        assert plan.target(10) == 3

    def test_parse_seeded(self):
        plan = FaultPlan.parse("raise")
        assert plan.at is None
        assert plan.target(7) == plan.target(7)  # deterministic draw
        assert 0 <= plan.target(7) < 7

    @pytest.mark.parametrize("text", ["explode@1", "kill@x"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(kind="kill", at=-1)


class TestJournal:
    def test_replay_folds_last_event(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.record_sweep(tasks=2, resume=False)
        journal.record_started(
            "tab-a-1111", experiment="tab-a", params_hash="1111", attempt=1
        )
        journal.record_started(
            "tab-b-2222", experiment="tab-b", params_hash="2222", attempt=1
        )
        journal.record_failed(
            "tab-b-2222", attempt=1, error="boom", kind="retryable", final=False
        )
        journal.record_completed(
            "tab-a-1111", attempt=1, result_path="/tmp/a.json"
        )
        journal.close()
        entries = journal.replay()
        assert entries["tab-a-1111"].status == "completed"
        assert entries["tab-a-1111"].result_path == "/tmp/a.json"
        assert entries["tab-b-2222"].status == "retrying"
        assert entries["tab-b-2222"].error == "boom"

    def test_unreadable_line_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.record_started(
            "tab-a-1111", experiment="tab-a", params_hash="1111", attempt=1
        )
        journal.close()
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"event": "completed", "task": "tab-a-1')  # torn
        entries = journal.replay()
        assert entries["tab-a-1111"].status == "started"

    def test_non_object_line_skipped_with_warning(self, tmp_path, caplog):
        # A valid JSON line that is not an object used to crash replay
        # (and so --resume) with AttributeError.
        path = tmp_path / "journal.jsonl"
        path.write_text('{"event":"started","task":"t","ts":1}\n5\n')
        with caplog.at_level(logging.WARNING, logger="repro"):
            entries = Journal(path).replay()
        assert entries["t"].status == "started"
        assert any("unreadable" in r.getMessage() for r in caplog.records)

    def test_blank_lines_are_not_warned_about(self, tmp_path, caplog):
        path = tmp_path / "journal.jsonl"
        path.write_text('\n{"event":"started","task":"t","ts":1}\n\n')
        with caplog.at_level(logging.WARNING, logger="repro"):
            entries = Journal(path).replay()
        assert entries["t"].status == "started"
        assert not any("unreadable" in r.getMessage() for r in caplog.records)

    def test_missing_file_is_empty(self, tmp_path):
        assert Journal(tmp_path / "nope.jsonl").replay() == {}

    def test_truncate(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.record_sweep(tasks=1, resume=False)
        journal.truncate()
        assert journal.replay() == {}


class TestRunSweepSerial:
    def test_results_in_request_order(self):
        outcome = run_sweep(REQUESTS)
        assert outcome.passed and not outcome.provenance
        assert [len(r.rows) for r in outcome.results] == [1, 2, 3]

    def test_string_shorthand(self):
        outcome = run_sweep(["tab-kernel-structure"])
        assert outcome.results[0].experiment == "tab-kernel-structure"

    def test_unknown_id_fails_before_running(self):
        with pytest.raises(KeyError, match="tab-nope"):
            run_sweep(["tab-nope"])

    def test_transient_fault_is_retried(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS,
                journal=journal,
                policy=QUICK_RETRY,
                faults=FaultPlan(kind="raise", at=1),
            )
        assert outcome.passed and outcome.failed == 0
        counters = counters_of(registry)
        assert counters["runtime.retries"] == 1
        assert counters["runtime.faults.injected"] == 1
        assert counters["runtime.tasks.completed"] == 3
        entries = journal.replay()
        assert all(e.status == "completed" for e in entries.values())

    def test_kill_fault_simulated_in_process(self):
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS, policy=QUICK_RETRY, faults=FaultPlan(kind="kill", at=0)
            )
        assert outcome.passed
        assert counters_of(registry)["runtime.retries"] == 1

    def test_fatal_fault_aborts_with_original_exception(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        with pytest.raises(ValueError, match="injected fatal fault"):
            run_sweep(
                REQUESTS,
                journal=journal,
                policy=QUICK_RETRY,
                faults=FaultPlan(kind="fatal", at=1),
            )
        entries = journal.replay()
        statuses = {e.task: e.status for e in entries.values()}
        assert list(statuses.values()).count("completed") == 1
        assert list(statuses.values()).count("failed") == 1

    def test_fatal_fault_never_retries(self):
        with use_registry(MetricsRegistry()) as registry:
            with pytest.raises(ValueError):
                run_sweep(
                    REQUESTS,
                    policy=RetryPolicy(retries=5, backoff_s=0.001),
                    faults=FaultPlan(kind="fatal", at=0),
                )
        assert "runtime.retries" not in counters_of(registry)

    def test_failure_budget_tolerates_and_synthesizes(self):
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS,
                policy=RetryPolicy(retries=0, max_failures=1),
                faults=FaultPlan(kind="fatal", at=1),
            )
        assert not outcome.passed and outcome.failed == 1
        assert len(outcome.results) == 3
        placeholder = outcome.results[1]
        assert placeholder.checks == {"completed": False}
        assert "injected fatal fault" in placeholder.rows[0]["error"]
        assert any("failed after 1 attempt" in p for p in outcome.provenance)
        assert counters_of(registry)["runtime.tasks.failed"] == 1

    def test_cache_reuse_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(REQUESTS, cache=cache)
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(REQUESTS, cache=cache)
        assert outcome.passed
        counters = counters_of(registry)
        assert counters["cache.hits"] == 3
        assert "experiments.run" not in counters

    def test_cache_policy_off_skips_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = ExperimentRequest(
            "tab-star-pd1", params={"sizes": (2,)}, cache_policy="off"
        )
        run_sweep([request], cache=cache)
        assert not list(tmp_path.glob("tab-star-pd1-*.json"))


class TestRunSweepPool:
    def test_matches_serial_results_and_metrics(self):
        with use_registry(MetricsRegistry()) as serial_registry:
            serial = run_sweep(REQUESTS)
        with use_registry(MetricsRegistry()) as pool_registry:
            pooled = run_sweep(REQUESTS, jobs=2)
        assert [r.rows for r in pooled.results] == [
            r.rows for r in serial.results
        ]
        serial_counters = {
            k: v
            for k, v in counters_of(serial_registry).items()
            if not k.startswith("runtime.")
        }
        pool_counters = {
            k: v
            for k, v in counters_of(pool_registry).items()
            if not k.startswith("runtime.")
        }
        assert serial_counters == pool_counters
        assert (
            serial_registry.snapshot()["gauges"]
            == pool_registry.snapshot()["gauges"]
        )

    def test_worker_kill_is_retried(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS,
                jobs=2,
                journal=journal,
                policy=QUICK_RETRY,
                faults=FaultPlan(kind="kill", at=0),
            )
        assert outcome.passed and outcome.failed == 0
        counters = counters_of(registry)
        assert counters["runtime.worker_deaths"] == 1
        assert counters["runtime.retries"] == 1
        assert counters["runtime.tasks.completed"] == 3
        assert all(e.status == "completed" for e in journal.replay().values())

    def test_hang_is_timed_out_and_retried(self):
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS,
                jobs=2,
                policy=RetryPolicy(
                    retries=1, timeout_s=0.75, backoff_s=0.001, jitter=0.0
                ),
                faults=FaultPlan(kind="hang", at=1),
            )
        assert outcome.passed
        counters = counters_of(registry)
        assert counters["runtime.timeouts"] == 1
        assert counters["runtime.retries"] == 1

    def test_degrades_to_serial_after_worker_deaths(self):
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS,
                jobs=2,
                policy=QUICK_RETRY,
                faults=FaultPlan(kind="kill", at=0),
                degrade_after=1,
            )
        assert outcome.passed
        assert counters_of(registry)["runtime.degraded"] == 1
        assert any("degraded to serial" in p for p in outcome.provenance)

    def test_kill_without_retries_aborts(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        with pytest.raises(WorkerCrash, match="worker died"):
            run_sweep(
                REQUESTS,
                jobs=2,
                journal=journal,
                policy=RetryPolicy(retries=0),
                faults=FaultPlan(kind="kill", at=0),
            )
        text = (tmp_path / "journal.jsonl").read_text()
        assert '"event": "aborted"' in text


class TestSnapshotMergeOrder:
    """Regression: pool gauge merges must not depend on completion order."""

    @staticmethod
    def _snapshot(task_index: int, value: int) -> tuple[int, dict]:
        registry = MetricsRegistry()
        with use_registry(registry):
            counter("merged.tasks")
            gauge("merged.last", value)
        return (task_index, registry.snapshot())

    def test_gauges_fold_in_task_order_not_completion_order(self):
        # Completion order scrambled: task 2 finished first, then 0, 1.
        snapshots = [
            self._snapshot(2, 200),
            self._snapshot(0, 0),
            self._snapshot(1, 100),
        ]
        with use_registry(MetricsRegistry()) as registry:
            merge_snapshots_in_task_order(snapshots)
        snapshot = registry.snapshot()
        # Last-write-wins gauges resolve to the *highest task index*,
        # whatever order the workers raced in; counters just add.
        assert snapshot["gauges"]["merged.last"] == 200
        assert snapshot["counters"]["merged.tasks"] == 3

    def test_pool_gauges_deterministic_and_match_serial(self):
        requests = REQUESTS + [
            ExperimentRequest(
                "tab-kernel-structure",
                params={"max_round": 3, "sparse_max_round": 4},
            )
        ]
        with use_registry(MetricsRegistry()) as serial_registry:
            assert run_sweep(requests).passed
        gauges = serial_registry.snapshot()["gauges"]
        assert "sparse.nnz" in gauges  # the experiment really sets one
        for _ in range(2):
            with use_registry(MetricsRegistry()) as pool_registry:
                assert run_sweep(requests, jobs=2).passed
            assert pool_registry.snapshot()["gauges"] == gauges


class TestResumeSemantics:
    def test_resume_skips_completed_and_requeues_rest(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal = Journal(tmp_path / "cache" / "journal.jsonl")
        with pytest.raises(ValueError):
            run_sweep(
                REQUESTS,
                cache=cache,
                journal=journal,
                policy=RetryPolicy(retries=0),
                faults=FaultPlan(kind="fatal", at=2),
            )
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS, cache=cache, journal=journal, resume=True
            )
        assert outcome.passed and outcome.skipped == 2
        counters = counters_of(registry)
        assert counters["runtime.resume.skipped"] == 2
        assert counters["runtime.resume.requeued"] == 1
        assert counters["experiments.run"] == 1  # zero re-execution
        assert any("resumed: 2 completed" in p for p in outcome.provenance)
        reference = run_sweep(REQUESTS)
        assert [r.rows for r in outcome.results] == [
            r.rows for r in reference.results
        ]
        assert [r.checks for r in outcome.results] == [
            r.checks for r in reference.results
        ]

    def test_fresh_run_truncates_journal(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.record_started(
            "tab-zzz-0000", experiment="tab-zzz", params_hash="0000", attempt=1
        )
        run_sweep(REQUESTS[:1], journal=journal)
        assert "tab-zzz" not in (tmp_path / "journal.jsonl").read_text()

    def test_resume_on_empty_journal_runs_everything(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS[:2], journal=journal, resume=True
            )
        assert outcome.passed and outcome.skipped == 0
        assert counters_of(registry)["experiments.run"] == 2


def _rewrite_stream(path, stream) -> None:
    """Rewrite a cache file as if written under ``stream`` (``None``:
    before the files recorded one)."""
    payload = json.loads(path.read_text())
    del payload[STREAM_FIELD]
    if stream is not None:
        payload[STREAM_FIELD] = stream
    path.write_text(json.dumps(payload))


class TestTopologyStreamVersion:
    """A cached result drawn under another topology stream is stale."""

    PARAMS = {"sizes": (2, 5)}

    def _stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_sweep(REQUESTS[1:2]).results[0]
        return cache, result, cache.store(result, self.PARAMS)

    def test_stream_is_in_the_file_not_the_result(self, tmp_path):
        cache, result, path = self._stored(tmp_path)
        assert json.loads(path.read_text())[STREAM_FIELD] == TOPOLOGY_STREAM
        loaded = cache.load("tab-star-pd1", self.PARAMS)
        assert STREAM_FIELD not in loaded.to_dict()
        assert loaded.rows == result.rows

    @pytest.mark.parametrize("stream", [None, TOPOLOGY_STREAM - 1])
    def test_other_stream_is_a_miss(self, tmp_path, stream):
        cache, _, path = self._stored(tmp_path)
        _rewrite_stream(path, stream)
        with use_registry(MetricsRegistry()) as registry:
            assert cache.load("tab-star-pd1", self.PARAMS) is None
        counters = counters_of(registry)
        assert counters["cache.misses"] == 1
        assert "cache.hits" not in counters

    def test_resume_reruns_a_task_cached_under_another_stream(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal = Journal(tmp_path / "cache" / "journal.jsonl")
        with pytest.raises(ValueError):
            run_sweep(
                REQUESTS,
                cache=cache,
                journal=journal,
                policy=RetryPolicy(retries=0),
                faults=FaultPlan(kind="fatal", at=2),
            )
        stored = sorted((tmp_path / "cache").glob("tab-star-pd1-*.json"))
        assert len(stored) == 2
        _rewrite_stream(stored[0], None)
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS, cache=cache, journal=journal, resume=True
            )
        assert outcome.passed and outcome.skipped == 1
        assert counters_of(registry)["experiments.run"] == 2
        assert all(
            json.loads(path.read_text())[STREAM_FIELD] == TOPOLOGY_STREAM
            for path in stored
        )


def _crash_on_three(value: int) -> int:
    if value == 3:
        os._exit(13)
    return value * 2


class TestParallelMapCrash:
    def test_worker_death_names_the_item(self):
        """An ``os._exit`` mid-item surfaces as WorkerCrash naming the
        lost item, not as an opaque BrokenProcessPool."""
        with pytest.raises(
            WorkerCrash, match=r"worker process died while running item"
        ) as excinfo:
            parallel_map(_crash_on_three, range(6), jobs=2)
        assert "_crash_on_three" in str(excinfo.value)


class TestSerialTimeoutVisibility:
    """``timeout_s`` cannot preempt in-process attempts; say so loudly."""

    def test_serial_hang_fault_retried_with_provenance_note(self):
        outcome = run_sweep(
            REQUESTS,
            policy=RetryPolicy(
                retries=1, timeout_s=5.0, backoff_s=0.001, jitter=0.0
            ),
            faults=FaultPlan(kind="hang", at=1),
        )
        assert outcome.passed
        assert any("not enforced" in note for note in outcome.provenance)

    def test_no_note_when_timeout_unset(self):
        outcome = run_sweep(REQUESTS, policy=QUICK_RETRY)
        assert outcome.passed
        assert not any("not enforced" in note for note in outcome.provenance)

    def test_degraded_serial_tail_also_notes_timeout(self):
        # After graceful degradation the remaining tasks run in-process
        # too, so the same budget-evaporates trace must appear.
        outcome = run_sweep(
            REQUESTS,
            jobs=2,
            policy=RetryPolicy(
                retries=1, timeout_s=30.0, backoff_s=0.001, jitter=0.0
            ),
            faults=FaultPlan(kind="kill", at=0),
            degrade_after=1,
        )
        assert outcome.passed
        assert any("degraded to serial" in note for note in outcome.provenance)
        assert any("not enforced" in note for note in outcome.provenance)


class TestSharding:
    """Deterministic task partitioning for multi-machine sweeps."""

    def test_shard_of_is_stable_and_in_range(self):
        from repro.analysis.runtime import shard_of

        # sha256-based: stable across processes and Python versions.
        assert shard_of("tab-star-pd1-deadbeef", 4) == shard_of(
            "tab-star-pd1-deadbeef", 4
        )
        for count in (1, 2, 3, 7):
            owners = {shard_of(f"task-{i}", count) for i in range(64)}
            assert owners <= set(range(count))
        assert shard_of("anything", 1) == 0

    def test_shard_of_rejects_bad_count(self):
        from repro.analysis.runtime import shard_of

        with pytest.raises(ValueError, match="shard count"):
            shard_of("key", 0)

    def test_parse_shard(self):
        from repro.analysis.runtime import parse_shard

        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("2", "a/b", "2/2", "-1/2", "0/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shards_partition_the_sweep(self):
        outcomes = [
            run_sweep(REQUESTS, shard=(index, 2)) for index in range(2)
        ]
        owned = [len(outcome.results) for outcome in outcomes]
        assert sum(owned) == len(REQUESTS)  # disjoint cover, no overlap
        for index, outcome in enumerate(outcomes):
            assert outcome.passed
            assert any(
                f"shard {index}/2: owns {owned[index]} of 3"
                in line
                for line in outcome.provenance
            )

    def test_shard_counter_and_validation(self):
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(REQUESTS, shard=(0, 2))
        counters = counters_of(registry)
        assert counters["runtime.shard.owned"] == len(outcome.results)
        with pytest.raises(ValueError, match="shard index"):
            run_sweep(REQUESTS, shard=(2, 2))


class TestMergeJournals:
    def _sharded_sweep(self, tmp_path):
        from repro.analysis.runtime import merge_journals

        cache = ResultCache(tmp_path / "cache")
        sources = []
        for index in range(2):
            journal_path = tmp_path / f"shard-{index}.jsonl"
            run_sweep(
                REQUESTS,
                cache=cache,
                journal=Journal(journal_path),
                shard=(index, 2),
            )
            sources.append(journal_path)
        merged = tmp_path / "cache" / "journal.jsonl"
        lines = merge_journals(merged, sources)
        return cache, merged, lines

    def test_merged_resume_re_executes_nothing(self, tmp_path):
        cache, merged, lines = self._sharded_sweep(tmp_path)
        assert lines > 0
        with use_registry(MetricsRegistry()) as registry:
            outcome = run_sweep(
                REQUESTS, cache=cache, journal=Journal(merged), resume=True
            )
        assert outcome.passed and outcome.skipped == len(REQUESTS)
        counters = counters_of(registry)
        assert counters["runtime.resume.skipped"] == len(REQUESTS)
        assert "experiments.run" not in counters  # zero re-execution
        reference = run_sweep(REQUESTS)
        assert [r.rows for r in outcome.results] == [
            r.rows for r in reference.results
        ]

    def test_merge_sorts_by_timestamp(self, tmp_path):
        from repro.analysis.runtime import merge_journals

        import json as json_mod

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(
            json_mod.dumps({"event": "x", "ts": 3.0}) + "\n"
            + json_mod.dumps({"event": "y", "ts": 1.0}) + "\n"
        )
        b.write_text(
            json_mod.dumps({"event": "z", "ts": 2.0}) + "\n"
            + "not json\n"
        )
        out = tmp_path / "merged.jsonl"
        assert merge_journals(out, [a, b]) == 3  # torn line skipped
        stamps = [
            json_mod.loads(line)["ts"]
            for line in out.read_text().splitlines()
        ]
        assert stamps == sorted(stamps)

    def test_stampless_records_keep_source_position(self, tmp_path):
        from repro.analysis.runtime import merge_journals

        import json as json_mod

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        # Shard a's "completed" line lost its ts stamp (a torn write).
        # It must stay *after* its own "started" line -- under the old
        # sort-by-ts-default-0.0 it teleported to the front of the
        # merge, last-event-wins replay regressed the task to
        # "started", and --resume re-ran a completed task.
        a.write_text(
            json_mod.dumps({"event": "started", "task": "t", "ts": 5.0})
            + "\n"
            + json_mod.dumps(
                {"event": "completed", "task": "t", "result_path": "r.json"}
            )
            + "\n"
        )
        # Shard b *leads* with a stamp-less line: it inherits nothing
        # and stays at the front, in source order.
        b.write_text(
            json_mod.dumps({"event": "sweep", "tasks": 1})
            + "\n"
            + json_mod.dumps({"event": "aborted", "failures": 0, "ts": 1.0})
            + "\n"
        )
        out = tmp_path / "merged.jsonl"
        assert merge_journals(out, [a, b]) == 4
        events = [
            json_mod.loads(line)["event"]
            for line in out.read_text().splitlines()
        ]
        assert events == ["sweep", "aborted", "started", "completed"]
        entry = Journal(out).replay()["t"]
        assert entry.status == "completed"
        assert entry.result_path == "r.json"

    def test_merge_skips_non_object_line(self, tmp_path):
        from repro.analysis.runtime import merge_journals

        source = tmp_path / "a.jsonl"
        source.write_text('{"event":"started","task":"t","ts":1}\n5\n')
        out = tmp_path / "merged.jsonl"
        assert merge_journals(out, [source]) == 1
        assert Journal(out).replay()["t"].status == "started"

    def test_merge_requires_sources(self, tmp_path):
        from repro.analysis.runtime import merge_journals

        with pytest.raises(ValueError, match="at least one journal"):
            merge_journals(tmp_path / "out.jsonl", [])
