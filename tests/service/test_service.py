"""The experiment service: submission lifecycle, cache-served repeats
with zero engine work (counter-proved), JSONL event streaming that
stitches to one trace root, and schema-boundary rejections."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.registry import ExperimentRequest
from repro.analysis.runtime import ResultCache, run_sweep
from repro.obs.metrics import get_registry
from repro.obs.trace import read_events, stitch
from repro.scenarios import Scenario
from repro.service import JobManager, ReproService, ServiceClient, ServiceError

#: A scenario small enough for in-test execution.
SMOKE = {
    "schema_version": 1,
    "name": "smoke",
    "experiment": "tab-star-pd1",
    "params": {"sizes": [2, 5]},
    "execution": {"backend": "fast"},
}


@pytest.fixture
def service(tmp_path):
    instance = ReproService(tmp_path / "state", port=0).start()
    try:
        yield instance
    finally:
        instance.close()


@pytest.fixture
def client(service):
    return ServiceClient(service.url, timeout_s=120.0)


def engine_counters() -> dict[str, float]:
    return {
        name: value
        for name, value in get_registry().snapshot()["counters"].items()
        if name.startswith(("engine.", "runtime."))
    }


class TestJobManager:
    def test_submit_run_and_cache_served(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            scenario = Scenario.from_dict(SMOKE)
            first = manager.submit(scenario)
            assert first["state"] == "queued"
            job = manager.wait(first["job"], timeout_s=120)
            assert job.state == "completed"
            assert job.status()["passed"] is True
            assert [r["experiment"] for r in job.results] == ["tab-star-pd1"]

            before = engine_counters()
            second = manager.submit(scenario)
            assert second["state"] == "cached"
            assert second["job"] is None
            assert [r["experiment"] for r in second["results"]] == [
                "tab-star-pd1"
            ]
            # Zero engine work on the repeat: the counters are the proof.
            assert engine_counters() == before
        finally:
            manager.shutdown()

    def test_non_json_params_rejected_before_queueing(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            scenario = Scenario(
                experiment="tab-star-pd1", params={"sizes": {2, 5}}
            )
            with pytest.raises(TypeError, match="'sizes'"):
                manager.submit(scenario)
            assert manager.list_jobs() == []  # nothing reached the queue
        finally:
            manager.shutdown()

    def test_cache_prepopulated_by_handwritten_request(self, tmp_path):
        """A scenario submission is served from cache entries written
        by a hand-built sweep: compiled identity is byte-identical."""
        state_dir = tmp_path / "state"
        cache = ResultCache(state_dir / "cache")
        run_sweep(
            [
                ExperimentRequest(
                    "tab-star-pd1",
                    params={"sizes": (2, 5)},
                    backend="fast",
                )
            ],
            cache=cache,
        )
        manager = JobManager(state_dir)
        try:
            submission = manager.submit(Scenario.from_dict(SMOKE))
            assert submission["state"] == "cached"
        finally:
            manager.shutdown()

    def test_failed_job_survives_worker(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            bad = Scenario(
                experiment="tab-star-pd1", params={"sizes": "nonsense"}
            )
            submission = manager.submit(bad)
            job = manager.wait(submission["job"], timeout_s=120)
            assert job.state == "failed"
            assert job.error
            # The worker thread is still alive and takes the next job.
            ok = manager.submit(Scenario.from_dict(SMOKE))
            assert manager.wait(ok["job"], timeout_s=120).state == "completed"
        finally:
            manager.shutdown()

    def test_restart_on_same_state_dir_gets_fresh_job_ids(self, tmp_path):
        """A restarted manager must not reuse a job id whose events file
        already exists: the append-mode sink would mix two trace roots."""
        state_dir = tmp_path / "state"
        first = JobManager(state_dir)
        try:
            old = first.submit(Scenario.from_dict(SMOKE))["job"]
            assert first.wait(old, timeout_s=120).state == "completed"
        finally:
            first.shutdown()
        second = JobManager(state_dir)
        try:
            submission = second.submit(
                Scenario.from_dict({**SMOKE, "cache_policy": "refresh"})
            )
            new = submission["job"]
            assert new != old
            job = second.wait(new, timeout_s=120)
            assert job.state == "completed"
        finally:
            second.shutdown()
        events, bad = read_events([job.events_path])
        assert bad == 0
        assert len(stitch(events)) == 1


class TestHttpService:
    def test_healthz_and_experiments(self, client):
        assert client.healthz()["status"] == "ok"
        assert "tab-star-pd1" in client.experiments()

    def test_submit_wait_result_and_cache_served(self, service, client):
        first = client.submit(SMOKE)
        assert first["state"] == "queued"
        job_id = first["job"]
        final = client.wait(job_id)
        assert final["state"] == "completed"
        assert final["passed"] is True

        result = client.result(job_id)
        assert [r["experiment"] for r in result["results"]] == [
            "tab-star-pd1"
        ]
        assert all(
            all(r["checks"].values()) for r in result["results"]
        )

        before = {
            name: value
            for name, value in client.metrics()["counters"].items()
            if name.startswith(("engine.", "runtime."))
        }
        def stable(results):
            # Timing/cache-hit notes are run-dependent; rows and checks
            # are the payload identity.
            return [
                {k: v for k, v in r.items() if k != "notes"}
                for r in results
            ]

        second = client.submit(SMOKE)
        assert second["state"] == "cached"
        assert stable(second["results"]) == stable(result["results"])
        after = {
            name: value
            for name, value in client.metrics()["counters"].items()
            if name.startswith(("engine.", "runtime."))
        }
        assert after == before

    def test_event_stream_stitches_to_single_trace_root(
        self, service, client
    ):
        submission = client.submit(
            {**SMOKE, "name": "traced", "cache_policy": "refresh"}
        )
        job_id = submission["job"]
        events = list(client.stream_events(job_id, follow=True))
        assert events, "stream yielded no events"
        traces = stitch(events)
        assert len(traces) == 1  # every event shares one trace_id
        [trace] = traces
        assert [root.name for root in trace.roots] == ["service.job"]
        client.wait(job_id)

    def test_follow_closes_on_finished_job_with_torn_tail(
        self, service, client
    ):
        # Regression: a finished job whose events file ends in a torn
        # line (no trailing newline) used to busy-spin the follow
        # handler forever -- the "whole lines only" cut never advanced
        # and the done-and-drained exit never fired.  The stream must
        # flush the partial tail and close within a poll interval.
        submission = client.submit(
            {**SMOKE, "name": "torn-tail", "cache_policy": "refresh"}
        )
        job_id = submission["job"]
        client.wait(job_id)
        job = service.manager.get(job_id)
        with open(job.events_path, "a", encoding="utf-8") as stream:
            stream.write('{"event": "torn"}')  # deliberately no newline
        start = time.monotonic()
        with urllib.request.urlopen(
            f"{service.url}/jobs/{job_id}/events?follow=1", timeout=30
        ) as response:
            body = response.read()
        assert time.monotonic() - start < 5.0
        assert body.endswith(b'{"event": "torn"}')
        # Everything before the torn tail arrived as intact JSONL.
        whole, _, tail = body.rpartition(b"\n")
        assert json.loads(tail) == {"event": "torn"}
        for line in whole.splitlines():
            json.loads(line)

    def test_unknown_scenario_key_is_http_400(self, client):
        with pytest.raises(ServiceError, match="'bogus'") as err:
            client.submit({**SMOKE, "bogus": 1})
        assert err.value.status == 400

    def test_unsupported_version_is_http_400(self, client):
        with pytest.raises(ServiceError, match="schema_version 99") as err:
            client.submit({**SMOKE, "schema_version": 99})
        assert err.value.status == 400

    def test_unknown_job_is_http_404(self, client):
        with pytest.raises(ServiceError, match="job-9999") as err:
            client.job("job-9999")
        assert err.value.status == 404

    def test_unknown_endpoint_is_http_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{service.url}/nonsense")
        assert err.value.code == 404

    def test_invalid_json_body_is_http_400(self, service):
        request = urllib.request.Request(
            f"{service.url}/scenarios",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert "invalid JSON" in json.loads(err.value.read())["error"]

    def test_jobs_listing(self, service, client):
        submission = client.submit(
            {**SMOKE, "name": "listed", "cache_policy": "refresh"}
        )
        listed = client.jobs()
        assert any(job["job"] == submission["job"] for job in listed)
        client.wait(submission["job"])
