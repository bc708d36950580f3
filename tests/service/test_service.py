"""The experiment service: submission lifecycle, cache-served repeats
with zero engine work (counter-proved), JSONL event streaming that
stitches to one trace root, schema-boundary rejections, and prompt,
paced answers to clients that poll."""

from __future__ import annotations

import http.client
import json
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.registry import ExperimentRequest
from repro.analysis.runtime import ResultCache, run_sweep
from repro.obs.jsonl import read_jsonl
from repro.obs.metrics import get_registry
from repro.obs.trace import read_events, stitch
from repro.scenarios import Scenario
from repro.service import JobManager, ReproService, ServiceClient, ServiceError, jobs

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


#: How long :func:`slow_jobs` holds each job before running it.
SLOW_JOB_S = 0.3


@pytest.fixture
def slow_jobs(monkeypatch):
    """Every job sleeps :data:`SLOW_JOB_S` before it runs."""
    real_run = jobs.run_scenario

    def run_slowly(*args, **kwargs):
        time.sleep(SLOW_JOB_S)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(jobs, "run_scenario", run_slowly)


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

    @staticmethod
    def assert_worker_survives(manager, scenario, error_type):
        """``scenario``'s job fails with ``error_type``, is counted, and the
        worker then completes a normal job."""
        failed = get_registry().value("service.jobs.failed")
        submission = manager.submit(scenario)
        job = manager.wait(submission["job"], timeout_s=120)
        assert job.state == "failed"
        assert job.error.startswith(f"{error_type}: ")
        assert get_registry().value("service.jobs.failed") == failed + 1
        ok = manager.submit(Scenario.from_dict(SMOKE))
        assert manager.wait(ok["job"], timeout_s=120).state == "completed"

    def test_wait_raises_for_unknown_and_unfinished_jobs(
        self, tmp_path, slow_jobs
    ):
        manager = JobManager(tmp_path / "state")
        try:
            with pytest.raises(KeyError, match="job-9999"):
                manager.wait("job-9999")
            job_id = manager.submit(Scenario.from_dict(SMOKE))["job"]
            with pytest.raises(TimeoutError, match=job_id):
                manager.wait(job_id, timeout_s=0.01)
            job = manager.wait(job_id, timeout_s=120)
            assert job.state == "completed"
            assert job.finished_ts is not None
        finally:
            manager.shutdown()

    def test_worker_survives_exception_at_runtime(self, tmp_path, monkeypatch):
        real_run = jobs.run_scenario
        calls = []

        def run_once_failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("sweep died mid-job")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(jobs, "run_scenario", run_once_failing)
        manager = JobManager(tmp_path / "state")
        try:
            self.assert_worker_survives(
                manager, Scenario.from_dict(SMOKE), "RuntimeError"
            )
        finally:
            manager.shutdown()
        assert len(calls) == 2

    def test_worker_survives_journal_open_failure(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            doomed = Scenario.from_dict({**SMOKE, "name": "doomed"})
            journal = (
                manager.cache_dir
                / f"scenario-{doomed.digest()}.journal.jsonl"
            )
            journal.mkdir(parents=True)  # opening it for append must fail
            self.assert_worker_survives(manager, doomed, "IsADirectoryError")
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

    def test_client_stream_skips_torn_tail_of_finished_job(
        self, service, client
    ):
        # The server flushes a finished job's torn tail as-is; the
        # client used to raise JSONDecodeError on it.
        submission = client.submit(
            {**SMOKE, "name": "torn-tail-client", "cache_policy": "refresh"}
        )
        job_id = submission["job"]
        client.wait(job_id)
        job = service.manager.get(job_id)
        whole, bad = read_jsonl(job.events_path)
        assert whole and bad == 0
        with open(job.events_path, "a", encoding="utf-8") as stream:
            stream.write('{"event": "tor')  # deliberately no newline
        assert list(client.stream_events(job_id, follow=True)) == whole

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


def poll_keep_alive(service, job_id):
    """``GET /jobs/<id>`` on one keep-alive connection, never sleeping."""
    connection = http.client.HTTPConnection(
        service.host, service.port, timeout=30
    )
    deadline = time.monotonic() + 30
    try:
        while time.monotonic() < deadline:
            connection.request("GET", f"/jobs/{job_id}")
            status = json.loads(connection.getresponse().read())
            if status["state"] in ("completed", "failed"):
                return status
        raise TimeoutError(f"job {job_id} unfinished after 30 s")
    finally:
        connection.close()


def poll_per_request(service, job_id):
    """``GET /jobs/<id>`` on a new connection each time, never sleeping."""
    client = ServiceClient(service.url, timeout_s=30)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        status = client.job(job_id)
        if status["state"] in ("completed", "failed"):
            return status
    raise TimeoutError(f"job {job_id} unfinished after 30 s")


POLLERS = {
    "keep-alive": poll_keep_alive,
    "per-request": poll_per_request,
    "client-wait": lambda service, job_id: ServiceClient(
        service.url, timeout_s=30
    ).wait(job_id, timeout_s=30),
}


class TestPolling:
    """A keep-alive request is not held back by Nagle's algorithm, and a
    status request on an unfinished job waits for the job: a poller that
    never sleeps is paced, not spun, and hears of completion at once."""

    @pytest.fixture(params=sorted(POLLERS))
    def polled(self, request, service, slow_jobs):
        """One slow job polled to completion by one poller."""
        job_id = ServiceClient(service.url).submit(SMOKE)["job"]
        before = get_registry().value("service.http.requests")
        start = time.monotonic()
        final = POLLERS[request.param](service, job_id)
        seen_ts = time.time()
        elapsed = time.monotonic() - start
        requests = get_registry().value("service.http.requests") - before
        job = service.manager.wait(job_id, timeout_s=30)
        assert final["state"] == "completed"
        return {
            "requests": requests,
            "elapsed_s": elapsed,
            "late_s": seen_ts - job.finished_ts,
        }

    def test_keep_alive_requests_are_not_delayed(self, service):
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        times = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert json.loads(response.read())["status"] == "ok"
                times.append(time.perf_counter() - start)
        finally:
            connection.close()
        # Nagle's algorithm held every answer back ~44 ms for the
        # client's delayed ACK.
        assert statistics.median(times) < 0.010

    def test_sleepless_poller_is_paced(self, polled):
        assert polled["requests"] <= polled["elapsed_s"] / 0.05 + 3, polled

    def test_sleepless_poller_hears_of_completion_at_once(self, polled):
        assert polled["late_s"] < 0.020, polled
