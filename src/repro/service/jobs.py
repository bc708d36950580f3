"""Job lifecycle for the experiment service.

A *job* is one accepted scenario submission.  The :class:`JobManager`
owns the digest-addressed :class:`ResultCache`, a FIFO queue, and one
background worker thread that executes jobs through
:func:`repro.scenarios.run_scenario` -- so a job retries, journals,
degrades, and shards exactly like a CLI sweep.

The serving-layer contract (the "millions of users" path):

* **Submission is cheap.**  ``submit`` validates, compiles, and checks
  the cache; if *every* compiled request is already cached the results
  are returned immediately (``state == "cached"``) without touching
  the queue -- zero engine work, provable by ``engine.*`` /
  ``runtime.*`` counter equality across resubmissions.
* **Progress is a stream.**  Each executing job gets its own JSONL
  events file: a :class:`~repro.obs.spans.JsonlSink` registered for
  the duration of the run captures the ``service.job`` span tree, log
  records, and ``--telemetry``-style round events -- with the job's
  ``trace_id`` propagated into worker processes by the sweep runtime,
  so the streamed file stitches to a single trace root.
* **Journals survive.**  Each scenario digest keeps its own journal
  under the state directory; resubmitting a crashed scenario with
  ``execution.resume = true`` picks up where it died.
"""

from __future__ import annotations

import queue
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.runtime.cache import ResultCache
from repro.analysis.runtime.journal import Journal
from repro.obs.logger import get_logger
from repro.obs.metrics import counter
from repro.obs.spans import JsonlSink, add_sink, remove_sink, span
from repro.scenarios.runner import run_scenario
from repro.scenarios.schema import Scenario

_log = get_logger("service.jobs")

__all__ = ["Job", "JobManager"]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CACHED = "cached"

_TERMINAL = (COMPLETED, FAILED, CACHED)

_EVENTS_FILE = re.compile(r"job-(\d+)\.events\.jsonl")


@dataclass
class Job:
    """One accepted submission and everything known about it."""

    id: str
    scenario: Scenario
    task_keys: list[str]
    events_path: Path
    journal_path: Path
    state: str = QUEUED
    submitted_ts: float = field(default_factory=time.time)
    started_ts: float | None = None
    finished_ts: float | None = None
    error: str | None = None
    provenance: list[str] = field(default_factory=list)
    results: list[dict[str, Any]] | None = None
    #: Set once the job has run: after ``finished_ts``, never cleared.
    finished: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in _TERMINAL

    def status(self) -> dict[str, Any]:
        """The job-status wire format (``GET /jobs/<id>``)."""
        payload: dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "scenario": self.scenario.name,
            "experiment": self.scenario.experiment,
            "scenario_digest": self.scenario.digest(),
            "tasks": list(self.task_keys),
            "submitted_ts": round(self.submitted_ts, 6),
        }
        if self.started_ts is not None:
            payload["started_ts"] = round(self.started_ts, 6)
        if self.finished_ts is not None:
            payload["finished_ts"] = round(self.finished_ts, 6)
        if self.error is not None:
            payload["error"] = self.error
        if self.provenance:
            payload["provenance"] = list(self.provenance)
        if self.results is not None:
            payload["passed"] = all(
                all(result.get("checks", {}).values())
                for result in self.results
            )
        return payload


class JobManager:
    """Queue, worker thread, cache, and state directory for the service.

    Layout under ``state_dir``::

        cache/                     ResultCache + per-scenario journals
        cache/scenario-<digest>.journal.jsonl
        jobs/<job-id>.events.jsonl streamed JSONL progress

    Job ids continue after the highest ``job-NNNN`` events file already
    in ``jobs/``: the events sink appends, so a restarted service that
    reused an id would mix two jobs' trace roots in one stream.

    Thread model: HTTP handler threads call :meth:`submit` /
    :meth:`get` / :meth:`list_jobs`; one daemon worker thread executes
    jobs strictly in submission order (experiment concurrency belongs
    to the sweep runtime's ``jobs`` option, not to overlapping
    sweeps).
    """

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        self.cache_dir = self.state_dir / "cache"
        self.jobs_dir = self.state_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.cache_dir)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._queue: "queue.Queue[Job | None]" = queue.Queue()
        self._lock = threading.Lock()
        self._sequence = max(
            (
                int(match.group(1))
                for path in self.jobs_dir.iterdir()
                if (match := _EVENTS_FILE.fullmatch(path.name))
            ),
            default=0,
        )
        self._worker = threading.Thread(
            target=self._work, name="repro-service-worker", daemon=True
        )
        self._worker.start()

    # -- submission --------------------------------------------------------

    def submit(self, scenario: Scenario) -> dict[str, Any]:
        """Accept one scenario; returns the submission wire format.

        Validation runs first (schema errors and non-JSON params raise
        here, before anything is queued).  If every compiled request is
        already cached the cached results are returned inline with
        ``state == "cached"`` and no job is queued -- the engine is
        never touched.

        Raises:
            ScenarioError: Schema violation.
            TypeError: Non-JSON-serialisable parameter (the
                :meth:`ResultCache.key` key-naming error).
        """
        task_keys = scenario.task_keys()  # validates, names bad keys
        counter("service.submissions")
        cached = self._cache_served(scenario)
        if cached is not None:
            counter("service.cache_served")
            _log.info(
                "submission served from cache",
                extra={
                    "scenario": scenario.name,
                    "tasks": len(task_keys),
                },
            )
            return {
                "state": CACHED,
                "job": None,
                "scenario": scenario.name,
                "scenario_digest": scenario.digest(),
                "tasks": task_keys,
                "results": cached,
            }
        with self._lock:
            self._sequence += 1
            job_id = f"job-{self._sequence:04d}"
            job = Job(
                id=job_id,
                scenario=scenario,
                task_keys=task_keys,
                events_path=self.jobs_dir / f"{job_id}.events.jsonl",
                journal_path=self.cache_dir
                / f"scenario-{scenario.digest()}.journal.jsonl",
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
        counter("service.jobs.queued")
        # Snapshot before enqueueing: once the worker can see the job
        # it may flip it to "running" at any moment, and the submission
        # answer should deterministically read "queued".
        status = job.status()
        self._queue.put(job)
        _log.info(
            "job queued",
            extra={"job": job_id, "scenario": scenario.name},
        )
        return status

    def _cache_served(self, scenario: Scenario) -> list[dict[str, Any]] | None:
        """All requests' cached results, or ``None`` if any is missing.

        Only ``reuse`` submissions are eligible; ``refresh``/``off``
        always reach the engine by definition.
        """
        if scenario.cache_policy != "reuse":
            return None
        results = []
        for request in scenario.compile():
            result = self.cache.load(
                request.experiment, request.effective_params()
            )
            if result is None:
                return None
            results.append(result.to_dict())
        return results

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[dict[str, Any]]:
        """Status of every job, in submission order."""
        with self._lock:
            return [self._jobs[job_id].status() for job_id in self._order]

    def wait(self, job_id: str, timeout_s: float = 60.0) -> Job:
        """Block until ``job_id`` is terminal (tests/clients).

        Raises:
            KeyError: Unknown job id.
            TimeoutError: Still running after ``timeout_s``.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if not job.finished.wait(timeout_s):
            raise TimeoutError(
                f"job {job_id} still {job.state} after {timeout_s}s"
            )
        return job

    # -- execution ---------------------------------------------------------

    def _work(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        job.state = RUNNING
        job.started_ts = time.time()
        counter("service.jobs.started")
        # The sink is registered before the sweep spawns workers, so
        # forked attempt processes inherit it and append to the same
        # file; the `service.job` root span gives the stream one trace
        # id that run_sweep propagates into every worker.
        sink = add_sink(JsonlSink(str(job.events_path)))
        try:
            with span(
                "service.job",
                job=job.id,
                scenario=job.scenario.name,
                experiment=job.scenario.experiment,
                tasks=len(job.task_keys),
            ):
                with Journal(job.journal_path) as journal:
                    outcome = run_scenario(
                        job.scenario, cache=self.cache, journal=journal
                    )
            job.results = [result.to_dict() for result in outcome.results]
            job.provenance = list(outcome.provenance)
            job.state = COMPLETED
            counter("service.jobs.completed")
            _log.info(
                "job completed",
                extra={
                    "job": job.id,
                    "passed": outcome.passed,
                    "skipped": outcome.skipped,
                    "failed": outcome.failed,
                },
            )
        except BaseException as exc:  # noqa: BLE001 -- worker must survive
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = FAILED
            counter("service.jobs.failed")
            _log.error(
                "job failed", extra={"job": job.id, "error": job.error}
            )
        finally:
            job.finished_ts = time.time()
            remove_sink(sink)
            sink.close()
            job.finished.set()

    def shutdown(self) -> None:
        """Stop the worker after the current job (idempotent)."""
        self._queue.put(None)
        self._worker.join(timeout=5)
