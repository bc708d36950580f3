"""The fault-tolerant sweep executor behind ``repro all``.

Rather than handing a list of tasks to a ``ProcessPoolExecutor`` and
dying with the first failure, :func:`run_sweep` owns each attempt's
process directly -- one ``multiprocessing.Process`` per attempt, at
most ``jobs`` alive at a time -- which is what makes the
fault-tolerance guarantees enforceable:

* **Timeouts**: each attempt carries a wall-clock deadline; a hung
  worker is ``terminate()``-d and the task retried (a shared pool
  cannot kill one hung worker without nuking its siblings).
* **Crash isolation**: a worker dying mid-task (OOM kill, segfault)
  surfaces as a :class:`~repro.analysis.runtime.errors.WorkerCrash`
  for *that task only*; the rest of the sweep is untouched.
* **Retries**: retryable failures re-queue with exponential backoff
  plus seeded jitter (:class:`~repro.analysis.runtime.retry
  .RetryPolicy`); fatal failures never retry and count against the
  sweep's ``max_failures`` budget.
* **Checkpointing**: every state transition is appended to the JSONL
  :class:`~repro.analysis.runtime.journal.Journal`, so ``resume=True``
  skips completed tasks (results reloaded from the cache) and
  re-queues in-flight ones -- a resumed sweep's tables and checks are
  identical to an uninterrupted run's.
* **Graceful degradation**: after ``degrade_after`` worker deaths the
  runner stops trusting process isolation, finishes the remaining
  tasks serially in-process, and records that provenance in the
  outcome (and hence the report).

Serial execution (``jobs <= 1``) runs attempts in-process with the
same retry/journal/cache pipeline; only preemptive timeouts need real
processes.  Metrics: every attempt runs under a fresh
:class:`~repro.obs.metrics.MetricsRegistry` whose snapshot is merged
into the caller's registry on success, so aggregated counters are
identical for serial, parallel, and resumed runs.

:func:`parallel_map` is the plain process-pool map for work that is
not an experiment request (the rounds-vs-n sweeps inside one
experiment); a worker that dies mid-task surfaces as a
:class:`~repro.analysis.runtime.errors.WorkerCrash` naming the item.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.analysis.registry import (
    ExperimentRequest,
    ExperimentResult,
    available_experiments,
    get_spec,
    run_experiment,
)
from repro.analysis.runtime import faults as faults_mod
from repro.analysis.runtime.cache import ResultCache, read_entry
from repro.analysis.runtime.errors import (
    RETRYABLE,
    SweepAborted,
    TaskTimeout,
    WorkerCrash,
    classify_error,
)
from repro.analysis.runtime.faults import FaultPlan
from repro.analysis.runtime.journal import (
    COMPLETED,
    Journal,
    JournalEntry,
    shard_of,
)
from repro.analysis.runtime.retry import RetryPolicy
from repro.obs.logger import get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    counter,
    get_registry,
    use_registry,
)
from repro.obs.spans import (
    adopt_worker_context,
    propagation_context,
    span,
)

_log = get_logger("analysis.runtime.runner")

__all__ = ["SweepOutcome", "parallel_map", "run_sweep", "timed_run"]

#: Seconds the scheduling loop sleeps when nothing is ready or running.
_TICK_S = 0.05


def timed_run(
    request: ExperimentRequest | str, /, **params: Any
) -> ExperimentResult:
    """Run one experiment inside an ``experiment.run`` span.

    The span records wall-clock and peak RSS and flows to any JSONL
    sink; its data is also rendered into the (pre-existing) note format
    ``timing: 1.234s wall, peak RSS 45.2 MiB`` so downstream note
    parsing keeps working.  Memory is the process high-water mark from
    ``getrusage`` -- free to read (unlike :mod:`tracemalloc`, whose
    allocation hooks slow the hot paths several-fold) and
    per-experiment in fresh pool workers; in a long serial run it is
    monotone across experiments.
    """
    name = request if isinstance(request, str) else request.experiment
    with span("experiment.run", experiment=name) as record:
        result = run_experiment(request, **params)
    counter("experiments.run")
    counter("experiments.passed" if result.passed else "experiments.failed")
    rss = record.rss_mib
    memory = f", peak RSS {rss:.1f} MiB" if rss is not None else ""
    result.notes.append(f"timing: {record.duration_s:.3f}s wall{memory}")
    return result


@dataclass
class SweepOutcome:
    """What a sweep produced, plus how it got there.

    Attributes:
        results: One :class:`ExperimentResult` per request, in request
            order.  A task that failed fatally within the failure
            budget yields a synthesized failing result (single
            ``completed`` check, false) so reports stay complete.
        provenance: Human-readable runtime provenance (resume skips,
            retries exhausted, degradation to serial) for the report.
        skipped: Tasks satisfied from the journal+cache by ``resume``.
        failed: Tasks that fatally failed (within budget).
    """

    results: list[ExperimentResult] = field(default_factory=list)
    provenance: list[str] = field(default_factory=list)
    skipped: int = 0
    failed: int = 0

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def __iter__(self):
        return iter(self.results)


@dataclass
class _Task:
    """Mutable per-task execution state inside one sweep."""

    index: int
    request: ExperimentRequest
    params: dict[str, Any]
    digest: str
    key: str
    attempt: int = 0
    ready_at: float = 0.0
    fault: str | None = None


def _attempt_main(
    conn: Connection,
    experiment: str,
    params: dict[str, Any],
    fault: str | None,
    trace_ctx: tuple[str, str | None] | None,
) -> None:
    # The body of one process-backed attempt.  Runs under a fresh
    # metrics registry whose snapshot travels back with the result, so
    # the parent can merge worker metrics losslessly.  The parent's
    # trace context is adopted first thing, so this worker's spans and
    # sink events stitch under the sweep's span tree.  Errors are
    # classified *here*, where the live exception object exists, and
    # cross the pipe as (kind, description).
    try:
        adopt_worker_context(trace_ctx)
        if fault is not None:
            faults_mod.trigger(fault, in_process=False)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = timed_run(experiment, **params)
        conn.send(("ok", result, registry.snapshot()))
    except BaseException as exc:  # noqa: BLE001 -- must report, not die silently
        try:
            conn.send(
                ("error", classify_error(exc), f"{type(exc).__name__}: {exc}")
            )
        except Exception:
            pass  # parent sees EOF and records a worker crash
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _failure_result(request: ExperimentRequest, error: str) -> ExperimentResult:
    """A synthesized failing result for a task that exhausted its budget."""
    return ExperimentResult(
        experiment=request.experiment,
        title=f"{request.experiment} (task failed)",
        headers=["error"],
        rows=[{"error": error}],
        checks={"completed": False},
        notes=[f"runtime: {error}"],
    )


class _SweepRunner:
    """One sweep's execution state machine (see module docstring)."""

    def __init__(
        self,
        *,
        jobs: int,
        policy: RetryPolicy,
        cache: ResultCache | None,
        journal: Journal | None,
        degrade_after: int,
    ) -> None:
        self.jobs = jobs
        self.policy = policy
        self.cache = cache
        self.journal = journal
        self.degrade_after = degrade_after
        self.failures = 0
        self.worker_deaths = 0
        self.degraded = False
        self.provenance: list[str] = []
        # Successful attempts' metrics snapshots, buffered as
        # (task index, snapshot) and merged in task order at sweep end:
        # gauges are last-write-wins, so merging in completion order
        # would make `repro all --jobs N` gauge values race-dependent.
        self.snapshots: list[tuple[int, dict[str, Any]]] = []

    # -- shared task-lifecycle plumbing -----------------------------------

    def _record_started(self, task: _Task, fault: str | None) -> None:
        if fault is not None:
            counter("runtime.faults.injected")
            _log.warning(
                "injecting fault",
                extra={"task": task.key, "fault": fault, "attempt": task.attempt},
            )
        if self.journal is not None:
            self.journal.record_started(
                task.key,
                experiment=task.request.experiment,
                params_hash=task.digest,
                attempt=task.attempt,
            )

    def _complete(
        self,
        task: _Task,
        result: ExperimentResult,
        results: dict[int, ExperimentResult],
    ) -> None:
        path = None
        if self.cache is not None and task.request.cache_policy != "off":
            path = self.cache.store(result, task.params)
        if self.journal is not None:
            self.journal.record_completed(
                task.key,
                attempt=task.attempt,
                result_path=str(path) if path is not None else None,
            )
        counter("runtime.tasks.completed")
        results[task.index] = result

    def _fail(
        self,
        task: _Task,
        kind: str,
        description: str,
        queue: list[_Task],
        results: dict[int, ExperimentResult],
        exc: BaseException | None = None,
    ) -> None:
        """Route one failed attempt: retry, tolerate, or abort."""
        attempts_left = self.policy.attempts() - task.attempt
        if kind == RETRYABLE and attempts_left > 0:
            delay = self.policy.delay_s(task.index, task.attempt)
            counter("runtime.retries")
            _log.warning(
                "retrying task",
                extra={
                    "task": task.key,
                    "attempt": task.attempt,
                    "delay_s": round(delay, 3),
                    "error": description,
                },
            )
            if self.journal is not None:
                self.journal.record_failed(
                    task.key,
                    attempt=task.attempt,
                    error=description,
                    kind=kind,
                    final=False,
                )
            task.ready_at = time.monotonic() + delay
            queue.append(task)
            return
        counter("runtime.tasks.failed")
        _log.error(
            "task failed",
            extra={
                "task": task.key,
                "attempt": task.attempt,
                "kind": kind,
                "error": description,
            },
        )
        if self.journal is not None:
            self.journal.record_failed(
                task.key,
                attempt=task.attempt,
                error=description,
                kind=kind,
                final=True,
            )
        self.failures += 1
        if self.failures > self.policy.max_failures:
            if self.journal is not None:
                self.journal.record_aborted(failures=self.failures)
            if exc is not None:
                if hasattr(exc, "add_note"):
                    exc.add_note(
                        f"run_sweep: task {task.key} failed fatally "
                        f"(attempt {task.attempt}); sweep aborted"
                    )
                raise exc
            raise SweepAborted(
                f"task {task.key} failed fatally ({description}); "
                f"{self.failures} failure(s) exceeded "
                f"max_failures={self.policy.max_failures}"
            )
        self.provenance.append(
            f"task {task.key} failed after {task.attempt} attempt(s): "
            f"{description}"
        )
        results[task.index] = _failure_result(
            task.request, f"failed after {task.attempt} attempt(s): {description}"
        )

    # -- serial (in-process) execution ------------------------------------

    def run_serial(
        self, queue: list[_Task], results: dict[int, ExperimentResult]
    ) -> None:
        if queue and self.policy.timeout_s is not None:
            # An in-process attempt cannot be preempted, so the
            # wall-clock budget silently evaporates here unless we say
            # so: warn once and leave a provenance trace in the report.
            _log.warning(
                "timeout not enforced for in-process attempts",
                extra={
                    "timeout_s": self.policy.timeout_s,
                    "tasks": len(queue),
                },
            )
            self.provenance.append(
                f"timeout {self.policy.timeout_s:g}s not enforced for "
                f"{len(queue)} in-process (serial) task(s); attempts "
                f"cannot be preempted without --jobs >= 2"
            )
        while queue:
            now = time.monotonic()
            ready = [t for t in queue if t.ready_at <= now]
            if not ready:
                time.sleep(
                    max(min(t.ready_at for t in queue) - now, _TICK_S)
                )
                continue
            task = ready[0]
            queue.remove(task)
            task.attempt += 1
            fault, task.fault = task.fault, None
            self._record_started(task, fault)
            registry = MetricsRegistry()
            try:
                if fault is not None:
                    faults_mod.trigger(fault, in_process=True)
                with use_registry(registry):
                    result = timed_run(task.request.experiment, **task.params)
            except Exception as exc:
                self._fail(
                    task,
                    classify_error(exc),
                    f"{type(exc).__name__}: {exc}",
                    queue,
                    results,
                    exc=exc,
                )
                continue
            self.snapshots.append((task.index, registry.snapshot()))
            self._complete(task, result, results)

    # -- process-backed execution -----------------------------------------

    def run_pool(
        self, queue: list[_Task], results: dict[int, ExperimentResult]
    ) -> list[_Task]:
        """Run tasks over worker processes; returns tasks left over
        when the runner degraded to serial (empty otherwise)."""
        running: dict[Connection, tuple[_Task, multiprocessing.Process, float | None]] = {}
        try:
            while running or (queue and not self.degraded):
                now = time.monotonic()
                while (
                    queue and len(running) < self.jobs and not self.degraded
                ):
                    ready = [t for t in queue if t.ready_at <= now]
                    if not ready:
                        break
                    task = ready[0]
                    queue.remove(task)
                    self._spawn(task, running, now)
                self._reap(running, queue, results)
        except BaseException:
            for _, (running_task, process, _) in list(running.items()):
                process.terminate()
                process.join(5)
            raise
        return queue

    def _spawn(
        self,
        task: _Task,
        running: dict[Connection, tuple[_Task, multiprocessing.Process, float | None]],
        now: float,
    ) -> None:
        task.attempt += 1
        fault, task.fault = task.fault, None
        self._record_started(task, fault)
        recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_attempt_main,
            args=(
                send_conn,
                task.request.experiment,
                task.params,
                fault,
                propagation_context(),
            ),
            daemon=True,
        )
        process.start()
        send_conn.close()  # child owns the write end; EOF now propagates
        deadline = (
            now + self.policy.timeout_s
            if self.policy.timeout_s is not None
            else None
        )
        running[recv_conn] = (task, process, deadline)

    def _reap(
        self,
        running: dict[Connection, tuple[_Task, multiprocessing.Process, float | None]],
        queue: list[_Task],
        results: dict[int, ExperimentResult],
    ) -> None:
        now = time.monotonic()
        tick = _TICK_S if queue else 0.5
        deadlines = [d for _, _, d in running.values() if d is not None]
        backoffs = [t.ready_at for t in queue if t.ready_at > now]
        for moment in deadlines + backoffs:
            tick = min(tick, max(moment - now, 0.001))
        if not running:
            if queue:
                time.sleep(tick)
            return
        for conn in connection_wait(list(running), timeout=tick):
            task, process, _ = running.pop(conn)
            message = None
            try:
                message = conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
            process.join(5)
            if message is None:
                self._worker_death(task, process, queue, results)
            elif message[0] == "ok":
                _, result, snapshot = message
                self.snapshots.append((task.index, snapshot))
                self._complete(task, result, results)
            else:
                _, kind, description = message
                self._fail(task, kind, description, queue, results)
        now = time.monotonic()
        for conn, (task, process, deadline) in list(running.items()):
            if deadline is not None and now >= deadline:
                running.pop(conn)
                process.terminate()
                process.join(5)
                conn.close()
                counter("runtime.timeouts")
                self._fail(
                    task,
                    RETRYABLE,
                    f"TaskTimeout: attempt exceeded "
                    f"{self.policy.timeout_s}s wall-clock budget",
                    queue,
                    results,
                    exc=TaskTimeout(
                        f"task {task.key} exceeded {self.policy.timeout_s}s"
                    ),
                )

    def _worker_death(
        self,
        task: _Task,
        process: multiprocessing.Process,
        queue: list[_Task],
        results: dict[int, ExperimentResult],
    ) -> None:
        self.worker_deaths += 1
        counter("runtime.worker_deaths")
        description = (
            f"WorkerCrash: worker died (exit code {process.exitcode}) "
            f"while running {task.key}"
        )
        if self.worker_deaths >= self.degrade_after and not self.degraded:
            self.degraded = True
            counter("runtime.degraded")
            note = (
                f"degraded to serial execution after "
                f"{self.worker_deaths} worker death(s)"
            )
            self.provenance.append(note)
            _log.warning("degrading to serial", extra={"task": task.key})
        self._fail(
            task,
            RETRYABLE,
            description,
            queue,
            results,
            exc=WorkerCrash(description),
        )


def merge_snapshots_in_task_order(
    snapshots: Sequence[tuple[int, dict[str, Any]]],
) -> None:
    """Fold attempt metrics snapshots into the current registry.

    Sorted by task index so gauge values (last-write-wins) come out
    identical whatever order the workers finished in; counter and
    histogram merges are associative and commutative, so ordering only
    matters for gauges.
    """
    registry = get_registry()
    for _, snapshot in sorted(snapshots, key=lambda item: item[0]):
        registry.merge(snapshot)


def _resume_result(
    entry: JournalEntry, task: _Task, cache: ResultCache | None
) -> ExperimentResult | None:
    """Reload a journal-completed task's result, or ``None`` to re-run."""
    if cache is not None:
        result = cache.load(task.request.experiment, task.params)
        if result is not None:
            return result
    if entry.result_path is not None:
        return read_entry(entry.result_path)
    return None


def run_sweep(
    requests: Sequence[ExperimentRequest | str] | None = None,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    journal: Journal | None = None,
    resume: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    degrade_after: int = 3,
    shard: tuple[int, int] | None = None,
) -> SweepOutcome:
    """Run a sweep of experiment requests fault-tolerantly.

    Args:
        requests: The sweep, in result order; strings are shorthand for
            default :class:`ExperimentRequest` s.  ``None`` runs the
            full registry in DESIGN.md order.
        jobs: Concurrent worker processes (``<= 1`` executes in-process).
        cache: Optional result cache; per-request ``cache_policy``
            decides reuse.  Resumed results reload through it.
        journal: Optional checkpoint journal.  Without ``resume`` the
            journal is truncated (a fresh epoch); with it, replayed.
        resume: Skip journal-completed tasks and re-queue in-flight ones.
        policy: Retry/timeout/failure budget (default
            :class:`RetryPolicy`()).
        faults: Optional deterministic fault injection (tests/CI only).
        degrade_after: Worker deaths tolerated before finishing the
            sweep serially in-process.
        shard: Optional ``(index, count)`` partition selector.  Tasks
            are hashed by journal key into ``count`` deterministic
            shards (:func:`~repro.analysis.runtime.journal.shard_of`)
            and only shard ``index`` runs here; ``outcome.results``
            covers just the owned tasks.  Merge the per-shard journals
            with ``repro merge-journals`` and ``--resume`` to fold the
            shards back together.

    Returns:
        A :class:`SweepOutcome`; ``outcome.results`` is in request
        order regardless of completion order, retries, or resume
        (restricted to the owned tasks when ``shard`` is set).

    Raises:
        KeyError: An unknown experiment id (checked before anything runs).
        SweepAborted: Fatal failures exceeded ``policy.max_failures``
            (in serial runs the original exception is re-raised
            instead, annotated with the task).
    """
    if requests is None:
        requests = available_experiments()
    resolved = [
        ExperimentRequest(experiment=r) if isinstance(r, str) else r
        for r in requests
    ]
    for request in resolved:
        get_spec(request.experiment)  # fail fast on unknown ids
    policy = policy or RetryPolicy()
    tasks = []
    for index, request in enumerate(resolved):
        params = request.effective_params()
        digest = ResultCache.key(request.experiment, params)
        tasks.append(
            _Task(
                index=index,
                request=request,
                params=params,
                digest=digest,
                key=Journal.task_key(request.experiment, digest),
            )
        )
    outcome = SweepOutcome()
    if shard is not None:
        index, count = shard
        if not 0 <= index < count:
            raise ValueError(
                f"shard index {index} outside 0..{count - 1}"
            )
        owned = [
            task for task in tasks if shard_of(task.key, count) == index
        ]
        outcome.provenance.append(
            f"shard {index}/{count}: owns {len(owned)} of "
            f"{len(tasks)} task(s)"
        )
        counter("runtime.shard.owned", len(owned))
        tasks = owned
    results: dict[int, ExperimentResult] = {}
    with span("sweep.run", tasks=len(tasks), jobs=jobs, resume=resume):
        _log.info(
            "running sweep",
            extra={
                "count": len(tasks),
                "jobs": jobs,
                "cached": cache is not None,
                "resume": resume,
            },
        )
        replayed: dict[str, JournalEntry] = {}
        if journal is not None:
            if resume:
                replayed = journal.replay()
            else:
                journal.truncate()
        pending: list[_Task] = []
        requeued = 0
        for task in tasks:
            entry = replayed.get(task.key)
            if entry is not None and entry.status == COMPLETED:
                result = _resume_result(entry, task, cache)
                if result is not None:
                    counter("runtime.resume.skipped")
                    outcome.skipped += 1
                    results[task.index] = result
                    continue
            if entry is not None:  # started / retrying / failed: run again
                counter("runtime.resume.requeued")
                requeued += 1
            if (
                cache is not None
                and task.request.cache_policy == "reuse"
                and task.key not in replayed
            ):
                cached = cache.load(task.request.experiment, task.params)
                if cached is not None:
                    results[task.index] = cached
                    continue
            pending.append(task)
        if resume:
            outcome.provenance.append(
                f"resumed: {outcome.skipped} completed task(s) skipped, "
                f"{requeued} in-flight task(s) re-queued, "
                f"{len(pending)} task(s) to run"
            )
        if faults is not None and pending:
            target = faults.target(len(pending))
            if 0 <= target < len(pending):
                pending[target].fault = faults.kind
        if journal is not None:
            journal.record_sweep(tasks=len(tasks), resume=resume)
        runner = _SweepRunner(
            jobs=jobs,
            policy=policy,
            cache=cache,
            journal=journal,
            degrade_after=degrade_after,
        )
        queue = list(pending)
        try:
            if jobs > 1 and len(queue) > 1:
                queue = runner.run_pool(queue, results)
            if queue:
                runner.run_serial(queue, results)
        finally:
            # Merge attempt snapshots in *task* order, not completion
            # order: counters and histograms are associative, but gauges
            # are last-write-wins, so this is what makes `--jobs N`
            # metrics deterministic.  Runs even when the sweep aborts,
            # so completed tasks' metrics survive the exception.
            merge_snapshots_in_task_order(runner.snapshots)
        outcome.failed = runner.failures
        outcome.provenance.extend(runner.provenance)
    outcome.results = [results[task.index] for task in tasks]
    return outcome


_T = TypeVar("_T")
_R = TypeVar("_R")


def _describe(item: Any) -> str:
    description = repr(item)
    if len(description) > 200:
        description = description[:197] + "..."
    return description


def _annotate_failure(
    exc: BaseException, fn: Callable[..., Any], index: int, item: Any
) -> None:
    """Log and annotate a per-item failure with *which* item failed.

    The original exception is re-raised by the caller unchanged (same
    type, same traceback); on Python >= 3.11 it additionally carries an
    ``add_note`` line naming the function, index, and item.
    """
    description = _describe(item)
    _log.error(
        "parallel item failed",
        extra={
            "fn": getattr(fn, "__name__", repr(fn)),
            "index": index,
            "item": description,
            "error": f"{type(exc).__name__}: {exc}",
        },
    )
    if hasattr(exc, "add_note"):
        exc.add_note(
            f"parallel_map: item {index} ({description}) failed under "
            f"{getattr(fn, '__name__', repr(fn))}"
        )


def parallel_map(
    fn: Callable[[_T], _R], items: Iterable[_T], *, jobs: int = 1
) -> list[_R]:
    """``[fn(item) for item in items]``, optionally over a process pool.

    Args:
        fn: A module-level (picklable) function.
        items: Its inputs; results keep this order.
        jobs: Worker processes; ``<= 1`` runs serially in-process (no
            pool, no pickling -- bit-identical to a plain loop).

    Raises:
        WorkerCrash: A worker process died mid-task (OOM kill,
            segfault, ``os._exit``); the message names the first item
            whose result was lost, instead of surfacing an opaque
            ``BrokenProcessPool``.
        Exception: Whatever ``fn`` raised, re-raised as soon as the
            failing item's result is reached (in submission order) and
            annotated with the failing index/item instead of surfacing
            anonymously after the whole pool drains.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        results: list[_R] = []
        for index, item in enumerate(items):
            try:
                results.append(fn(item))
            except Exception as exc:
                _annotate_failure(exc, fn, index, item)
                raise
        return results
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = [pool.submit(fn, item) for item in items]
        results = []
        for index, (item, future) in enumerate(zip(items, futures)):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                crash = WorkerCrash(
                    f"worker process died while running item {index} "
                    f"({_describe(item)}) under "
                    f"{getattr(fn, '__name__', repr(fn))}"
                )
                _annotate_failure(crash, fn, index, item)
                raise crash from exc
            except Exception as exc:
                _annotate_failure(exc, fn, index, item)
                raise
        return results
