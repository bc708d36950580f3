"""Fault-tolerant sweep runtime: checkpoint/resume, retries, timeouts.

The subsystem behind ``repro all --resume`` (see ``docs/ROBUSTNESS.md``
for the guarantees and the journal format):

* :mod:`~repro.analysis.runtime.runner` -- :func:`run_sweep`, the
  process-per-attempt executor with per-task wall-clock timeouts,
  bounded retries, serial degradation, and resume; plus
  :func:`parallel_map`, the plain process-pool map used inside
  experiments.
* :mod:`~repro.analysis.runtime.journal` -- the append-only JSONL
  checkpoint journal a resumed run replays.
* :mod:`~repro.analysis.runtime.retry` -- :class:`RetryPolicy`
  (exponential backoff with seeded jitter, failure budgets).
* :mod:`~repro.analysis.runtime.errors` -- the retryable/fatal error
  taxonomy.
* :mod:`~repro.analysis.runtime.faults` -- deterministic fault
  injection (``raise``/``fatal``/``hang``/``kill`` at the k-th task),
  used by the tests and the CI smoke job to prove all of the above.
* :mod:`~repro.analysis.runtime.cache` -- :class:`ResultCache`, whose
  params-hash digest also keys the journal.
"""

from repro.analysis.runtime.cache import ResultCache
from repro.analysis.runtime.errors import (
    SweepAborted,
    TaskError,
    TaskTimeout,
    WorkerCrash,
    classify_error,
)
from repro.analysis.runtime.faults import FaultPlan
from repro.analysis.runtime.journal import (
    Journal,
    JournalEntry,
    merge_journals,
    parse_shard,
    shard_of,
)
from repro.analysis.runtime.retry import RetryPolicy
from repro.analysis.runtime.runner import (
    SweepOutcome,
    parallel_map,
    run_sweep,
    timed_run,
)

__all__ = [
    "FaultPlan",
    "Journal",
    "JournalEntry",
    "ResultCache",
    "RetryPolicy",
    "SweepAborted",
    "SweepOutcome",
    "TaskError",
    "TaskTimeout",
    "WorkerCrash",
    "classify_error",
    "merge_journals",
    "parallel_map",
    "parse_shard",
    "run_sweep",
    "shard_of",
    "timed_run",
]
