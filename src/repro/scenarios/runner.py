"""Execute requests and scenarios on the fault-tolerant sweep runtime.

:func:`run_requests` is the one place an :class:`ExecutionOptions`
becomes a running sweep: it applies the ambient execution options
(telemetry sampling, fast-backend lane budget) as scoped contexts,
builds the retry policy and shard selector, and hands the requests to
:func:`repro.analysis.runtime.run_sweep`.  ``repro run`` / ``all`` /
``report`` call it directly; :func:`run_scenario` -- the bridge from
*scenario as data* -- validates and compiles a scenario and calls it
under a ``scenario.run`` span, so a scenario run traces, journals,
retries, resumes, and shards exactly like the equivalent command line.
Both ``repro scenario run`` and the ``repro serve`` job worker go
through :func:`run_scenario`.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import replace
from typing import Sequence

from repro.analysis.registry import ExperimentRequest
from repro.analysis.runtime.cache import ResultCache
from repro.analysis.runtime.faults import FaultPlan
from repro.analysis.runtime.journal import Journal
from repro.analysis.runtime.runner import SweepOutcome, run_sweep
from repro.obs.logger import get_logger
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.obs.telemetry import telemetry_enabled
from repro.scenarios.options import ExecutionOptions
from repro.scenarios.schema import Scenario
from repro.simulation.fast import lane_budget_enabled

_log = get_logger("scenarios.runner")

__all__ = ["run_requests", "run_scenario"]


def run_requests(
    requests: Sequence[ExperimentRequest | str],
    execution: ExecutionOptions,
    *,
    cache: ResultCache | None = None,
    journal: Journal | None = None,
    faults: FaultPlan | None = None,
    degrade_after: int = 3,
) -> SweepOutcome:
    """Run ``requests`` as one sweep under ``execution``; returns the outcome.

    Args:
        requests: The sweep's tasks (see :func:`run_sweep`).
        execution: Jobs, resume, retry budget, shard, telemetry period
            and lane budget for the whole sweep.
        cache: Optional result cache; cached results are not re-run.
        journal: Optional checkpoint journal for crash/resume.
        faults: Deterministic fault injection (tests/CI only).
        degrade_after: Worker deaths tolerated before degrading to
            serial (see :func:`run_sweep`).

    Raises:
        SweepAborted: The sweep exceeded its failure budget.
    """
    with ExitStack() as stack:
        every = execution.telemetry_every()
        if every is not None:
            stack.enter_context(telemetry_enabled(every))
        if execution.max_lane_nodes is not None:
            stack.enter_context(lane_budget_enabled(execution.max_lane_nodes))
        return run_sweep(
            requests,
            jobs=execution.jobs,
            cache=cache,
            journal=journal,
            resume=execution.resume,
            policy=execution.retry_policy(),
            faults=faults,
            degrade_after=degrade_after,
            shard=execution.shard_tuple(),
        )


def run_scenario(
    scenario: Scenario,
    *,
    cache: ResultCache | None = None,
    journal: Journal | None = None,
    resume: bool | None = None,
    faults: FaultPlan | None = None,
    degrade_after: int = 3,
) -> SweepOutcome:
    """Validate, compile, and run one scenario; returns the outcome.

    Args:
        scenario: The scenario to execute (validated first -- schema
            violations and non-JSON params fail here, before any
            engine work).
        cache: Optional result cache; the scenario's ``cache_policy``
            decides per-request reuse.
        journal: Optional checkpoint journal for crash/resume.
        resume: Override the scenario's ``execution.resume`` (the CLI
            ``--resume`` flag); ``None`` keeps the scenario's value.
        faults: Deterministic fault injection (tests/CI only).
        degrade_after: Worker deaths tolerated before degrading to
            serial (see :func:`run_sweep`).

    Raises:
        ScenarioError: The scenario fails validation.
        TypeError: A parameter is not JSON-serialisable (the
            :meth:`ResultCache.key` key-naming error).
        SweepAborted: The sweep exceeded its failure budget.
    """
    scenario.validate()
    requests = scenario.compile()
    execution = scenario.execution
    if resume is not None:
        execution = replace(execution, resume=resume)
    counter("scenario.runs")
    with span(
        "scenario.run",
        scenario=scenario.name,
        experiment=scenario.experiment,
        tasks=len(requests),
    ):
        _log.info(
            "running scenario",
            extra={
                "scenario": scenario.name,
                "experiment": scenario.experiment,
                "tasks": len(requests),
                "sweep_jobs": execution.jobs,
            },
        )
        return run_requests(
            requests,
            execution,
            cache=cache,
            journal=journal,
            faults=faults,
            degrade_after=degrade_after,
        )
