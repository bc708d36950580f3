"""Execute a compiled scenario on the fault-tolerant sweep runtime.

:func:`run_scenario` is the one bridge from *scenario as data* to the
runtime: it applies the scenario's ambient execution options
(telemetry sampling, fast-backend lane budget) as scoped
contexts, builds the retry policy and shard selector, and hands the
compiled requests to :func:`repro.analysis.runtime.run_sweep` under a
``scenario.run`` span -- so a scenario run traces, journals, retries,
resumes, and shards exactly like the equivalent hand-built CLI
invocation.  Both ``repro scenario run`` and the ``repro serve`` job
worker go through here.
"""

from __future__ import annotations

from contextlib import ExitStack

from repro.analysis.runtime.cache import ResultCache
from repro.analysis.runtime.faults import FaultPlan
from repro.analysis.runtime.journal import Journal
from repro.analysis.runtime.runner import SweepOutcome, run_sweep
from repro.obs.logger import get_logger
from repro.obs.metrics import counter
from repro.obs.spans import span
from repro.scenarios.schema import Scenario

_log = get_logger("scenarios.runner")

__all__ = ["run_scenario"]


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
    with ExitStack() as stack:
        every = execution.telemetry_every()
        if every is not None:
            from repro.obs.telemetry import telemetry_enabled

            stack.enter_context(telemetry_enabled(every))
        if execution.max_lane_nodes is not None:
            from repro.simulation.fast import lane_budget_enabled

            stack.enter_context(lane_budget_enabled(execution.max_lane_nodes))
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
            return run_sweep(
                requests,
                jobs=execution.jobs,
                cache=cache,
                journal=journal,
                resume=execution.resume if resume is None else resume,
                policy=execution.retry_policy(),
                faults=faults,
                degrade_after=degrade_after,
                shard=execution.shard_tuple(),
            )
