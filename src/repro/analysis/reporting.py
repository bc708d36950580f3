"""Markdown reports from experiment results.

Turns :class:`repro.analysis.registry.ExperimentResult` objects into the
Markdown used in ``EXPERIMENTS.md`` (fenced table, notes, check
summary), and can regenerate a full report over every registered
experiment -- the CLI exposes this as ``python -m repro report``.

Reports run through the fault-tolerant runtime
(:func:`repro.analysis.runtime.run_sweep`): they can resume from a
checkpoint journal, retry transient failures, and -- when the run
degraded or resumed -- record that provenance in a closing section, so
a report always says how it was produced.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.analysis.registry import ExperimentRequest, ExperimentResult
from repro.analysis.runtime.cache import ResultCache
from repro.analysis.runtime.faults import FaultPlan
from repro.analysis.runtime.journal import Journal
from repro.analysis.runtime.retry import RetryPolicy
from repro.analysis.runtime.runner import run_sweep
from repro.analysis.tables import render_table

__all__ = ["result_to_markdown", "full_report", "write_report"]


def result_to_markdown(result: ExperimentResult) -> str:
    """Render one experiment result as a Markdown section."""
    lines = [f"## {result.experiment}", "", f"**{result.title}**", ""]
    lines.append("```")
    lines.append(render_table(result.rows, result.headers))
    lines.append("```")
    if result.notes:
        lines.append("")
        lines.extend(f"- {note}" for note in result.notes)
    lines.append("")
    passed = sum(1 for ok in result.checks.values() if ok)
    total = len(result.checks)
    verdict = "PASS" if result.passed else "FAIL"
    lines.append(f"**Checks: {passed}/{total} — {verdict}**")
    if not result.passed:
        lines.append("")
        lines.extend(f"- FAILED: {name}" for name in result.failed_checks())
    lines.append("")
    return "\n".join(lines)


def full_report(
    *,
    experiments: list[str] | None = None,
    requests: Sequence[ExperimentRequest] | None = None,
    title: str = "Experiment report",
    jobs: int = 1,
    cache: ResultCache | str | Path | None = None,
    journal: Journal | None = None,
    resume: bool = False,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    shard: tuple[int, int] | None = None,
) -> str:
    """Run experiments (default: all) and render one Markdown document.

    Args:
        experiments: Restrict to these experiment ids (registry order
            is kept for ``None``); shorthand for default requests.
        requests: Explicit :class:`ExperimentRequest` values (takes
            precedence over ``experiments``).
        title: Heading of the generated document.
        jobs: Worker processes for the runs (see
            :func:`repro.analysis.runtime.run_sweep`); serial by
            default, so a report is bit-identical to ``repro all``.
        cache: A :class:`~repro.analysis.runtime.cache.ResultCache` or
            a cache directory path; cached experiments are not re-run.
        journal: Optional checkpoint journal (see
            ``docs/ROBUSTNESS.md``).
        resume: Replay the journal and skip completed tasks.
        policy: Retry/timeout/failure budget for the run.
        faults: Deterministic fault injection (tests/CI only).
        shard: Optional ``(index, count)`` partition; only the owned
            subset of the sweep runs (and is reported) here -- see
            ``--shard`` in ``docs/PERFORMANCE.md``.

    The rendered document ends with a *Run provenance* section whenever
    the runtime has something to declare (resume, retries exhausted,
    degradation to serial) -- partial-run provenance is part of the
    report, not hidden in logs.
    """
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    if requests is None:
        names = experiments  # None means the full registry
        if names is not None:
            requests = [ExperimentRequest(experiment=name) for name in names]
    outcome = run_sweep(
        requests,
        jobs=jobs,
        cache=cache,
        journal=journal,
        resume=resume,
        policy=policy,
        faults=faults,
        shard=shard,
    )
    sections = [f"# {title}", ""]
    for result in outcome.results:
        sections.append(result_to_markdown(result))
    if outcome.provenance:
        sections.append("## Run provenance")
        sections.append("")
        sections.extend(f"- {line}" for line in outcome.provenance)
        sections.append("")
    sections.append(
        "---\n\nOverall: "
        + (
            "all experiments passed."
            if outcome.passed
            else "FAILURES present."
        )
    )
    return "\n".join(sections)


def write_report(path: str | Path, **kwargs) -> Path:
    """Run :func:`full_report` and write it to ``path``."""
    path = Path(path)
    path.write_text(full_report(**kwargs) + "\n")
    return path
