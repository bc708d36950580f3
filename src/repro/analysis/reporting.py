"""Markdown reports from experiment results.

Turns :class:`repro.analysis.registry.ExperimentResult` objects into the
Markdown used in ``EXPERIMENTS.md`` (fenced table, notes, check
summary), and renders a whole sweep's :class:`SweepOutcome` as one
document -- the CLI exposes this as ``python -m repro report``.

Rendering runs nothing: the caller runs the sweep (``repro report``
goes through :func:`repro.scenarios.runner.run_requests`, so a report
can resume from a checkpoint journal and retry transient failures), and
when the run degraded or resumed the report records that provenance in
a closing section, so it always says how it was produced.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.registry import ExperimentResult
from repro.analysis.runtime.runner import SweepOutcome
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


def full_report(outcome: SweepOutcome, *, title: str = "Experiment report") -> str:
    """Render a sweep's outcome as one Markdown document.

    Args:
        outcome: The finished sweep (see
            :func:`repro.scenarios.runner.run_requests`); its results
            are rendered in order.
        title: Heading of the generated document.

    The rendered document ends with a *Run provenance* section whenever
    the runtime has something to declare (resume, retries exhausted,
    degradation to serial) -- partial-run provenance is part of the
    report, not hidden in logs.
    """
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


def write_report(
    path: str | Path, outcome: SweepOutcome, *, title: str = "Experiment report"
) -> Path:
    """Write :func:`full_report` of ``outcome`` to ``path``."""
    path = Path(path)
    path.write_text(full_report(outcome, title=title) + "\n")
    return path
