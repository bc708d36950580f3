"""Compare two sets of perfbench records: ``repro bench-report PARENT CHANGE``.

``perfbench/run.py`` writes one JSON record per run into its checkout's
``.perfbench-out/``.  This module reads two such directories -- a parent
checkout's and a change's -- and judges the change per workload and
end-to-end metric, with each metric's direction (``better``) and
``bound`` taken from ``BENCHMARK.json``:

* ``worse`` -- the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` -- otherwise, when the parent's interquartile range
  exceeds the bound times its median (too noisy to tell), unless every
  change run beats every parent run;
* ``ok`` -- otherwise.

Only untraced (``trace == 0``) records count, and only their
``workload``, ``seed``, ``end_to_end`` and ``failed_ratio`` keys are
read.  Quartiles interpolate linearly between order statistics (numpy's
default percentile method).  Seeds run on both sides are paired: each
side's per-seed median is compared, and ties count for neither.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import mean, median
from typing import Any, Mapping, Sequence

from repro.analysis.tables import format_value, render_table

__all__ = ["compare", "load_metrics", "load_runs", "render_report"]


def load_metrics(path: str | Path = "BENCHMARK.json") -> list[dict[str, Any]]:
    """The end-to-end metrics (``name``, ``better``, ``bound``) ``path`` declares."""
    try:
        return json.loads(Path(path).read_text())["end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(
            f"{path}: no end_to_end metrics ({exc!r}); run from the repository root"
        ) from exc


def load_runs(
    directory: str | Path, metrics: Sequence[Mapping[str, Any]]
) -> list[dict[str, Any]]:
    """The untraced runs recorded in ``directory``, one flat dict each.

    Raises:
        SystemExit: ``directory`` holds no records, or a malformed one
            (named in the message).
    """
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise SystemExit(f"{directory}: no perfbench records (*.json)")
    runs = []
    for path in paths:
        try:
            record = json.loads(path.read_text())
            if record["trace"] != 0:
                continue
            run = {
                "workload": str(record["workload"]),
                "seed": int(record["seed"]),
                "failed_ratio": float(record["failed_ratio"]),
            }
            for metric in metrics:
                run[metric["name"]] = float(record["end_to_end"][metric["name"]])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"{path}: not a perfbench record ({exc!r})") from exc
        runs.append(run)
    return runs


def _quartiles(values: Sequence[float]) -> list[float]:
    """``[q1, median, q3]`` by linear interpolation between order statistics."""
    ordered = sorted(values)
    top = len(ordered) - 1

    def at(fraction: float) -> float:
        position = fraction * top
        low = int(position)
        high = min(low + 1, top)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return [at(0.25), at(0.5), at(0.75)]


def _better(metric: Mapping[str, Any], a: float, b: float) -> bool:
    """Whether value ``a`` reads strictly better than ``b`` for ``metric``."""
    return a < b if metric["better"] == "lower" else a > b


def _seed_medians(runs: Sequence[Mapping[str, Any]], name: str) -> dict[int, float]:
    by_seed: dict[int, list[float]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(run[name])
    return {seed: median(values) for seed, values in by_seed.items()}


def compare(
    parent: Sequence[Mapping[str, Any]],
    change: Sequence[Mapping[str, Any]],
    metrics: Sequence[Mapping[str, Any]],
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Judge ``change`` against ``parent`` on every workload both ran.

    Returns:
        ``(rows, failed)``: one row per workload and metric (both sides'
        run counts and ``[q1, median, q3]``, ``better`` of ``seeds``
        paired seeds, ``verdict``), and one row per workload with each
        side's mean failed share (``worse`` if the change's is higher).
    """
    rows: list[dict[str, Any]] = []
    failed: list[dict[str, Any]] = []
    workloads = {run["workload"] for run in parent} & {run["workload"] for run in change}
    for workload in sorted(workloads):
        before = [run for run in parent if run["workload"] == workload]
        after = [run for run in change if run["workload"] == workload]
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            old = [run[name] for run in before]
            new = [run[name] for run in after]
            p, c = _quartiles(old), _quartiles(new)
            old_seeds, new_seeds = _seed_medians(before, name), _seed_medians(after, name)
            paired = old_seeds.keys() & new_seeds.keys()
            slack = bound if metric["better"] == "lower" else -bound
            if _better(metric, p[1] * (1 + slack), c[1]):
                verdict = "worse"
            elif p[2] - p[0] > bound * abs(p[1]) and not all(
                _better(metric, a, b) for a in new for b in old
            ):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload,
                "metric": name,
                "parent_runs": len(old),
                "parent": p,
                "change_runs": len(new),
                "change": c,
                "better": sum(_better(metric, new_seeds[s], old_seeds[s]) for s in paired),
                "seeds": len(paired),
                "verdict": verdict,
            })
        old_failed = mean(run["failed_ratio"] for run in before)
        new_failed = mean(run["failed_ratio"] for run in after)
        failed.append({
            "workload": workload,
            "parent": old_failed,
            "change": new_failed,
            "verdict": "worse" if new_failed > old_failed else "ok",
        })
    return rows, failed


def _triple(values: Sequence[float]) -> str:
    return "[" + ", ".join(format_value(value) for value in values) + "]"


def render_report(
    parent_dir: str | Path,
    change_dir: str | Path,
    metrics: Sequence[Mapping[str, Any]],
) -> tuple[str, int]:
    """The ``repro bench-report`` text and exit status.

    The status is 1 when any metric or failed share reads ``worse``.

    Raises:
        SystemExit: A directory is empty or holds a malformed record,
            or no workload has untraced runs on both sides.
    """
    parent = load_runs(parent_dir, metrics)
    change = load_runs(change_dir, metrics)
    rows, failed = compare(parent, change, metrics)
    if not failed:
        raise SystemExit(
            f"no workload has untraced runs in both {parent_dir} and {change_dir}"
        )
    table = [
        {
            "workload": row["workload"],
            "metric": row["metric"],
            "parent runs": row["parent_runs"],
            "parent [q1, median, q3]": _triple(row["parent"]),
            "change runs": row["change_runs"],
            "change [q1, median, q3]": _triple(row["change"]),
            "change better on": f"{row['better']}/{row['seeds']} seeds",
            "verdict": row["verdict"],
        }
        for row in rows
    ]
    sections = [
        f"parent: {parent_dir} ({len(parent)} untraced runs)\n"
        f"change: {change_dir} ({len(change)} untraced runs)",
        render_table(table, title="End-to-end metrics"),
        render_table(
            [
                {"workload": row["workload"], "parent failed share": row["parent"],
                 "change failed share": row["change"], "verdict": row["verdict"]}
                for row in failed
            ],
            title="Failed share",
        ),
    ]
    compared = {row["workload"] for row in failed}
    for side, runs in (("parent", parent), ("change", change)):
        alone = sorted({run["workload"] for run in runs} - compared)
        if alone:
            sections.append(f"not compared, only in {side}: {', '.join(alone)}")
    verdicts = [row["verdict"] for row in rows + failed]
    sections.append(
        ", ".join(f"{verdicts.count(v)} {v}" for v in ("worse", "unresolved", "ok"))
    )
    return "\n\n".join(sections), int("worse" in verdicts)
