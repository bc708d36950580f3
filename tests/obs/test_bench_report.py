"""Tests for the perfbench record comparison behind ``repro bench-report``."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.obs.bench import compare, load_metrics, load_runs, render_report

ROOT = Path(__file__).resolve().parents[2]
METRICS = load_metrics(ROOT / "BENCHMARK.json")
#: Committed summaries whose ``runs`` carry a parent/change ``side`` tag.
SIDED = (
    "history-solver",
    "fused-lane-build",
    "batched-sampling",
    "zoo-drain-batch",
    "zoo-fused-drains",
    "packed-keys",
    "round-memo",
    "history-view-ids",
    "fewer-knobs",
    "service-nodelay",
    "parallel-products",
    "draw-ahead",
    "philox-rounds",
)


def _write(directory: Path, records: list) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for record in records:
        text = record if isinstance(record, str) else json.dumps(record)
        (directory / f"run{len(list(directory.iterdir()))}.json").write_text(text)


def test_reproduces_committed_summaries(tmp_path):
    triples = pairs = 0
    for name in SIDED:
        committed = json.loads(
            (ROOT / "benchmarks" / "results" / f"perfbench-{name}.json").read_text()
        )
        untraced = [run for run in committed["runs"] if run["trace"] == 0]
        for side in ("parent", "change"):
            _write(tmp_path / name / side, [
                {
                    "workload": run["workload"],
                    "seed": run["seed"],
                    "trace": 0,
                    "end_to_end": run["metrics"],
                    "failed_ratio": run["failed"] / run["attempted"],
                }
                for run in untraced
                if run["side"] == side
            ])
        rows, _ = compare(
            load_runs(tmp_path / name / "parent", METRICS),
            load_runs(tmp_path / name / "change", METRICS),
            METRICS,
        )
        found = {(row["workload"], row["metric"]): row for row in rows}
        for key, summary in committed["summary"].items():
            workload, trace = key.split(" trace=")
            if trace != "0":
                continue
            runs_per_seed = Counter(
                (run["seed"], run["side"]) for run in untraced if run["workload"] == workload
            )
            for metric, expected in summary["metrics"].items():
                row = found[workload, metric]
                for side in ("parent", "change"):
                    assert row[side] == pytest.approx(
                        expected[f"{side}_q1_median_q3"], rel=1e-3
                    ), (name, workload, metric, side)
                    triples += 1
                if set(runs_per_seed.values()) == {1}:
                    assert row["better"] == expected["change_better_pairs"], (
                        name, workload, metric
                    )
                    pairs += 1
    assert (triples, pairs) == (416, 196)


def _run(wall_s: float, seed: int, *, workload: str = "flood-fresh", failed: float = 0.0):
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "end_to_end": {
            "setup_s": 1e-5, "wall_s": wall_s, "throughput_mnr_s": 1.0, "peak_rss_mib": 100.0,
        },
        "failed_ratio": failed,
    }


def _walls(*walls: float) -> list[dict]:
    return [_run(wall, seed) for seed, wall in enumerate(walls, start=1)]


# (parent records, change records, exit status or None for SystemExit,
#  flood-fresh wall_s verdict, text the report must contain)
CASES = {
    "worse-beyond-bound": (
        _walls(1.0, 1.0, 1.0), _walls(1.3, 1.3, 1.3), 1, "worse", "1 worse"
    ),
    "within-bound-ok": (
        _walls(1.0, 1.0, 1.0), _walls(1.2, 1.2, 1.2), 0, "ok", "0/3 seeds"
    ),
    "wide-spread-unresolved": (
        _walls(0.7, 1.0, 1.4), _walls(1.0, 1.0, 1.0), 0, "unresolved", "1 unresolved"
    ),
    "wide-spread-all-better-ok": (
        _walls(0.7, 1.0, 1.4), _walls(0.5, 0.5, 0.5), 0, "ok", "3/3 seeds"
    ),
    "higher-failed-share": (
        _walls(1.0, 1.0, 1.0),
        _walls(1.0, 1.0) + [_run(1.0, 3, failed=0.5)],
        1,
        "ok",
        "1 worse",
    ),
    "traced-ignored": (
        _walls(1.0, 1.0, 1.0) + [{"workload": "flood-fresh", "seed": 1, "trace": 1}],
        _walls(1.0, 1.0, 1.0) + [{"workload": "flood-fresh", "seed": 1, "trace": 1}],
        0,
        "ok",
        "(3 untraced runs)",
    ),
    "one-sided-workload": (
        _walls(1.0, 1.0, 1.0),
        _walls(1.0, 1.0, 1.0) + [_run(9.0, 1, workload="gossip-held")],
        0,
        "ok",
        "not compared, only in change: gossip-held",
    ),
    "malformed-record": (
        _walls(1.0, 1.0, 1.0), _walls(1.0, 1.0, 1.0) + ["{not json"], None, None, "run3.json"
    ),
}


@pytest.mark.parametrize(
    "parent, change, status, verdict, text", CASES.values(), ids=list(CASES)
)
def test_report_cases(tmp_path, parent, change, status, verdict, text):
    _write(tmp_path / "parent", parent)
    _write(tmp_path / "change", change)
    if status is None:
        with pytest.raises(SystemExit, match=text):
            render_report(tmp_path / "parent", tmp_path / "change", METRICS)
        return
    report, code = render_report(tmp_path / "parent", tmp_path / "change", METRICS)
    assert code == status
    assert text in report
    rows, _ = compare(
        load_runs(tmp_path / "parent", METRICS), load_runs(tmp_path / "change", METRICS), METRICS
    )
    assert {row["workload"] for row in rows} == {"flood-fresh"}
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {
        "setup_s": "ok", "wall_s": verdict, "throughput_mnr_s": "ok", "peak_rss_mib": "ok"
    }
    # The other metrics tie on every seed, and ties count for neither side.
    assert [row["better"] for row in rows if row["metric"] != "wall_s"] == [0, 0, 0]
