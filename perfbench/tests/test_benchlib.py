"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import threading

import pytest

from benchlib import (
    METRIC_NAME,
    Span,
    Tracer,
    calibration_s,
    check_metric_name,
    counter_delta,
    layer_stats,
    load_benchmark,
    load_layer_map,
    percentile,
    self_times,
    tail_percentile,
)

# -- the percentile rule ---------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in range(20, 2000, 7):
        q = tail_percentile(count)
        values = list(range(count))
        assert sum(v > percentile(values, q) for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(ValueError):
        percentile([], 50)


def test_counter_delta_keeps_only_moved_counters():
    before = {"a": 1, "b": 2}
    after = {"a": 1, "b": 5, "c": 1}
    assert counter_delta(before, after) == {"b": 3, "c": 1}


def test_calibration_kernel_takes_measurable_time():
    assert 0 < calibration_s() < 10


# -- self time -------------------------------------------------------------


def _span(id, name, start, end, parent=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent, run=0)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0, "engine", 0.0, 10.0),
        _span(1, "step", 2.0, 6.0, parent=0),
        _span(2, "matvec", 3.0, 5.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {0: pytest.approx(6.0), 1: pytest.approx(2.0), 2: 2.0}


def test_self_time_subtracts_every_sibling():
    spans = [
        _span(0, "engine", 0.0, 10.0),
        _span(1, "sample", 1.0, 2.0, parent=0),
        _span(2, "build", 2.0, 5.0, parent=0),
        _span(3, "sample", 6.0, 7.5, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 1.0 - 3.0 - 1.5)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        _span(0, "submit", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),
        _span(3, "c", 9.0, 12.0, parent=0),
    ]
    # Union of [1,6) and [9,10) inside the parent: 6 seconds covered.
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_layer_stats_sums_self_and_outermost_totals():
    spans = [
        _span(0, "engine", 0.0, 10.0),
        _span(1, "step", 1.0, 3.0, parent=0),
        _span(2, "step", 4.0, 8.0, parent=0),
        _span(3, "matvec", 5.0, 6.0, parent=2),
        _span(4, "mm", 20.0, 30.0),
        _span(5, "mm", 21.0, 22.0, parent=4),
    ]
    stats = layer_stats(spans)
    assert stats["step"]["self"] == pytest.approx(5.0)
    assert stats["step"]["count"] == 2
    assert stats["engine"]["self"] == pytest.approx(4.0)
    # A name nested in itself counts its outermost span only.
    assert stats["mm"]["total"] == pytest.approx(10.0)


def test_tracer_tracks_parents_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    tracer.run = "op"
    outer()
    thread = threading.Thread(target=inner)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["outer"]
    nested, threaded = by_name["inner"]
    assert root.parent is None and nested.parent == root.id
    assert threaded.parent is None
    assert all(span.run == "op" and span.end >= span.start for span in tracer.spans)


# -- declarations ----------------------------------------------------------


def test_metric_names_match_pattern():
    benchmark = load_benchmark()
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
        assert check_metric_name(name) == name
    for bad in ("", "wall s", "p95/ms", "ratio%"):
        with pytest.raises(ValueError):
            check_metric_name(bad)


def test_benchmark_json_follows_its_schema():
    benchmark = load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in benchmark["workloads"]] == [
        "flood-fresh", "gossip-held", "drain-lanes", "zoo-service",
    ]
    bounds = {}
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert metric["better"] in ("lower", "higher")


def test_every_layer_metric_names_what_it_should_move():
    benchmark = load_benchmark()
    layer_map = load_layer_map()
    declared = {m["name"] for m in benchmark["per_layer"]}
    metrics = declared | {m["name"] for m in benchmark["end_to_end"]}
    workloads = {w["name"] for w in benchmark["workloads"]}
    assert set(layer_map) == declared
    for name, entry in layer_map.items():
        assert entry["layer"] and entry["times"] and entry["value"], name
        assert entry["moves"], name
        for move in entry["moves"]:
            assert move["metric"] in metrics, (name, move)
            assert move["workload"] in workloads, (name, move)
