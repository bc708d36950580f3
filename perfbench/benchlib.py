"""Pure helpers of the benchmark: percentiles, spans, self time, names.

Nothing here imports ``repro``, so the helpers are testable on their
own (``perfbench/tests``) and usable before the package is on the path.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

__all__ = [
    "METRIC_NAME",
    "MIN_TAIL_SAMPLES",
    "Span",
    "NOMINAL_CALIBRATION_S",
    "Tracer",
    "calibration_s",
    "check_metric_name",
    "counter_delta",
    "layer_stats",
    "load_benchmark",
    "load_layer_map",
    "median",
    "percentile",
    "self_times",
    "tail_percentile",
]

HERE = Path(__file__).resolve().parent

#: Every metric name, printed or declared, must match this pattern.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A reported tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: The percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
    return name


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples."""
    # Rounded first so 99.9% of 10,000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with >= 10 samples beyond it.

    With nearest-rank percentiles the ``q``-th percentile of ``count``
    samples is the ``ceil(q/100 * count)``-th smallest, so
    ``count - rank`` samples lie beyond it.  ``None`` when even the
    median has fewer than :data:`MIN_TAIL_SAMPLES` beyond it.
    """
    best = None
    for q in PERCENTILE_LADDER:
        if count - _rank(count, q) >= MIN_TAIL_SAMPLES:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    """The counters that moved between two snapshots, by how much."""
    return {
        name: int(after.get(name, 0) - before.get(name, 0))
        for name in set(before) | set(after)
        if after.get(name, 0) != before.get(name, 0)
    }


# -- host speed -----------------------------------------------------------

#: What :func:`calibration_s` takes on the reference host state; the
#: scale of every host-normalised time.
NOMINAL_CALIBRATION_S = 0.060

_CALIBRATION_DATA = None


def calibration_s() -> float:
    """Wall-clock of a fixed kernel (~60 ms) that mixes what the
    workloads do: an interpreter loop, a large NumPy sort, and many tiny
    NumPy/SciPy calls.

    The benchmark runs on shared hosts whose speed drifts by tens of
    percent over seconds to minutes.  Timing this kernel after every
    operation and scaling a run's times by ``NOMINAL_CALIBRATION_S``
    over the median kernel time cancels most of that drift; the kernel never changes, so a faster or slower program
    still shows in full.
    """
    global _CALIBRATION_DATA
    import numpy as np
    import scipy.sparse as sp

    if _CALIBRATION_DATA is None:
        _CALIBRATION_DATA = np.random.default_rng(0).random(1_000_000)
    small = np.arange(16, dtype=np.int64)
    ones, diagonal = np.ones(4), np.arange(4)
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    np.sort(_CALIBRATION_DATA)
    (_CALIBRATION_DATA * 2.0).sum()
    for _ in range(400):
        np.unique(small * 7 % 5)
        sp.csr_array((ones, (diagonal, diagonal)), shape=(4, 4))
    return time.perf_counter() - start


# -- spans ----------------------------------------------------------------


@dataclass
class Span:
    """One timed call at a layer boundary.

    ``work`` is an optional exact amount of work the call did (the
    engine wrapper stores node-rounds there).
    """

    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    run: Any
    work: int = 0


@dataclass
class Tracer:
    """Keeps spans in memory; parents are tracked per thread.

    ``run`` tags every span opened while it is set, so the spans of one
    benchmark operation can be selected afterwards.
    """

    spans: list[Span] = field(default_factory=list)
    run: Any = None

    def __post_init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        record = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=None,
            parent=stack[-1].id if stack else None,
            run=self.run,
        )
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span ``name``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)

        return traced

    def for_run(self, run: Any) -> list[Span]:
        return [span for span in self.spans if span.run == run]


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result never goes negative and
    never double-subtracts concurrent children.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        if span.end is None:
            continue
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end is not None
        ]
        covered = _covered((a, b) for a, b in clipped if b > a)
        result[span.id] = (span.end - span.start) - covered
    return result


def layer_stats(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``self`` and ``total`` seconds, call ``count``, ``work``.

    ``total`` sums only outermost spans of a name (a name nested in
    itself is not counted twice).
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for span in spans:
        if span.end is None:
            continue
        entry = stats.setdefault(
            span.name, {"self": 0.0, "total": 0.0, "count": 0, "work": 0}
        )
        entry["self"] += own[span.id]
        entry["count"] += 1
        entry["work"] += span.work
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            entry["total"] += span.end - span.start
    return stats


# -- declarations ---------------------------------------------------------


def load_benchmark(root: Path | None = None) -> dict[str, Any]:
    """The repository's ``BENCHMARK.json``."""
    root = root or HERE.parent
    return json.loads((root / "BENCHMARK.json").read_text())


def load_layer_map() -> dict[str, Any]:
    """``layers.json``: what each per-layer metric times and should move."""
    return json.loads((HERE / "layers.json").read_text())
