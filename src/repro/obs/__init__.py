"""Structured observability: metrics, spans, event log, profiling.

The repo's entire purpose is *measuring costs* -- rounds against the
``⌊log_3(2|W|+1)⌋ - 1`` lower bound, message counts, certificate
wall-clock -- so measurement itself is a first-class subsystem:

* :mod:`repro.obs.metrics` -- a process-local :class:`MetricsRegistry`
  of counters, gauges, and histograms.  Snapshots are plain dicts and
  registries merge losslessly, so per-worker registries from the
  experiment process pool aggregate into one run-wide view.
* :mod:`repro.obs.spans` -- ``with span("experiment.run", ...):``
  tracing with wall-clock and peak-RSS per span, arbitrary nesting, and
  a JSONL event sink shared with the structured logger.
* :mod:`repro.obs.logger` -- ``logging``-based structured logging under
  the ``repro.*`` namespace (console and/or JSONL).
* :mod:`repro.obs.profiling` -- opt-in :mod:`cProfile` and
  :mod:`tracemalloc` context managers behind ``--profile`` /
  ``--profile-mem``.
* :mod:`repro.obs.stats` -- ``repro stats PATH...``: summarise (and
  merge) metrics snapshots and JSONL event files into tables.
* :mod:`repro.obs.telemetry` -- sampled per-round engine telemetry
  (``--telemetry [every=K]``): informed/terminated counts, traffic,
  and graph size as ``kind: "telemetry"`` JSONL events.
* :mod:`repro.obs.trace` -- trace identity (``trace_id`` / ``span_id``
  / ``parent_id``), cross-process context propagation, and stitching of
  per-worker JSONL files into one ordered span tree (``repro trace``).
* :mod:`repro.obs.bench` -- ``repro bench-report PARENT CHANGE``:
  compare two directories of ``perfbench`` records per workload and
  metric against the bounds in ``BENCHMARK.json``.

Everything is dependency-free stdlib and cheap when idle: counters are
dict increments, spans are two ``perf_counter`` calls, disabled
telemetry is one ``is not None`` check per round, and per-round engine
logging is gated on ``isEnabledFor(DEBUG)``.
"""

from repro.obs.logger import configure_logging, get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    observe,
    use_registry,
)
from repro.obs.profiling import memory_profiled, profiled
from repro.obs.spans import (
    JsonlSink,
    Span,
    add_sink,
    adopt_worker_context,
    emit_event,
    propagation_context,
    remove_sink,
    span,
)
from repro.obs.stats import summarize_stats_file, summarize_stats_files
from repro.obs.telemetry import Telemetry, telemetry_enabled
from repro.obs.trace import StitchedTrace, read_events, render_trace, stitch

__all__ = [
    "JsonlSink",
    "MetricsRegistry",
    "Span",
    "StitchedTrace",
    "Telemetry",
    "add_sink",
    "adopt_worker_context",
    "configure_logging",
    "counter",
    "emit_event",
    "gauge",
    "get_logger",
    "get_registry",
    "memory_profiled",
    "observe",
    "profiled",
    "propagation_context",
    "read_events",
    "remove_sink",
    "render_trace",
    "span",
    "stitch",
    "summarize_stats_file",
    "summarize_stats_files",
    "telemetry_enabled",
    "use_registry",
]
