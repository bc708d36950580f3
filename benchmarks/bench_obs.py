"""Benchmarks for the observability layer's overhead.

The acceptance bar for the layer is that *default-level* observability
(counters always on, per-round logging gated on ``isEnabledFor``, no
handlers installed) costs < 5% on the instrumented hot paths.  This
suite measures the primitives and an instrumented engine run, and
records the numbers into ``benchmarks/results/observability.txt`` so
regressions are visible across PRs.
"""

from __future__ import annotations

import logging
import time

import networkx as nx
from conftest import run_and_record

from repro.core.counting.flooding import FloodProcess
from repro.networks import DynamicGraph
from repro.obs.logger import get_logger
from repro.obs.metrics import MetricsRegistry, counter, use_registry
from repro.obs.spans import span
from repro.simulation import EngineConfig, SynchronousEngine


def _flooded_run(n: int = 40, rounds: int = 30) -> int:
    processes = [FloodProcess(index == 0) for index in range(n)]
    engine = SynchronousEngine(
        processes,
        DynamicGraph.from_graphs([nx.cycle_graph(n)], extend="hold"),
        leader=None,
        config=EngineConfig(max_rounds=rounds, stop_when="budget"),
    )
    return engine.run().rounds


def test_counter_benchmark(benchmark):
    with use_registry(MetricsRegistry()):
        benchmark(counter, "bench.counter")


def test_span_benchmark(benchmark):
    def traced() -> None:
        with span("bench.span", record_rss=False):
            pass

    with use_registry(MetricsRegistry()):
        benchmark(traced)


def test_engine_run_with_default_observability(benchmark):
    with use_registry(MetricsRegistry()):
        assert benchmark(_flooded_run) == 30


def test_observability_overhead(results_dir):
    """Record primitive costs and debug-logging amplification."""
    reps = 100_000
    with use_registry(MetricsRegistry()):
        start = time.perf_counter()
        for _ in range(reps):
            counter("bench.counter")
        counter_ns = (time.perf_counter() - start) / reps * 1e9

        start = time.perf_counter()
        for _ in range(reps // 10):
            with span("bench.span", record_rss=False):
                pass
        span_us = (time.perf_counter() - start) / (reps // 10) * 1e6

        # Engine run with per-round debug events disabled (the default)
        # vs enabled-but-unhandled (the worst case a --log-level debug
        # user opts into).
        start = time.perf_counter()
        _flooded_run()
        silent = time.perf_counter() - start
        root = get_logger()
        handler = logging.NullHandler()
        root.addHandler(handler)
        root.setLevel(logging.DEBUG)
        try:
            start = time.perf_counter()
            _flooded_run()
            debug = time.perf_counter() - start
        finally:
            root.removeHandler(handler)
            root.setLevel(logging.WARNING)
    (results_dir / "observability.txt").write_text(
        "observability primitive costs\n\n"
        f"counter increment: {counter_ns:.0f} ns\n"
        f"span enter+exit (no RSS): {span_us:.2f} us\n"
        f"engine run (40 nodes, 30 rounds), default logging: {silent:.4f}s\n"
        f"engine run, debug round events enabled: {debug:.4f}s "
        f"({debug / silent:.2f}x)\n"
    )


def test_telemetry_overhead_gate(results_dir):
    """Acceptance: disabled telemetry costs within noise on the engine.

    The disabled path is one ``is not None`` check per round (the
    engine captures :func:`telemetry.active` once per run), so the
    flooding workload must run at the same speed with the subsystem
    merely importable.  Sampling enabled-but-never-firing (a huge
    ``every``) must also stay near-free; ``every=1`` into a discard
    sink is recorded for scale but not gated (it does real work).
    """
    import io

    from repro.obs import telemetry
    from repro.obs.spans import JsonlSink, add_sink, remove_sink

    def timed() -> float:
        start = time.perf_counter()
        _flooded_run()
        return time.perf_counter() - start

    # Interleave the configurations so clock-frequency drift and cache
    # warming hit all three equally; best-of defeats scheduler spikes.
    off = guard_only = every_round = float("inf")
    with use_registry(MetricsRegistry()):
        for _ in range(3):
            _flooded_run()  # warm caches before any timed pass
        sink = JsonlSink(io.StringIO())
        for _ in range(15):
            off = min(off, timed())
            with telemetry.telemetry_enabled(every=10_000_000):
                guard_only = min(guard_only, timed())
            add_sink(sink)
            try:
                with telemetry.telemetry_enabled(every=1):
                    every_round = min(every_round, timed())
            finally:
                remove_sink(sink)

    guard_ratio = guard_only / off
    every_ratio = every_round / off
    with open(results_dir / "observability.txt", "a") as out:
        out.write(
            "\ntelemetry overhead (flooding, 40 nodes, 30 rounds; "
            "interleaved best of 15)\n"
            f"telemetry off:             {off:.4f}s\n"
            f"enabled, never sampling:   {guard_only:.4f}s "
            f"({guard_ratio:.3f}x)\n"
            f"every round into a sink:   {every_round:.4f}s "
            f"({every_ratio:.3f}x)\n"
        )
    # The acceptance bar is <2%; gate at 10% so scheduler noise on a
    # shared CI box cannot flake the build, with the measured ratio
    # recorded above for the humans tracking the real margin.
    assert guard_ratio < 1.10, (
        f"armed-but-not-sampling telemetry cost {guard_ratio:.3f}x "
        f"(off {off:.4f}s, enabled {guard_only:.4f}s)"
    )


def test_instrumented_kernel_experiment(results_dir):
    # The sparse rounds of the kernel-structure experiment now run
    # under sparse.build / sparse.rank spans; the checks must be
    # unaffected by the instrumentation.
    with use_registry(MetricsRegistry()) as registry:
        run_and_record(
            results_dir, "tab-kernel-structure", max_round=4, sparse_max_round=6
        )
    counters = registry.snapshot()["counters"]
    assert counters["sparse.builds"] > 0
    assert registry.snapshot()["histograms"]["span.sparse.rank.s"]["count"] > 0
