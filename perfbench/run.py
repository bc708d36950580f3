"""The repro benchmark: one workload per invocation, checked and timed.

Run from the repository root (no install needed; ``src`` is put on the
path from this file's location)::

    python3 perfbench/run.py --workload flood-fresh --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures half of the time untraced and half with every
layer's public callables wrapped (:mod:`tracing`), and reports the
per-layer metrics, including the tracing overhead.  Workloads, metric
names and units are declared in ``BENCHMARK.json``; what each per-layer
metric times and which end-to-end metric it should move is in
``perfbench/layers.json``.

Times in seconds are *host-normalised*: the shared hosts this runs on
drift in speed by tens of percent over seconds to minutes, so a fixed
calibration kernel (:func:`benchlib.calibration_s`) is timed after
every operation and the run's seconds are scaled by
``NOMINAL_CALIBRATION_S`` over the kernel's median time.  The raw
medians are printed and recorded next to them.  Memory, counts, and the cache-served
latencies in milliseconds are raw.

Output: one ``name = value unit`` line per metric, the run's environment
and exact counts, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (and, traced, its spans) is written under ``.perfbench-out/``.  The
exit code is 1 when any output check fails, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchlib import (
    NOMINAL_CALIBRATION_S,
    Tracer,
    calibration_s,
    check_metric_name,
    counter_delta,
    layer_stats,
    load_benchmark,
    median,
    percentile,
    self_times,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Operations per measured phase, at least, whatever ``--seconds`` says.
MIN_OPS = 3
MIN_OPS_PER_HALF = 2
#: Cached resubmissions after the cold jobs (zoo-service): enough to
#: check them untraced, enough for a p95 with 10 samples beyond it in
#: the traced run's untraced half, and enough for per-call medians
#: traced.
CHECK_SAMPLES = 20
TAIL_SAMPLES = 200
TRACED_SAMPLES = 50


@dataclasses.dataclass
class Op:
    """One timed operation."""

    wall_s: float
    output: Any
    counts: dict[str, int]
    run: str
    #: The calibration kernel's time right after the operation.
    calibration_s: float


def host_scale(ops: list[Op]) -> float:
    """Factor from these operations' seconds to host-normalised ones."""
    return NOMINAL_CALIBRATION_S / median([op.calibration_s for op in ops])


def measure(
    workload, seconds: float, min_ops: int, label: str, tracer=None, warmup=0
):
    """Run operations for ``seconds`` (at least ``min_ops``).

    ``warmup`` untimed operations run first, so the allocator and lazy
    imports settle before anything is timed.

    Returns the operations and the last operation's still-live inputs.
    """
    ops: list[Op] = []
    for _ in range(warmup):
        inputs = workload.setup()
        workload.run(inputs)
        workload.teardown(inputs)
        del inputs
        gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        inputs = workload.setup()
        before = workload.counts(inputs)
        run = f"{label}{len(ops)}"
        if tracer is not None:
            tracer.run = run
        start = time.perf_counter()
        output = workload.run(inputs)
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.run = None
        counts = counter_delta(before, workload.counts(inputs))
        ops.append(
            Op(wall_s, output, counts, run, calibration_s())
        )
        if len(ops) >= min_ops and time.perf_counter() >= deadline:
            return ops, inputs
        workload.teardown(inputs)
        del inputs
        # Free the last operation's cyclic garbage now, not inside the
        # next timed call.
        gc.collect()


def time_setups(workload) -> tuple[list[float], float]:
    """Timed set-ups, back to back in batches torn down at once.

    One untimed batch first (the first thread, socket or lazy import of
    a set-up costs more than the rest), then at least two batches, more
    while they take under a quarter second in all.  Returns their times
    and the median calibration time measured just before and after.
    """
    workload.teardown_all(
        [workload.setup() for _ in range(workload.setup_reps)]
    )
    calibrations = [calibration_s() for _ in range(3)]
    times = []
    deadline = time.perf_counter() + 0.25
    while len(times) < 2 * workload.setup_reps or (
        time.perf_counter() < deadline and len(times) < 1000
    ):
        batch = []
        for _ in range(workload.setup_reps):
            start = time.perf_counter()
            batch.append(workload.setup())
            times.append(time.perf_counter() - start)
        workload.teardown_all(batch)
        del batch
    gc.collect()
    calibrations += [calibration_s() for _ in range(3)]
    return times, median(calibrations)


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if done.returncode == 0:
                revision = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "platform": platform.platform(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, setups, setup_calibration, ops: list[Op]) -> dict:
    """End-to-end metrics; every time is host-normalised."""
    scale = host_scale(ops)
    return {
        "setup_s": median(setups) * NOMINAL_CALIBRATION_S / setup_calibration,
        "wall_s": median([op.wall_s for op in ops]) * scale,
        "throughput_mnr_s": median(
            [
                workload.node_rounds(op.output, op.counts) / op.wall_s / 1e6
                for op in ops
            ]
        )
        / scale,
        "peak_rss_mib": peak_rss_mib(),
    }


def per_layer(tracer: Tracer, traced: list[Op], untraced: list[Op], extra: dict):
    """Per-layer metrics: medians over the traced operations.

    Seconds (``*_s``) are host-normalised like the end-to-end times; the
    cache-served latencies (``*_ms``) stay raw, because a network timer,
    not the host's speed, sets them.
    """
    rows = []
    for op in traced:
        stats = layer_stats(tracer.for_run(op.run))

        def self_s(name, stats=stats):
            return stats.get(name, {}).get("self", 0.0)

        def total_s(name, stats=stats):
            return stats.get(name, {}).get("total", 0.0)

        builds = op.counts.get("adjacency.stack_builds", 0)
        hits = op.counts.get("adjacency.stack_hits", 0)
        rows.append(
            {
                "networks.sample_s": self_s("networks.sample"),
                "networks.csr_build_s": self_s("networks.csr_build"),
                "networks.csr_builds": op.counts.get(
                    "adjacency.native_builds", 0
                ),
                "networks.stack_s": self_s("networks.stack"),
                "networks.stack_builds": builds,
                "networks.stack_hit_ratio": (
                    hits / (hits + builds) if hits + builds else 0.0
                ),
                "simulation.matvec_s": self_s("simulation.matvec"),
                "simulation.matvecs": stats.get("simulation.matvec", {}).get(
                    "count", 0
                ),
                "simulation.step_self_s": self_s("simulation.step"),
                "simulation.engine_self_s": self_s("simulation.engine"),
                "simulation.fused_rounds": op.counts.get(
                    "engine.fast.fused_rounds", 0
                ),
                "simulation.node_rounds": stats.get(
                    "simulation.engine", {}
                ).get("work", 0),
                "counting.dv_s": self_s("counting.dv"),
                "counting.km_s": self_s("counting.km"),
                "counting.mm_s": self_s("counting.mm"),
                "counting.cmm_s": self_s("counting.cmm"),
                "counting.history_solve_s": self_s("counting.history_solve"),
                "runtime.sweep_s": total_s("runtime.sweep"),
                "runtime.overhead_s": (
                    total_s("runtime.sweep") - total_s("runtime.experiment")
                ),
            }
        )
    scale = host_scale(traced)
    metrics = {
        name: median([row[name] for row in rows])
        * (scale if name.endswith("_s") else 1)
        for name in rows[0]
    }
    # The cache-served path: per-call medians while traced, latency
    # percentiles from the untraced half.
    cached = tracer.for_run("cached")
    calls = {name: [] for name in ("service.submit", "runtime.cache_get")}
    own = self_times(cached)
    for span in cached:
        if span.name in calls:
            calls[span.name].append(own[span.id])
    for name in calls:
        metrics[f"{name}_s"] = median(calls[name] or [0.0]) * scale
    traced_counts = extra.get("traced", {}).get("counts", {})
    metrics["service.cache_served"] = traced_counts.get("service.cache_served", 0)
    metrics["service.http.requests"] = traced_counts.get(
        "service.http.requests", 0
    )
    latencies = extra.get("untraced", {}).get("latencies", [])
    tail = tail_percentile(len(latencies))
    metrics["cached_submit_p50_ms"] = (
        percentile(latencies, 50) * 1e3 if latencies else 0.0
    )
    metrics["cached_submit_p95_ms"] = (
        percentile(latencies, 95) * 1e3 if tail and tail >= 95 else 0.0
    )
    metrics["cached_submit_samples"] = len(latencies)
    metrics["trace_overhead_ratio"] = (
        median([op.wall_s for op in traced]) * scale
    ) / (median([op.wall_s for op in untraced]) * host_scale(untraced))
    return metrics


def nondeterministic(workload, ops: list[Op]) -> dict[int, str]:
    """Operations whose exact counts differ from the first operation's."""
    def exact(op):
        return {name: op.counts.get(name, 0) for name in workload.exact_counts}

    first = exact(ops[0])
    return {
        index: f"operation {index}: counts {exact(op)} != op 0 {first}"
        for index, op in enumerate(ops)
        if exact(op) != first
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro package under {ROOT}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    benchmark = load_benchmark(ROOT)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import traced
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    env = environment()
    setups, setup_calibration = time_setups(workload)
    extra: dict[str, dict] = {}
    tracer = None
    if args.trace:
        untraced, last = measure(
            workload, args.seconds / 2, MIN_OPS_PER_HALF, "u", warmup=1
        )
        extra["untraced"] = workload.finish(
            last, untraced[-1].output, samples=TAIL_SAMPLES
        )
        del last
        tracer = Tracer()
        with traced(tracer):
            traced_ops, last = measure(
                workload, args.seconds / 2, MIN_OPS_PER_HALF, "t", tracer
            )
            tracer.run = "cached"
            extra["traced"] = workload.finish(
                last, traced_ops[-1].output, samples=TRACED_SAMPLES
            )
            tracer.run = None
            del last
        ops = untraced + traced_ops
    else:
        ops, last = measure(workload, args.seconds, MIN_OPS, "u", warmup=1)
        untraced = ops
        extra["untraced"] = workload.finish(
            last, ops[-1].output, samples=CHECK_SAMPLES
        )
        del last
    e2e = end_to_end(workload, setups, setup_calibration, untraced)

    failures = nondeterministic(workload, ops)
    for index, message in workload.verify([op.output for op in ops]).items():
        failures.setdefault(index, message)
    messages = list(failures.values())
    attempted = len(ops)
    for phase in extra.values():
        messages.extend(phase.get("failures", []))
        attempted += len(phase.get("latencies", []))
    failed = min(len(messages), attempted)

    declared = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[declared]}
    values = (
        per_layer(tracer, traced_ops, untraced, extra) if args.trace else e2e
    )
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: computed metrics {sorted(values)} do not match the "
            f"declared {declared} metrics {sorted(units)}"
        )
    metrics = {
        check_metric_name(name): {
            "value": (
                int(values[name]) if units[name] == "count" else values[name]
            ),
            "unit": units[name],
        }
        for name in units
    }

    all_units = {
        m["name"]: m["unit"]
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in {**e2e, **(values if args.trace else {})}.items():
        print(f"{name} = {value} {all_units[name]}")
    print(f"failed_ratio = {failed / attempted} ratio ({failed}/{attempted})")
    raw = {
        "wall_s": median([op.wall_s for op in untraced]),
        "calibration_s": median([op.calibration_s for op in untraced]),
    }
    print(
        f"raw (not host-normalised): wall_s = {raw['wall_s']} s, "
        f"calibration kernel = {raw['calibration_s']} s "
        f"(nominal {NOMINAL_CALIBRATION_S} s), {len(untraced)} operations"
    )
    print("counts " + json.dumps(ops[0].counts, sort_keys=True))
    for message in messages:
        print(f"FAILED: {message}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "end_to_end": e2e,
        "raw": raw,
        "setup": {"samples": len(setups), "raw_median_s": median(setups),
                  "calibration_s": setup_calibration},
        "failed_ratio": failed / attempted,
        "ops": [
            {"run": op.run, "wall_s": op.wall_s,
             "calibration_s": op.calibration_s, "counts": op.counts}
            for op in ops
        ],
        "failures": messages,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as stream:
            for span in tracer.spans:
                stream.write(json.dumps(dataclasses.asdict(span)) + "\n")

    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not messages else 1


if __name__ == "__main__":
    sys.exit(main())
