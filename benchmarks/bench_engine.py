"""Object engine vs vectorized fast backend: rounds-vs-n sweep benchmark.

Runs the same flooding and push-sum gossip workloads through both
simulation backends, asserts the outputs are identical, and records the
wall-clock speedups:

* ``benchmarks/results/engine-backend.txt`` -- human-readable table.
* ``benchmarks/results/engine-backend.json`` -- raw measurements.
* ``benchmarks/BENCH_engine.json`` -- the committed baseline; the run
  fails (exit 1) if a floor-checked workload's speedup at the largest
  size drops below the baseline's ``min_speedup`` for the chosen mode.

For static workloads topology construction is hoisted out of the timed
region: sampling a random tree is identical Python work for both
backends, so leaving it in would only dilute the engine comparison.
The fresh-graph-per-round workload *includes* per-round topology work
on purpose -- it is the regime the CSR-native pipeline
(:mod:`repro.networks.csr_native`) exists for, where the fast backend
consumes vectorized edge arrays directly while the object engine builds
a networkx graph per round -- and it is floor-checked like the static
workloads.

Usage::

    python benchmarks/bench_engine.py             # full sweep (n <= 2048)
    python benchmarks/bench_engine.py --quick     # CI smoke (n <= 256)
    python benchmarks/bench_engine.py --only dynamic   # workload filter
    python benchmarks/bench_engine.py --update-baseline

Not a pytest module on purpose: ``make bench-smoke`` invokes it as a
script, so it owns its argument parsing and exit code.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

import trajectory
from repro.analysis.sweep import log_spaced_sizes
from repro.core.counting.flooding import (
    flood_time_via_protocol,
    flood_times_batch,
)
from repro.core.counting.gossip import (
    gossip_size_estimates,
    gossip_size_estimates_batch,
)
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.random_dynamic import (
    RandomConnectedAdversary,
    random_connected_graph,
)

HERE = Path(__file__).parent
BASELINE_PATH = HERE / "BENCH_engine.json"
RESULTS_DIR = HERE / "results"

SEEDS = (3, 5, 11)
GOSSIP_ROUNDS = 30
# One fused execution per chunk of LANE_CHUNK seeds (streamed with
# max_lane_nodes=LANE_CHUNK * n): bounds the stacked matrix while
# amortising the per-round Python overhead across lanes.
LANE_CHUNK = 8

# Random trees (extra_edge_p=0) keep topology sampling O(n); the default
# noise edges would make sampling O(n^2) and swamp the timings at the
# largest sizes.
EXTRA_EDGE_P = 0.0


def _static_network(n: int, seed: int) -> DynamicGraph:
    """A connected random tree held for every round.

    Each call returns a fresh ``DynamicGraph`` so neither backend can
    reuse the other's validation or CSR memo.
    """
    rng = np.random.default_rng([seed, 0])
    tree = random_connected_graph(n, rng, extra_edge_p=EXTRA_EDGE_P)
    return DynamicGraph.from_graphs([tree])


def _dynamic_adversary(n: int, seed: int) -> RandomConnectedAdversary:
    return RandomConnectedAdversary(n, seed=seed, extra_edge_p=EXTRA_EDGE_P)


def bench_flooding_static(sizes: list[int], seeds: tuple[int, ...]) -> list[dict]:
    """Rounds-vs-n flooding sweep on held topologies (engine-bound)."""
    rows = []
    for n in sizes:
        object_nets = [_static_network(n, seed) for seed in seeds]
        fast_nets = [_static_network(n, seed) for seed in seeds]

        start = time.perf_counter()
        object_rounds = [
            flood_time_via_protocol(net, 0) for net in object_nets
        ]
        object_wall = time.perf_counter() - start

        start = time.perf_counter()
        fast_rounds = flood_times_batch(
            [(net, 0) for net in fast_nets], max_lane_nodes=LANE_CHUNK * n
        )
        fast_wall = time.perf_counter() - start

        assert object_rounds == fast_rounds, (
            f"flooding backend divergence at n={n}: "
            f"{object_rounds} != {fast_rounds}"
        )
        rows.append(
            {
                "n": n,
                "runs": len(seeds),
                "rounds": object_rounds,
                "object_s": object_wall,
                "fast_s": fast_wall,
                "speedup": object_wall / fast_wall,
            }
        )
    return rows


def bench_gossip_static(sizes: list[int], seeds: tuple[int, ...]) -> list[dict]:
    """Fixed-budget push-sum sweep on held topologies (engine-bound)."""
    rows = []
    for n in sizes:
        object_nets = [_static_network(n, seed) for seed in seeds]
        fast_nets = [_static_network(n, seed) for seed in seeds]

        start = time.perf_counter()
        object_curves = [
            gossip_size_estimates(net, n, GOSSIP_ROUNDS)
            for net in object_nets
        ]
        object_wall = time.perf_counter() - start

        start = time.perf_counter()
        fast_curves = gossip_size_estimates_batch(
            [(net, n) for net in fast_nets],
            GOSSIP_ROUNDS,
            max_lane_nodes=LANE_CHUNK * n,
        )
        fast_wall = time.perf_counter() - start

        assert np.allclose(object_curves, fast_curves, rtol=1e-9), (
            f"gossip backend divergence at n={n}"
        )
        rows.append(
            {
                "n": n,
                "runs": len(seeds),
                "gossip_rounds": GOSSIP_ROUNDS,
                "object_s": object_wall,
                "fast_s": fast_wall,
                "speedup": object_wall / fast_wall,
            }
        )
    return rows


def bench_flooding_dynamic(
    sizes: list[int], seeds: tuple[int, ...]
) -> list[dict]:
    """Flooding with a fresh random graph every round.

    The headline dynamic workload: every round is a new random tree.
    The object engine builds a networkx graph per round; the fast
    backend consumes the CSR-native edge arrays directly
    (vectorized sampling + direct CSR assembly, no per-round lowering),
    so this regime is floor-checked alongside the static workloads.
    """
    rows = []
    for n in sizes:
        start = time.perf_counter()
        object_rounds = [
            flood_time_via_protocol(
                _dynamic_adversary(n, seed).as_dynamic_graph(), 0
            )
            for seed in seeds
        ]
        object_wall = time.perf_counter() - start

        start = time.perf_counter()
        jobs = [
            (_dynamic_adversary(n, seed).as_dynamic_graph(), 0)
            for seed in seeds
        ]
        fast_rounds = flood_times_batch(jobs, max_lane_nodes=LANE_CHUNK * n)
        fast_wall = time.perf_counter() - start

        assert object_rounds == fast_rounds, (
            f"dynamic flooding backend divergence at n={n}"
        )
        rows.append(
            {
                "n": n,
                "runs": len(seeds),
                "rounds": object_rounds,
                "object_s": object_wall,
                "fast_s": fast_wall,
                "speedup": object_wall / fast_wall,
            }
        )
    return rows


# (name, bench function, floor-checked?)
WORKLOADS = (
    ("flooding rounds-vs-n (static)", bench_flooding_static, True),
    (f"gossip {GOSSIP_ROUNDS} rounds (static)", bench_gossip_static, True),
    ("flooding rounds-vs-n (fresh graph per round)", bench_flooding_dynamic, True),
)


def render(workloads: dict[str, list[dict]], mode: str) -> str:
    lines = [
        f"object engine vs fast backend ({mode} mode, "
        f"{platform.python_implementation()} {platform.python_version()})",
        "",
    ]
    for name, rows in workloads.items():
        lines.append(f"{name}:")
        for row in rows:
            lines.append(
                f"  n={row['n']:>5}  object {row['object_s']:8.3f}s  "
                f"fast {row['fast_s']:8.3f}s  speedup {row['speedup']:6.2f}x"
            )
        lines.append("")
    return "\n".join(lines)


def check_baseline(workloads: dict[str, list[dict]], mode: str) -> int:
    """Compare largest-size speedups against the committed floor."""
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update-baseline")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["min_speedup"][mode]
    checked = {name for name, _, floored in WORKLOADS if floored}
    status = 0
    for name, rows in workloads.items():
        measured = rows[-1]["speedup"]
        if name not in checked:
            print(f"{name}: {measured:.2f}x at n={rows[-1]['n']} (not checked)")
            continue
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"{name}: {measured:.2f}x at n={rows[-1]['n']} "
            f"(floor {floor:.1f}x) {verdict}"
        )
        if measured < floor:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes / fewer seeds; used by `make bench-smoke`",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"record this run's measurements into {BASELINE_PATH.name}",
    )
    parser.add_argument(
        "--only",
        metavar="SUBSTRING",
        help=(
            "run only workloads whose name contains SUBSTRING "
            "(e.g. 'fresh graph' for `make bench-dynamic-smoke`)"
        ),
    )
    args = parser.parse_args(argv)

    selected = WORKLOADS
    if args.only:
        selected = tuple(
            workload for workload in WORKLOADS if args.only in workload[0]
        )
        if not selected:
            names = ", ".join(repr(name) for name, _, _ in WORKLOADS)
            print(f"--only {args.only!r} matches no workload (have: {names})")
            return 2

    mode = "quick" if args.quick else "full"
    if args.quick:
        # Top size 512: large enough that every floor-checked workload
        # (the fresh-graph-per-round one included) clears its floor with
        # a stable margin; 256 left the dynamic check noise-bound.
        sizes = log_spaced_sizes(16, 512, per_decade=2)
        seeds = SEEDS[:2]
    else:
        sizes = log_spaced_sizes(32, 2048, per_decade=2)
        seeds = SEEDS

    sweep_start = time.perf_counter()
    workloads = {
        name: bench(sizes, seeds) for name, bench, _ in selected
    }
    sweep_wall = time.perf_counter() - sweep_start

    table = render(workloads, mode)
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "-only" if args.only else ""
    (RESULTS_DIR / f"engine-backend{suffix}.txt").write_text(table + "\n")
    measurement = {
        "mode": mode,
        "python": platform.python_version(),
        "workloads": workloads,
    }
    (RESULTS_DIR / f"engine-backend{suffix}.json").write_text(
        json.dumps(measurement, indent=1) + "\n"
    )
    if not args.only:
        # Partial sweeps would record misleadingly sparse trajectory
        # entries, so only full workload sets join the history.
        trajectory.append_run(
            mode=mode, workloads=workloads, wall_s=sweep_wall
        )
        print(f"trajectory updated: {trajectory.TRAJECTORY_PATH}")

    if args.update_baseline and args.only:
        print("--update-baseline needs the full workload set; drop --only")
        return 2
    if args.update_baseline:
        baseline = (
            json.loads(BASELINE_PATH.read_text())
            if BASELINE_PATH.exists()
            else {
                "description": (
                    "Fast-backend speedup baseline; bench_engine.py fails "
                    "if a floor-checked workload's largest-size speedup "
                    "drops below min_speedup."
                ),
                "min_speedup": {"quick": 2.0, "full": 5.0},
                "recorded": {},
            }
        )
        baseline["recorded"][mode] = measurement
        BASELINE_PATH.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"baseline updated: {BASELINE_PATH}")

    return check_baseline(workloads, mode)


if __name__ == "__main__":
    sys.exit(main())
