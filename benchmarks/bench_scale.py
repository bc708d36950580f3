"""Streaming mega-scale bench: memory-bounded lane chunking at 10^6 nodes.

Where ``bench_engine.py`` measures the fast backend *against the object
engine*, this bench measures the fast backend *against the machine*: it
runs one chunked flooding invocation per grid row with a fixed
``max_lane_nodes`` budget and records wall-clock and peak RSS as the
total node count grows past what a monolithic block-diagonal stack
would want to allocate.  The headline full-mode row simulates
``8 x 131072 = 1,048,576`` nodes in ONE ``flood_times_batch`` call
streamed through four 262144-node chunks.

Full mode writes its per-row measurements (wall-clock, peak RSS and
``throughput_mnr_s`` in Mnode-rounds/s) to
``benchmarks/results/scale.json``.

Quick mode (``--quick``, used by ``make bench-scale-smoke``) shrinks
the grid and *proves the memory bound* instead of chasing scale: it
runs the same grid monolithically and chunked under ``tracemalloc``
and asserts the chunked peak stays well below the monolithic peak (and
below an absolute per-chunk byte budget), with identical results.  It
only prints: nothing under ``benchmarks/`` changes.

Peak RSS is process-lifetime-monotone (``getrusage``), so rows run in
ascending size order and each row's ``peak_rss_mib`` reads "peak so
far" -- the last row is the run's true peak.

Not a pytest module on purpose: ``make bench-scale-smoke`` invokes it
as a script, so it owns its argument parsing and exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

from repro.core.counting.flooding import flood_times_batch
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.obs.spans import peak_rss_mib
from repro.simulation.fast import partition_lanes

HERE = Path(__file__).parent
RESULTS_DIR = HERE / "results"

# Random trees (extra_edge_p=0) keep per-round topology sampling O(n);
# noise edges would swamp the engine at the largest sizes.
EXTRA_EDGE_P = 0.0
MAX_ROUNDS = 10_000

#: Full mode: 8 lanes per row, fixed chunk budget, ascending totals up
#: to 2**20 stacked nodes (1, 2, then 4 chunks).
FULL_LANES = 8
FULL_SIZES = (32_768, 65_536, 131_072)
FULL_BUDGET = 262_144

#: Quick mode: the same shape in miniature (4 chunks at the top row).
QUICK_LANES = 4
QUICK_SIZES = (1_024, 4_096)
QUICK_BUDGET = 4_096

#: Quick-mode absolute allocation ceiling per stacked node in a chunk.
#: The engine's working set per chunk is a handful of float64/int
#: vectors plus the CSR round matrices (~2 edges per tree node); 2000
#: bytes/node is an order-of-magnitude slack above that, tight enough
#: to catch an accidental full-grid allocation (which would blow the
#: budget by the chunk count).
QUICK_BYTES_PER_NODE = 2_000
QUICK_BYTES_OVERHEAD = 8 * 2**20


def _jobs(n: int, lanes: int) -> list[tuple]:
    return [
        (
            RandomConnectedAdversary(
                n, seed=seed, extra_edge_p=EXTRA_EDGE_P
            ).as_dynamic_graph(),
            0,
        )
        for seed in range(lanes)
    ]


def bench_scale(
    sizes: tuple[int, ...], lanes: int, budget: int
) -> list[dict]:
    """One chunked flooding invocation per row, ascending totals."""
    rows = []
    for n in sizes:
        total = n * lanes
        chunks = len(partition_lanes([n] * lanes, budget))
        jobs = _jobs(n, lanes)
        start = time.perf_counter()
        rounds = flood_times_batch(
            jobs, max_rounds=MAX_ROUNDS, max_lane_nodes=budget
        )
        wall = time.perf_counter() - start
        rss = peak_rss_mib()
        node_rounds = total * max(rounds)
        rows.append(
            {
                "n": total,
                "lane_nodes": n,
                "runs": lanes,
                "max_lane_nodes": budget,
                "chunks": chunks,
                "rounds": max(rounds),
                "fast_s": round(wall, 3),
                "peak_rss_mib": rss and round(rss, 1),
                "throughput_mnr_s": round(node_rounds / wall / 1e6, 3),
            }
        )
        print(
            f"  total={total:>9,}  lanes={lanes}  budget={budget:,}  "
            f"chunks={chunks}  rounds={max(rounds):>3}  "
            f"wall {wall:7.2f}s  peak RSS "
            f"{rss and round(rss, 1)} MiB"
        )
    return rows


def prove_memory_bound(n: int, lanes: int, budget: int) -> None:
    """Quick mode's teeth: chunked peak allocation << monolithic peak."""
    chunks = len(partition_lanes([n] * lanes, budget))
    assert chunks > 1, "smoke grid must actually chunk"

    def _measure(max_lane_nodes):
        jobs = _jobs(n, lanes)
        tracemalloc.start()
        rounds = flood_times_batch(
            jobs, max_rounds=MAX_ROUNDS, max_lane_nodes=max_lane_nodes
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return rounds, peak

    mono_rounds, mono_peak = _measure(None)
    chunk_rounds, chunk_peak = _measure(budget)
    assert chunk_rounds == mono_rounds, (
        f"chunked flooding diverged: {chunk_rounds} != {mono_rounds}"
    )
    ceiling = budget * QUICK_BYTES_PER_NODE + QUICK_BYTES_OVERHEAD
    print(
        f"  memory bound: monolithic peak {mono_peak / 2**20:.1f} MiB, "
        f"chunked peak {chunk_peak / 2**20:.1f} MiB "
        f"({chunks} chunks, ceiling {ceiling / 2**20:.1f} MiB)"
    )
    assert chunk_peak < 0.7 * mono_peak, (
        f"chunked peak {chunk_peak} not meaningfully below monolithic "
        f"{mono_peak}; is the budget being ignored?"
    )
    assert chunk_peak < ceiling, (
        f"chunked peak {chunk_peak} exceeds the per-chunk allocation "
        f"ceiling {ceiling}; a grid-sized array is leaking into the "
        f"chunked path"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "small grid + tracemalloc memory-bound proof; used by "
            "`make bench-scale-smoke` (prints only, writes no file)"
        ),
    )
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else "full"
    if args.quick:
        sizes, lanes, budget = QUICK_SIZES, QUICK_LANES, QUICK_BUDGET
    else:
        sizes, lanes, budget = FULL_SIZES, FULL_LANES, FULL_BUDGET

    print(f"streaming scale bench ({mode} mode):")
    rows = bench_scale(sizes, lanes, budget)
    if args.quick:
        prove_memory_bound(QUICK_SIZES[-1], QUICK_LANES, QUICK_BUDGET)
        return 0

    assert rows[-1]["n"] >= 10**6, (
        "full mode must simulate at least 10^6 stacked nodes"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "scale.json").write_text(
        json.dumps({"mode": mode, "rows": rows}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
