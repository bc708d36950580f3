"""Where drawing the next fresh round ahead starts to pay, end to end.

The fast engine draws round ``r + 1``'s edges on a worker thread while
it builds, checks and steps round ``r``, for chunks of fresh-every-round
lanes averaging at least ``fast.DRAW_AHEAD_MIN_LANE_NODES`` nodes.  This
script times ``flood_times_batch`` on fresh random trees with the draw
ahead forced on (``ahead``: the constant set to 1) and off (``inline``:
the constant set past every size), in alternating pairs of runs, for
one lane of 512 to 65,536 nodes and for stacks of several lanes, down
to many tiny ones (each lane seeds its own generator, which holds the
GIL)::

    PYTHONPATH=src python benchmarks/draw_ahead.py

Each run reports the median seconds per flood over ``SECONDS`` of
floods, each flood on new seeds; the pair order alternates.  Prints the
record as JSON: per case both medians and quartiles, and in how many
pairs ``ahead`` read faster.  On one CPU the engine never draws ahead,
and the script says so and exits 1.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time

import numpy as np
import scipy

from repro.core.counting import flooding
from repro.networks import csr
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.simulation import fast

#: ``(lanes, nodes per lane)``: one lane of each size, then stacks of
#: 8,192 to 32,768 nodes in lanes of 8 to 16,384.
CASES = (
    (1, 512),
    (1, 2048),
    (1, 4096),
    (1, 8192),
    (1, 16384),
    (1, 65536),
    (2, 4096),
    (16, 1024),
    (1024, 8),
    (2, 16384),
)

#: Alternating pairs of runs per case.
PAIRS = 10

#: Seconds of floods per run.
SECONDS = 2.0

VARIANTS = {"ahead": 1, "inline": 2**62}


def run(lanes: int, n: int, seed: int, variant: str) -> float:
    """Median seconds per flood of ``lanes`` fresh ``n``-node trees."""
    fast.DRAW_AHEAD_MIN_LANE_NODES = VARIANTS[variant]
    times = []
    end = time.perf_counter() + SECONDS
    while time.perf_counter() < end:
        base = (seed * 1000 + len(times)) * lanes
        jobs = [
            (
                RandomConnectedAdversary(
                    n, seed=base + lane, extra_edge_p=0.0
                ).as_dynamic_graph(),
                0,
            )
            for lane in range(lanes)
        ]
        start = time.perf_counter()
        flooding.flood_times_batch(jobs, max_lane_nodes=lanes * n)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(median, 6), round(q3, 6)]


def main() -> int:
    if csr._WORKERS < 2:
        print("this process may run on one CPU only: it never draws ahead", file=sys.stderr)
        return 1
    threshold = fast.DRAW_AHEAD_MIN_LANE_NODES
    cases = []
    for lanes, n in CASES:
        pairs = []
        for index in range(PAIRS):
            order = list(VARIANTS) if index % 2 == 0 else list(reversed(VARIANTS))
            pairs.append({variant: run(lanes, n, 1 + index, variant) for variant in order})
        medians = {
            variant: statistics.median(pair[variant] for pair in pairs)
            for variant in VARIANTS
        }
        cases.append({
            "lanes": lanes,
            "n": n,
            "nodes": lanes * n,
            "q1_median_q3_s": {
                variant: _quartiles([pair[variant] for pair in pairs])
                for variant in VARIANTS
            },
            "ahead_over_inline": round(medians["ahead"] / medians["inline"], 3),
            "ahead_faster_pairs": sum(pair["ahead"] < pair["inline"] for pair in pairs),
        })
    fast.DRAW_AHEAD_MIN_LANE_NODES = threshold
    print(json.dumps({
        "what": "flood_times_batch on fresh random trees (a new tree per lane every round) "
                "with the next round drawn ahead on a worker thread (ahead) and drawn "
                "inline (inline); the break-even behind fast.DRAW_AHEAD_MIN_LANE_NODES",
        "command": "PYTHONPATH=src python benchmarks/draw_ahead.py",
        "protocol": f"{PAIRS} alternating pairs of {SECONDS:g} s runs per case, ahead first "
                    "on even pairs; each run is the median seconds per flood, every flood "
                    "on new seeds; quartiles by statistics.quantiles (inclusive)",
        "host": f"{platform.machine()} {platform.system()}, {csr._WORKERS} CPUs, "
                f"Python {platform.python_version()}, numpy {np.__version__}, "
                f"scipy {scipy.__version__}",
        "draw_ahead_min_lane_nodes": threshold,
        "cases": cases,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
