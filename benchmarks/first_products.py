"""Whether a fresh adjacency's first product should split, end to end.

``CSRAdjacency`` splits a product into row blocks only from its second
product on, so a fresh-topology round, whose adjacency is used once,
runs ``matrix @ x`` as before.  This script times ``flood_times_batch``
on one lane of fresh random trees (a new tree every round, one ``(N,)``
product per round) with that rule (``serial_first``) and with a variant
that splits from the first product on (``split_first``), in alternating
pairs of runs, for lanes near the constant and at flood-fresh's size::

    PYTHONPATH=src python benchmarks/first_products.py

Each run reports the median seconds per flood over ``SECONDS`` of
floods; the pair order alternates.  Prints one JSON object per size:
both medians and quartiles, and in how many pairs ``serial_first`` read
faster.  On one CPU there is nothing to split, and the script says so
and exits 1.
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

#: Lane sizes in nodes: 16,382, 24,574 and 131,070 stored entries.
SIZES = (8192, 12288, 65536)

#: Alternating pairs of runs per size.
PAIRS = 10

#: Seconds of floods per run.
SECONDS = 3.0

_serial_first = csr.CSRAdjacency._product


def _split_first(self: csr.CSRAdjacency, x: np.ndarray) -> np.ndarray:
    """``_product`` with the rows cut on the first product, not the second."""
    if not self._cuts:
        self._cuts = csr._row_cuts(self.matrix)
    if len(self._cuts) > 2 and csr._blockable(x, self.n):
        return csr._blocked_product(self.matrix, self._cuts, x)
    return self.matrix @ x


VARIANTS = {"serial_first": _serial_first, "split_first": _split_first}


def run(n: int, seed: int, variant: str) -> float:
    """Median seconds per flood of fresh ``n``-node trees under ``variant``."""
    csr.CSRAdjacency._product = VARIANTS[variant]
    times = []
    end = time.perf_counter() + SECONDS
    while time.perf_counter() < end:
        lane = RandomConnectedAdversary(
            n, seed=seed * 1000 + len(times), extra_edge_p=0.0
        ).as_dynamic_graph()
        start = time.perf_counter()
        flooding.flood_times_batch([(lane, 0)], max_lane_nodes=n)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 5), round(median, 5), round(q3, 5)]


def main() -> int:
    if csr._WORKERS < 2:
        print("this process may run on one CPU only: no blocks to time", file=sys.stderr)
        return 1
    csr._executor()
    sizes = []
    for n in SIZES:
        pairs = []
        for index in range(PAIRS):
            order = list(VARIANTS) if index % 2 == 0 else list(reversed(VARIANTS))
            pairs.append({variant: run(n, 1 + index, variant) for variant in order})
        sizes.append({
            "n": n,
            "entries": 2 * (n - 1),
            "q1_median_q3_s": {
                variant: _quartiles([pair[variant] for pair in pairs])
                for variant in VARIANTS
            },
            "serial_first_faster_pairs": sum(
                pair["serial_first"] < pair["split_first"] for pair in pairs
            ),
        })
    csr.CSRAdjacency._product = _serial_first
    print(json.dumps({
        "host": f"{platform.machine()} {platform.system()}, {csr._WORKERS} CPUs, "
                f"Python {platform.python_version()}, numpy {np.__version__}, "
                f"scipy {scipy.__version__}",
        "pairs": PAIRS,
        "seconds_per_run": SECONDS,
        "sizes": sizes,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
