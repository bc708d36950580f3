"""Break-even sweep for the parallel sparse product of a reused adjacency.

For random trees of ``n`` nodes (``2 (n - 1)`` stored entries) and for
``(N,)`` and ``(N, 2)`` float64 inputs, times three ways to compute
``A @ x``, in microseconds, each the median of many calls made in
turn with the other two (so host drift hits all three alike):

* ``serial_us`` -- ``matrix @ x``, what every product ran before;
* ``blocked_first_us`` -- a fresh adjacency cut into row blocks and
  multiplied once (the cost a one-shot product would pay if it split);
* ``blocked_later_us`` -- a product on an adjacency whose cuts are
  already made, as from its second product on.

Prints one JSON object: the host, the CPUs the blocks use, and one
record per (size, input) cell::

    PYTHONPATH=src python benchmarks/parallel_products.py

``repro.networks.csr.PARALLEL_MIN_ENTRIES`` is where ``blocked_later_us``
first falls below ``serial_us`` for the ``(N, 2)`` input.  Every size is
split into two blocks, the case the constant is stated for, however many
CPUs this process may run on; on one CPU there is nothing to split, and
the script says so and exits 1.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time

import numpy as np
import scipy

from repro.networks import csr
from repro.networks.csr import CSRAdjacency, csr_from_edges
from repro.networks.generators.random_dynamic import random_tree_edges

#: Tree sizes: powers of two, and the midpoints near the cut-off.
SIZES = (1024, 2048, 4096, 6144, 8192, 12288, 16384, 24576, 32768, 65536, 131072)

#: Timed calls per cell and way.
CALLS = 1000


def _median_us(calls: dict, rounds: int) -> dict:
    """Median time per call of each callable, the calls interleaved."""
    times = {name: [] for name in calls}
    for _ in range(rounds):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            times[name].append(time.perf_counter() - start)
    return {
        name: round(statistics.median(spent) * 1e6, 1) for name, spent in times.items()
    }


def measure(n: int, columns: int) -> dict:
    matrix = csr_from_edges(n, *random_tree_edges(n, np.random.default_rng(n))).matrix
    shape = (n,) if columns == 1 else (n, columns)
    x = np.random.default_rng(0).random(shape)
    cuts = csr._row_cuts(matrix)

    def first() -> None:
        fresh = CSRAdjacency(matrix, connected=True)
        csr._blocked_product(fresh.matrix, csr._row_cuts(fresh.matrix), x)

    assert np.array_equal(csr._blocked_product(matrix, cuts, x), matrix @ x)
    medians = _median_us(
        {
            "serial_us": lambda: matrix @ x,
            "blocked_first_us": first,
            "blocked_later_us": lambda: csr._blocked_product(matrix, cuts, x),
        },
        CALLS,
    )
    return {
        "n": n,
        "entries": int(matrix.nnz),
        "input": "(N,)" if columns == 1 else f"(N, {columns})",
        "blocks": len(cuts) - 1,
        **medians,
        "later_speedup": round(medians["serial_us"] / medians["blocked_later_us"], 2),
    }


def main() -> int:
    if csr._WORKERS < 2:
        print("this process may run on one CPU only: no blocks to time", file=sys.stderr)
        return 1
    # Split every size in two, so the sweep also times the ones below
    # the cut-off.
    csr._WORKERS = 2
    csr.PARALLEL_MIN_ENTRIES = 2
    csr._executor()
    cells = [measure(n, columns) for n in SIZES for columns in (1, 2)]
    print(json.dumps({
        "host": f"{platform.machine()} {platform.system()}, {csr._WORKERS} CPUs, "
                f"Python {platform.python_version()}, numpy {np.__version__}, "
                f"scipy {scipy.__version__}",
        "cells": cells,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
