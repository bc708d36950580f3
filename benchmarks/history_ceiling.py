"""Measure how far the history-tree counters scale.

Times the Di Luna-Viglietta and Kowalski-Mosteiro (two supervisors)
counters on ``RandomConnectedAdversary(n, seed=5)`` for each size, each
run in its own subprocess under a wall-clock limit, and prints one JSON
list of ``{algorithm, n, seconds, count, output_round}`` records; a run
that hits the limit is recorded as ``"did not finish in T s"``::

    PYTHONPATH=src python benchmarks/history_ceiling.py --sizes 8 16 32 64 --timeout 300

Run it from the root of each checkout to compare two revisions.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

_ONE_RUN = """
import json, sys, time
from repro.core.counting.diluna_viglietta import count_diluna_viglietta
from repro.core.counting.kowalski_mosteiro import count_kowalski_mosteiro
from repro.networks.generators.random_dynamic import RandomConnectedAdversary

algorithm, n = sys.argv[1], int(sys.argv[2])
network = RandomConnectedAdversary(n, seed=5).as_dynamic_graph()
start = time.perf_counter()
if algorithm == "diluna-viglietta":
    outcome = count_diluna_viglietta(network)
else:
    outcome = count_kowalski_mosteiro(network, supervisors=2)
seconds = time.perf_counter() - start
print(json.dumps({"seconds": round(seconds, 3), "count": outcome.count,
                  "output_round": outcome.output_round}))
"""

ALGORITHMS = ("diluna-viglietta", "kowalski-mosteiro")


def measure(algorithm: str, n: int, timeout: float) -> dict:
    record = {"algorithm": algorithm, "n": n}
    try:
        done = subprocess.run(
            [sys.executable, "-c", _ONE_RUN, algorithm, str(n)],
            capture_output=True,
            text=True,
            timeout=timeout,
            check=True,
        )
    except subprocess.TimeoutExpired:
        record["seconds"] = f"did not finish in {timeout:g} s"
        return record
    record.update(json.loads(done.stdout))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32, 64])
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    records = []
    for n in args.sizes:
        for algorithm in ALGORITHMS:
            records.append(measure(algorithm, n, args.timeout))
            print(json.dumps(records[-1]), file=sys.stderr)
    print(json.dumps(records, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
