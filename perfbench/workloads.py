"""The four benchmark workloads.

Each workload builds one operation's inputs from the seed (``setup``),
runs the operation through a public entry point of ``repro`` (``run``,
the timed call), reads the exact counters the operation added
(``counts``), and checks every operation's output against a reference
computed once, after timing (``verify``).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.counting import drain, flooding, gossip
from repro.networks.csr_native import CSRDynamicGraph
from repro.networks.generators.random_dynamic import (
    RandomConnectedAdversary,
    random_tree_edges,
)
from repro.networks.properties import flood_completion_time
from repro.obs.metrics import get_registry
from repro.service.server import ReproService

from benchlib import counter_delta

__all__ = ["WORKLOADS", "Workload"]

#: Registry counters that must repeat exactly across operations of one
#: seed; a counter that moves marks the workload nondeterministic.
ENGINE_COUNTS = (
    "engine.fast.fused_rounds",
    "adjacency.native_builds",
    "adjacency.stack_builds",
    "adjacency.stack_hits",
)


def lane_seed(seed: int, lane: int) -> int:
    """The topology seed of one lane under benchmark seed ``seed``."""
    return seed * 1000 + lane


class Workload:
    """One workload: inputs from a seed, a timed operation, checks."""

    name = ""
    #: Set-ups per batch timed back to back for ``setup_s``.
    setup_reps = 8
    #: Counters that must repeat exactly across operations.
    exact_counts: tuple[str, ...] = ENGINE_COUNTS

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> Any:
        raise NotImplementedError

    def run(self, inputs: Any) -> Any:
        raise NotImplementedError

    def counts(self, inputs: Any) -> dict[str, float]:
        return dict(get_registry().snapshot()["counters"])

    def node_rounds(self, output: Any, counts: dict[str, int]) -> int:
        """Work of one operation in node-rounds (throughput numerator):
        stacked nodes times the fused rounds the engine ran."""
        fused = counts.get("engine.fast.fused_rounds", 0)
        return self.lanes * self.lane_nodes * fused

    def teardown(self, inputs: Any) -> None:
        """Release one operation's inputs (outside every timed region)."""

    def teardown_all(self, many: list[Any]) -> None:
        """Release several operations' inputs."""
        for inputs in many:
            self.teardown(inputs)

    def finish(self, inputs: Any, output: Any, *, samples: int) -> dict:
        """Work after the last operation, on its live inputs and output."""
        self.teardown(inputs)
        return {}

    def verify(self, outputs: list[Any]) -> dict[int, str]:
        """A message per failed operation index (empty when all pass)."""
        raise NotImplementedError


# -- flood-fresh ----------------------------------------------------------


class _Adjacency:
    """One round as neighbour lists: what flood_completion_time reads."""

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray) -> None:
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        self._flat = cols[np.argsort(rows)].tolist()
        self._bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=n)))
        ).tolist()

    def neighbors(self, node: int) -> list[int]:
        return self._flat[self._bounds[node] : self._bounds[node + 1]]


class _AdjacencyView:
    """A lane's topology rebuilt from the same seed for the reference.

    Neighbour lists instead of ``networkx`` graphs keep the reference
    at seconds, not minutes, per run on 65,536-node lanes.
    """

    def __init__(self, adversary: RandomConnectedAdversary) -> None:
        self.n = adversary.n
        self._adversary = adversary

    def at(self, round_no: int) -> _Adjacency:
        return _Adjacency(self.n, *self._adversary.edges(round_no))


class FloodFresh(Workload):
    """Flooding on fresh uniform random trees every round, streamed."""

    name = "flood-fresh"
    lanes = 2
    lane_nodes = 65_536
    #: One lane per chunk: the run streams as two chunks.
    max_lane_nodes = 65_536

    def _adversary(self, lane: int) -> RandomConnectedAdversary:
        return RandomConnectedAdversary(
            self.lane_nodes, seed=lane_seed(self.seed, lane), extra_edge_p=0.0
        )

    def setup(self) -> list:
        return [
            (self._adversary(lane).as_dynamic_graph(), 0)
            for lane in range(self.lanes)
        ]

    def run(self, inputs: list) -> list[int]:
        return flooding.flood_times_batch(
            inputs, max_lane_nodes=self.max_lane_nodes
        )

    def verify(self, outputs: list[list[int]]) -> dict[int, str]:
        reference = [
            flood_completion_time(_AdjacencyView(self._adversary(lane)), 0)
            for lane in range(self.lanes)
        ]
        return {
            index: f"operation {index}: flood rounds {rounds} != {reference}"
            for index, rounds in enumerate(outputs)
            if list(rounds) != reference
        }


# -- gossip-held ----------------------------------------------------------


def _held(round_no: int) -> int:
    return 0


class GossipHeld(Workload):
    """Push-sum for a fixed 100 rounds on held random trees."""

    name = "gossip-held"
    lanes = 2
    lane_nodes = 65_536
    rounds = 100
    #: Budget of the streamed reference run (one lane per chunk).
    reference_lane_nodes = 65_536

    def _specs(self) -> list:
        specs = []
        for lane in range(self.lanes):
            rng = np.random.default_rng([self.seed, lane])
            u, v = random_tree_edges(self.lane_nodes, rng)
            graph = CSRDynamicGraph(
                self.lane_nodes,
                lambda round_no, u=u, v=v: (u, v),
                name=f"held-tree(lane={lane})",
                round_key=_held,
            )
            specs.append((graph, self.lane_nodes))
        return specs

    def setup(self) -> list:
        return self._specs()

    def run(self, inputs: list) -> list[list[float]]:
        return gossip.gossip_size_estimates_batch(inputs, self.rounds)

    def verify(self, outputs: list[list[list[float]]]) -> dict[int, str]:
        reference = gossip.gossip_size_estimates_batch(
            self._specs(),
            self.rounds,
            max_lane_nodes=self.reference_lane_nodes,
        )
        failures = {}
        for index, curves in enumerate(outputs):
            if not all(math.isfinite(x) for curve in curves for x in curve):
                failures[index] = f"operation {index}: non-finite estimate"
            elif curves != reference:
                failures[index] = (
                    f"operation {index}: curves differ from the streamed "
                    f"reference (max_lane_nodes={self.reference_lane_nodes})"
                )
            elif curves != outputs[0]:
                failures[index] = f"operation {index}: curves differ from op 0"
        return failures


# -- drain-lanes ----------------------------------------------------------


class DrainLanes(Workload):
    """Milani-Mosteiro drain counting over many tiny lanes."""

    name = "drain-lanes"
    lanes = 16
    lane_nodes = 8

    def setup(self) -> list:
        return [
            RandomConnectedAdversary(
                self.lane_nodes, seed=lane_seed(self.seed, lane)
            ).as_dynamic_graph()
            for lane in range(self.lanes)
        ]

    def run(self, inputs: list) -> list[int]:
        return [
            outcome.count
            for outcome in drain.count_milani_mosteiro_batch(inputs)
        ]

    def verify(self, outputs: list[list[int]]) -> dict[int, str]:
        return {
            index: f"operation {index}: counts {counts} != n={self.lane_nodes}"
            for index, counts in enumerate(outputs)
            if counts != [self.lane_nodes] * self.lanes
        }


# -- zoo-service ----------------------------------------------------------


class _Connection:
    """One keep-alive HTTP/1.1 connection to the in-process service."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self._conn.close()


def _comparable(results: list[dict]) -> list[dict]:
    """Results without the note a cache hit appends."""
    return [
        {
            **result,
            "notes": [
                note
                for note in result.get("notes", [])
                if not note.startswith("cache: hit")
            ],
        }
        for result in results
    ]


class ZooService(Workload):
    """The upper-vs-lower scenario submitted to an in-process service.

    Each operation starts a fresh service (set-up), submits the scenario
    cold and polls until the result arrives (timed).  After the last
    operation, cached resubmissions on the same connection measure the
    cache-served round trip.
    """

    name = "zoo-service"
    setup_reps = 24
    sizes = (4, 7)
    job_timeout_s = 120
    exact_counts = ENGINE_COUNTS + ("cache.hits", "cache.misses")

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.document = json.dumps(
            {
                "schema_version": 1,
                "name": "upper-vs-lower",
                "experiment": "upper-vs-lower",
                "params": {"sizes": list(self.sizes), "seed": seed},
                "execution": {"backend": "fast", "jobs": 1},
            }
        ).encode()
        self._services = 0

    def setup(self) -> tuple:
        self._services += 1
        state = self.out_dir / f"state-{os.getpid()}-{self._services}"
        service = ReproService(state, port=0).start()
        return service, _Connection(service.host, service.port), state

    def teardown(self, inputs: tuple) -> None:
        service, connection, state = inputs
        connection.close()
        service.close()
        shutil.rmtree(state, ignore_errors=True)

    def teardown_all(self, many: list[tuple]) -> None:
        """Close the services side by side: each close waits up to half a
        second for the server loop to notice."""
        closers = [
            threading.Thread(target=self.teardown, args=(inputs,))
            for inputs in many
        ]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join(timeout=30)

    def counts(self, inputs: tuple) -> dict[str, float]:
        status, payload = inputs[1].request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return payload["counters"]

    def run(self, inputs: tuple) -> dict:
        connection = inputs[1]
        status, submission = connection.request(
            "POST", "/scenarios", self.document
        )
        if status != 202:
            return {"error": f"cold submission answered {status}"}
        job = submission["job"]
        deadline = time.monotonic() + self.job_timeout_s
        while True:
            status, state = connection.request("GET", f"/jobs/{job}")
            if status != 200:
                return {"error": f"GET /jobs/{job} answered {status}"}
            if state["state"] in ("completed", "failed", "cached"):
                break
            if time.monotonic() > deadline:
                return {"error": f"job {job} unfinished after "
                        f"{self.job_timeout_s} s"}
        status, payload = connection.request("GET", f"/jobs/{job}/result")
        if status != 200:
            return {"error": f"GET /jobs/{job}/result answered {status}"}
        return payload

    def node_rounds(self, output: dict, counts) -> int:
        """Node-rounds the counting runs needed: sum of n x rounds."""
        total = 0
        for result in output.get("results", []):
            for row in result["rows"]:
                for header, value in row.items():
                    if header.endswith(" round"):
                        total += row["n"] * (value + 1)
        return total

    def verify(self, outputs: list[dict]) -> dict[int, str]:
        failures = {}
        for index, output in enumerate(outputs):
            if "error" in output:
                failures[index] = f"operation {index}: {output['error']}"
                continue
            failing = [
                name
                for result in output["results"]
                for name, ok in result["checks"].items()
                if not ok
            ]
            if failing or not output.get("passed"):
                failures[index] = f"operation {index}: checks failed {failing}"
            elif self._table(output) != self._table(outputs[0]):
                failures[index] = f"operation {index}: table differs from op 0"
        return failures

    @staticmethod
    def _table(output: dict) -> list:
        return [
            (result["headers"], result["rows"], result["checks"])
            for result in output.get("results", [])
        ]

    def finish(self, inputs: tuple, output: dict, *, samples: int) -> dict:
        """Cached resubmissions on the last operation's connection.

        ``output`` is that operation's cold result.  Returns latencies
        (seconds), failure messages, and the counter deltas over the
        phase.
        """
        connection = inputs[1]
        reference = _comparable(output.get("results", []))
        latencies, failures = [], []
        try:
            before = self.counts(inputs)
            for index in range(samples):
                start = time.perf_counter()
                status, body = connection.request(
                    "POST", "/scenarios", self.document
                )
                latencies.append(time.perf_counter() - start)
                if status != 200 or body.get("state") != "cached":
                    failures.append(
                        f"resubmission {index}: HTTP {status}, "
                        f"state {body.get('state')!r}"
                    )
                elif _comparable(body["results"]) != reference:
                    failures.append(
                        f"resubmission {index}: cached result differs from "
                        "the cold job's result"
                    )
            counts = counter_delta(before, self.counts(inputs))
        finally:
            self.teardown(inputs)
        for name in ("cache.hits", "service.cache_served"):
            if counts.get(name, 0) != samples:
                failures.append(
                    f"cached phase: {name} moved by {counts.get(name, 0)}, "
                    f"expected {samples}"
                )
        return {"latencies": latencies, "failures": failures, "counts": counts}


WORKLOADS = {
    workload.name: workload
    for workload in (FloodFresh, GossipHeld, DrainLanes, ZooService)
}
