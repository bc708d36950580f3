"""Streaming lane chunks: chunked == monolithic, bounded memory.

The contract under test (``docs/PERFORMANCE.md``): running a fast-batch
with ``max_lane_nodes`` set must be *indistinguishable* from the
monolithic single-stack run -- same results, same ``engine.*``
counters, same telemetry trajectory -- except in peak memory, which is
bounded by the chunk budget instead of the grid.
"""

from __future__ import annotations

import io
import json
import tracemalloc

import numpy as np
import pytest

from repro.core.counting.flooding import flood_times_batch
from repro.core.counting.gossip import gossip_size_estimates_batch
from repro.core.counting.star import VectorizedStar
from repro.core.counting.token_ids import count_with_ids_batch
from repro.core.dissemination import disseminate_by_flooding_batch
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators import star_network
from repro.networks.generators.random_dynamic import (
    RandomConnectedAdversary,
    random_connected_graph,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import JsonlSink, add_sink, remove_sink
from repro.obs.telemetry import telemetry_enabled
from repro.simulation.engine import EngineConfig
from repro.simulation.errors import TerminationError
from repro.simulation.fast import (
    FastEngine,
    FastLane,
    LaneLayout,
    VectorizedProtocol,
    _LaneBlock,
    active_lane_budget,
    lane_budget_enabled,
    partition_lanes,
)

#: Counters a chunked run must report byte-identically to monolithic.
COUNTERS = (
    "engine.runs",
    "engine.rounds",
    "engine.graphs",
    "engine.messages_sent",
    "engine.messages_delivered",
    "engine.fast.batches",
    "engine.fast.fused_rounds",
)

#: Budgets exercising 1-lane chunks, mid splits, and the monolithic
#: fast path (None) as the reference leg.
BUDGETS = (1, 7, None)

SIZES = (4, 7, 3, 6)

#: Budgets every entry point must refuse: zero, a bool, a
#: non-integral float and a numeric string (``int()`` would take the
#: last three).
INVALID_BUDGETS = (0, True, 2.9, "3")


def _static(n: int, seed: int) -> DynamicGraph:
    graph = random_connected_graph(
        n, np.random.default_rng([seed, 0]), extra_edge_p=0.2
    )
    return DynamicGraph.from_graphs([graph])


def _dynamic(n: int, seed: int) -> DynamicGraph:
    return RandomConnectedAdversary(
        n, seed=seed, extra_edge_p=0.1
    ).as_dynamic_graph()


FAMILIES = {"static": _static, "dynamic-csr": _dynamic}


def _run_instrumented(invoke, budget, *, every=1):
    """Run ``invoke(budget)`` capturing results, counters, telemetry."""
    buffer = io.StringIO()
    sink = add_sink(JsonlSink(buffer))
    registry = MetricsRegistry()
    try:
        with use_registry(registry), telemetry_enabled(every=every):
            value = invoke(budget)
    finally:
        remove_sink(sink)
    snapshot = registry.snapshot()["counters"]
    counters = {name: snapshot.get(name, 0) for name in COUNTERS}
    envelope = ("ts", "kind", "pid", "trace_id", "seq")
    events = [
        {key: event[key] for key in event if key not in envelope}
        for event in map(json.loads, buffer.getvalue().splitlines())
        if event.get("kind") == "telemetry"
    ]
    return value, counters, events


def _assert_equivalent(invoke, *, every=1):
    reference = _run_instrumented(invoke, None, every=every)
    for budget in BUDGETS[:-1]:
        chunked = _run_instrumented(invoke, budget, every=every)
        assert chunked[0] == reference[0], f"results diverged at {budget=}"
        assert chunked[1] == reference[1], f"counters diverged at {budget=}"
        assert chunked[2] == reference[2], f"telemetry diverged at {budget=}"


class TestPartitionLanes:
    def test_no_budget_is_one_chunk(self):
        assert partition_lanes([3, 4, 5], None) == [(0, 3)]

    def test_greedy_packing(self):
        assert partition_lanes([3, 3, 3, 3], 6) == [(0, 2), (2, 4)]
        assert partition_lanes([3, 3, 3], 7) == [(0, 2), (2, 3)]
        assert partition_lanes([1, 1, 1], 1) == [(0, 1), (1, 2), (2, 3)]

    def test_oversized_lane_gets_own_chunk(self):
        assert partition_lanes([10, 2, 2], 4) == [(0, 1), (1, 3)]
        assert partition_lanes([2, 10, 2], 4) == [(0, 1), (1, 2), (2, 3)]

    def test_exhaustive_and_order_preserving(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sizes = [int(s) for s in rng.integers(1, 9, size=rng.integers(1, 12))]
            budget = int(rng.integers(1, 15))
            chunks = partition_lanes(sizes, budget)
            # Contiguous cover of [0, len(sizes)).
            assert chunks[0][0] == 0 and chunks[-1][1] == len(sizes)
            assert all(
                prev[1] == cur[0] for prev, cur in zip(chunks, chunks[1:])
            )
            for start, stop in chunks:
                load = sum(sizes[start:stop])
                assert load <= budget or stop - start == 1

    def test_invalid_budget_rejected(self):
        for budget in INVALID_BUDGETS:
            with pytest.raises(ValueError, match="max_lane_nodes"):
                partition_lanes([1, 2], budget)


class TestChunkedEquivalence:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_flood(self, family):
        make = FAMILIES[family]

        def invoke(budget):
            jobs = [
                (make(n, seed), seed % n)
                for seed, n in enumerate(SIZES, start=3)
            ]
            return flood_times_batch(
                jobs, max_rounds=64, max_lane_nodes=budget
            )

        _assert_equivalent(invoke)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_gossip(self, family):
        make = FAMILIES[family]

        def invoke(budget):
            specs = [
                (make(n, seed), n) for seed, n in enumerate(SIZES, start=5)
            ]
            return gossip_size_estimates_batch(
                specs, 9, max_lane_nodes=budget
            )

        _assert_equivalent(invoke)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_token_ids(self, family):
        make = FAMILIES[family]

        def invoke(budget):
            jobs = [
                (make(n, seed), n + seed % 3)
                for seed, n in enumerate(SIZES, start=7)
            ]
            return [
                (outcome.count, outcome.output_round, outcome.rounds)
                for outcome in count_with_ids_batch(
                    jobs, max_lane_nodes=budget
                )
            ]

        _assert_equivalent(invoke)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_dissemination(self, family):
        make = FAMILIES[family]

        def invoke(budget):
            jobs = [
                (make(n, seed), {0: 0, n - 1: 1, n // 2: 0})
                for seed, n in enumerate(SIZES, start=11)
            ]
            return [
                (result.rounds, result.tokens, result.messages)
                for result in disseminate_by_flooding_batch(
                    jobs, max_rounds=64, max_lane_nodes=budget
                )
            ]

        _assert_equivalent(invoke)

    def test_star(self):
        def invoke(budget):
            lanes = [
                FastLane(star_network(n), n, leader=0) for n in SIZES
            ]
            engine = FastEngine(
                VectorizedStar(),
                lanes,
                config=EngineConfig(max_rounds=4),
                max_lane_nodes=budget,
            )
            return [
                (result.leader_output, result.rounds)
                for result in engine.run()
            ]

        _assert_equivalent(invoke)

    def test_sampled_telemetry_matches(self):
        # Sub-sampled trajectories (every=3) must also merge losslessly:
        # chunk-extension rounds are gated by the same sampler.
        def invoke(budget):
            jobs = [
                (_dynamic(n, seed), 0)
                for seed, n in enumerate(SIZES, start=13)
            ]
            return flood_times_batch(
                jobs, max_rounds=64, max_lane_nodes=budget
            )

        _assert_equivalent(invoke, every=3)

    def test_termination_error_identical(self):
        def invoke(budget):
            jobs = [(_static(n, seed), 0) for seed, n in enumerate((9, 8))]
            with pytest.raises(TerminationError) as excinfo:
                flood_times_batch(jobs, max_rounds=1, max_lane_nodes=budget)
            return str(excinfo.value)

        message, counters, _ = _run_instrumented(invoke, None)
        chunked_message, chunked_counters, _ = _run_instrumented(invoke, 8)
        assert chunked_message == message
        assert "stop criterion 'all' not met within 1 rounds" in message
        assert chunked_counters == counters


class _NoSubsetFlood(VectorizedProtocol):
    """A minimal protocol without chunking support."""

    def allocate(self, layouts):
        self._layouts = list(layouts)
        self.done = np.zeros(layouts[-1].stop, dtype=bool)

    def step(self, round_no, adjacency, active):
        self.done[:] = True
        sending = np.ones(self.done.shape[0], dtype=bool)
        return sending, adjacency.degrees

    def output_mask(self):
        return self.done

    def outputs_for(self, layout: LaneLayout):
        return {index: True for index in range(layout.n)}


class TestNonSubsettableProtocol:
    def _lanes(self):
        return [FastLane(_static(n, n), n, leader=0) for n in (3, 4)]

    def test_multi_chunk_raises_actionable_type_error(self):
        engine = FastEngine(
            _NoSubsetFlood(),
            self._lanes(),
            config=EngineConfig(max_rounds=4),
            max_lane_nodes=4,
        )
        with pytest.raises(TypeError, match="_NoSubsetFlood"):
            engine.run()

    def test_single_chunk_needs_no_subset(self):
        engine = FastEngine(
            _NoSubsetFlood(),
            self._lanes(),
            config=EngineConfig(max_rounds=4),
        )
        assert len(engine.run()) == 2


class TestAmbientBudget:
    def test_context_sets_and_restores(self):
        assert active_lane_budget() is None
        with lane_budget_enabled(5) as budget:
            assert budget == 5
            assert active_lane_budget() == 5
            with lane_budget_enabled(2):
                assert active_lane_budget() == 2
            assert active_lane_budget() == 5
        assert active_lane_budget() is None

    def test_engine_adopts_ambient_budget(self):
        lanes = [FastLane(star_network(3), 3, leader=0) for _ in range(4)]
        with lane_budget_enabled(3):
            engine = FastEngine(
                VectorizedStar(), lanes, config=EngineConfig(max_rounds=4)
            )
        assert engine.max_lane_nodes == 3
        assert len(engine._chunks) == 4

    def test_explicit_budget_wins_over_ambient(self):
        lanes = [FastLane(star_network(3), 3, leader=0) for _ in range(4)]
        with lane_budget_enabled(3):
            engine = FastEngine(
                VectorizedStar(),
                lanes,
                config=EngineConfig(max_rounds=4),
                max_lane_nodes=12,
            )
        assert engine.max_lane_nodes == 12
        assert len(engine._chunks) == 1

    def test_invalid_budget_rejected(self):
        lanes = [FastLane(star_network(3), 3, leader=0)]
        for budget in INVALID_BUDGETS:
            with pytest.raises(ValueError, match="max_lane_nodes"):
                with lane_budget_enabled(budget):
                    pass  # pragma: no cover
            with pytest.raises(ValueError, match="max_lane_nodes"):
                FastEngine(VectorizedStar(), lanes, max_lane_nodes=budget)


class TestMemoryBound:
    def _flood_peak(self, lanes: int, n: int, budget: int | None) -> int:
        jobs = [(_dynamic(n, seed), 0) for seed in range(lanes)]
        tracemalloc.start()
        flood_times_batch(jobs, max_rounds=10_000, max_lane_nodes=budget)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_chunked_peak_below_monolithic(self):
        # A grid whose monolithic stack (4 x 2048 nodes) far exceeds the
        # chunk budget must never allocate it: the chunked peak tracks
        # the budget, not the grid.
        monolithic = self._flood_peak(4, 2048, None)
        chunked = self._flood_peak(4, 2048, 2048)
        assert chunked < 0.75 * monolithic, (
            f"chunked peak {chunked} not meaningfully below monolithic "
            f"{monolithic}"
        )

    def test_peak_tracks_budget_not_grid(self):
        # Doubling the grid under a fixed budget must not double the
        # peak: chunk state is released before the next chunk allocates.
        small_grid = self._flood_peak(4, 1024, 1024)
        big_grid = self._flood_peak(8, 1024, 1024)
        assert big_grid < 1.5 * small_grid, (
            f"peak grew with the grid ({small_grid} -> {big_grid}) "
            f"despite a fixed chunk budget"
        )


class TestDtypePolicy:
    """Overflow promotion at the int32 boundary (ISSUE 8 satellite)."""

    def _block(self, n: int) -> _LaneBlock:
        # Construction alone derives the dtypes; nothing runs, so a
        # 46k-node star lane costs no graph build at all.
        return _LaneBlock(
            [FastLane(star_network(n), n, leader=0)], EngineConfig()
        )

    def test_accumulator_int32_below_square_boundary(self):
        # 46340**2 = 2,147,395,600 < 2**31: delivered-count math still
        # fits int32.
        block = self._block(46340)
        assert block._count_dtype == np.int32
        assert block._acc_dtype == np.int32

    def test_accumulator_promotes_past_square_boundary(self):
        # 46341**2 crosses 2**31: the delivered-count accumulator must
        # promote to int64 while plain node indexing stays int32.
        block = self._block(46341)
        assert block._count_dtype == np.int32
        assert block._acc_dtype == np.int64

    def test_block_rederives_chunk_local_dtypes(self):
        # A chunk re-derives dtypes from its own (smaller) totals, so a
        # block never inherits a promotion the chunk does not need.
        block = _LaneBlock(
            [FastLane(_static(4, seed), 4) for seed in range(3)],
            EngineConfig(),
        )
        assert block._offsets.dtype == np.int32
        assert block._count_dtype == np.int32
        assert block._acc_dtype == np.int32
