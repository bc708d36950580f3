"""Drawing the next fresh round ahead: same runs, no stray draws.

A chunk whose lanes are all drawn fresh every round, stacking at least
``fast.DRAW_AHEAD_MIN_LANE_NODES`` nodes, on a process allowed two or more
CPUs, draws round ``r + 1``'s edges on a worker thread while the engine
runs round ``r`` (``docs/PERFORMANCE.md``, "Drawing the next round
ahead").  These tests force the path on (the constant at 1, two CPUs)
and off (the constant past every stack) and hold the two runs to the
same outputs, rounds, ``engine.*`` counters, telemetry and errors.
"""

from __future__ import annotations

import multiprocessing
import threading

import networkx as nx
import numpy as np
import pytest

from repro.core.counting.drain import count_milani_mosteiro_batch
from repro.core.counting.flooding import flood_times_batch
from repro.core.counting.gossip import gossip_size_estimates_batch
from repro.core.counting.token_ids import count_with_ids_batch
from repro.networks import csr
from repro.networks.csr import csr_from_edges
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.telemetry import telemetry_enabled
from repro.simulation import fast
from repro.simulation.errors import TopologyError
from tests.conftest import events, memory_sink

#: Counters a run must report identically with the path on and off.
COUNTERS = (
    "engine.runs",
    "engine.rounds",
    "engine.graphs",
    "engine.messages_sent",
    "engine.messages_delivered",
    "engine.fast.batches",
    "engine.fast.fused_rounds",
)

SIZES = (9, 14, 9, 11)

#: Budgets: one monolithic stack, and chunks of one or two lanes.
BUDGETS = (None, 16)


@pytest.fixture
def ahead(monkeypatch):
    """Every chunk of fresh lanes draws ahead, whatever the host."""
    monkeypatch.setattr(fast, "DRAW_AHEAD_MIN_LANE_NODES", 1)
    monkeypatch.setattr(csr, "_WORKERS", 2)


def _fresh(n: int, seed: int, *, extra_edge_p: float = 0.1) -> DynamicGraph:
    return RandomConnectedAdversary(
        n, seed=seed, extra_edge_p=extra_edge_p
    ).as_dynamic_graph()


def _fresh_lanes(start: int) -> list[DynamicGraph]:
    return [_fresh(n, seed) for seed, n in enumerate(SIZES, start=start)]


def _instrumented(invoke, *, on: bool, monkeypatch):
    """``invoke()`` with the path on or off: its value (or the error's
    type and message), counters, telemetry, and the rounds drawn ahead."""
    monkeypatch.setattr(fast, "DRAW_AHEAD_MIN_LANE_NODES", 1 if on else 2**62)
    registry = MetricsRegistry()
    with memory_sink() as buffer:
        with use_registry(registry), telemetry_enabled(every=1):
            try:
                value = invoke()
            except Exception as exc:  # noqa: BLE001 - compared below
                value = (type(exc), str(exc))
    snapshot = registry.snapshot()["counters"]
    counters = {name: snapshot.get(name, 0) for name in COUNTERS}
    envelope = ("ts", "kind", "pid", "trace_id", "seq")
    telemetry = [
        {key: event[key] for key in event if key not in envelope}
        for event in events(buffer, "telemetry")
    ]
    drawn = snapshot.get("adjacency.rounds_drawn_ahead", 0)
    return value, counters, telemetry, drawn


def _assert_same(invoke, monkeypatch, *, drawn_ahead: bool = True):
    monkeypatch.setattr(csr, "_WORKERS", 2)
    off = _instrumented(invoke, on=False, monkeypatch=monkeypatch)
    on = _instrumented(invoke, on=True, monkeypatch=monkeypatch)
    assert on[0] == off[0]
    assert on[1] == off[1]
    assert on[2] == off[2]
    assert off[3] == 0
    assert (on[3] > 0) == drawn_ahead
    return on[0]


class TestSameRuns:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_flood(self, monkeypatch, budget):
        def invoke():
            jobs = [(graph, 1) for graph in _fresh_lanes(3)]
            jobs.append((_fresh(12, 99, extra_edge_p=0.0), 0))
            return flood_times_batch(jobs, max_rounds=64, max_lane_nodes=budget)

        _assert_same(invoke, monkeypatch)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_push_sum(self, monkeypatch, budget):
        def invoke():
            specs = [(graph, graph.n) for graph in _fresh_lanes(5)]
            return gossip_size_estimates_batch(specs, 12, max_lane_nodes=budget)

        _assert_same(invoke, monkeypatch)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_milani_mosteiro_drains(self, monkeypatch, budget):
        def invoke():
            return [
                (outcome.count, outcome.output_round, outcome.rounds)
                for outcome in count_milani_mosteiro_batch(
                    _fresh_lanes(7), max_lane_nodes=budget
                )
            ]

        _assert_same(invoke, monkeypatch)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_id_flooding(self, monkeypatch, budget):
        def invoke():
            jobs = [(graph, graph.n + 2) for graph in _fresh_lanes(11)]
            return [
                (outcome.count, outcome.output_round, outcome.rounds)
                for outcome in count_with_ids_batch(jobs, max_lane_nodes=budget)
            ]

        counts = _assert_same(invoke, monkeypatch)
        assert [count for count, _, _ in counts] == list(SIZES)

    def test_a_keyed_lane_keeps_its_chunk_inline(self, monkeypatch):
        held = DynamicGraph.from_graphs([nx.path_graph(8)])

        def invoke():
            jobs = [(held, 0), *[(graph, 0) for graph in _fresh_lanes(13)]]
            return flood_times_batch(jobs, max_rounds=64)

        _assert_same(invoke, monkeypatch, drawn_ahead=False)

    def test_one_cpu_draws_inline(self, monkeypatch):
        monkeypatch.setattr(fast, "DRAW_AHEAD_MIN_LANE_NODES", 1)
        monkeypatch.setattr(csr, "_WORKERS", 1)
        registry = MetricsRegistry()
        with use_registry(registry):
            flood_times_batch([(graph, 0) for graph in _fresh_lanes(17)])
        assert registry.value("adjacency.rounds_drawn_ahead") == 0
        assert registry.value("adjacency.native_builds") > 1


def _draw_counters(invoke) -> tuple[int, int]:
    registry = MetricsRegistry()
    with use_registry(registry):
        invoke()
    counters = registry.snapshot()["counters"]
    return (
        counters.get("adjacency.rounds_drawn_ahead", 0),
        counters.get("adjacency.rounds_dropped_ahead", 0),
    )


class TestDroppedDraws:
    def test_each_chunk_drops_its_last_draw(self, ahead):
        # A lane per chunk: each chunk draws its round 0 inline, takes
        # every later round from a draw made ahead, and throws away the
        # draw of the round after its last.
        graphs = [_fresh(30, seed, extra_edge_p=0.0) for seed in (1, 2)]
        rounds = flood_times_batch([(graph, 0) for graph in graphs])
        drawn, dropped = _draw_counters(
            lambda: flood_times_batch(
                [(graph, 0) for graph in graphs], max_lane_nodes=30
            )
        )
        assert min(rounds) > 1
        assert drawn == sum(rounds) - 2
        assert dropped == 2

    def test_a_run_to_its_budget_drops_nothing(self, ahead):
        # The last budgeted round asks for no round after it.
        specs = [(graph, graph.n) for graph in _fresh_lanes(5)[:2]]
        drawn, dropped = _draw_counters(
            lambda: gossip_size_estimates_batch(specs, 12, max_lane_nodes=16)
        )
        assert (drawn, dropped) == (2 * 11, 0)


class _Refusing:
    """A fresh lane whose provider raises at one round."""

    def __init__(self, n: int, seed: int, refuse_at: int) -> None:
        self.adversary = RandomConnectedAdversary(n, seed=seed, extra_edge_p=0.0)
        self.refuse_at = refuse_at
        self.started = threading.Event()

    def __call__(self, round_no: int):
        if round_no == self.refuse_at:
            self.started.set()
            raise ValueError(f"no graph for round {round_no}")
        return self.adversary.edges(round_no)


def _flood_time(n: int, seed: int) -> int:
    return flood_times_batch([(_fresh(n, seed, extra_edge_p=0.0), 0)])[0]


def _build_waits(monkeypatch, started: threading.Event, round_no: int) -> None:
    """Round ``round_no``'s stack build waits until ``started`` is set.

    The next round's draw is submitted before this round's build, so a
    draw that ``started`` marks cannot be cancelled before it runs.
    """
    build = fast.csr_from_lane_edges
    built = []

    def waiting(sizes, edges):
        if len(built) == round_no:
            assert started.wait(60), "the next round was never drawn"
        built.append(sizes)
        return build(sizes, edges)

    monkeypatch.setattr(fast, "csr_from_lane_edges", waiting)


class TestErrors:
    def test_provider_error_raises_at_the_same_round(self, monkeypatch):
        def invoke():
            graphs = [
                _fresh(10, 1, extra_edge_p=0.0),
                DynamicGraph(30, _Refusing(30, 2, refuse_at=2)),
            ]
            return flood_times_batch([(graph, 0) for graph in graphs])

        error = _assert_same(invoke, monkeypatch)
        assert error == (ValueError, "no graph for round 2")

    def test_error_in_an_unused_round_is_never_raised(self, monkeypatch, ahead):
        rounds = _flood_time(40, 3)
        provider = _Refusing(40, 3, refuse_at=rounds)
        _build_waits(monkeypatch, provider.started, rounds - 1)
        graph = DynamicGraph(40, provider)
        assert flood_times_batch([(graph, 0)]) == [rounds]
        assert provider.started.is_set()

    def test_strict_prefix_is_never_asked_past_its_prefix(self, monkeypatch):
        rounds = _flood_time(40, 4)
        adversary = RandomConnectedAdversary(40, seed=4, extra_edge_p=0.0)
        prefix = []
        for round_no in range(rounds):
            u, v = adversary.edges(round_no)
            prefix.append(nx.Graph(zip(u.tolist(), v.tolist())))
        strict = DynamicGraph.from_graphs(prefix, extend="strict")
        with pytest.raises(TopologyError, match="extend='strict'"):
            strict.round_key(rounds)
        # Record every key asked for: an error on a draw thread would
        # be dropped unseen.
        asked = []
        round_key = strict._round_key
        strict._round_key = lambda round_no: asked.append(round_no) or round_key(
            round_no
        )

        def invoke():
            return flood_times_batch([(strict, 0)])

        assert _assert_same(invoke, monkeypatch, drawn_ahead=False) == [rounds]
        assert max(asked) == rounds - 1


def _in_thread(target) -> tuple[threading.Thread, dict]:
    outcome: dict = {}

    def run():
        try:
            outcome["value"] = target()
        except Exception as exc:  # noqa: BLE001 - the caller checks it
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class _Blocking:
    """A fresh lane whose draw of one round waits for an event; an
    optional earlier round is disconnected, so the run raises there."""

    def __init__(self, n: int, seed: int, block_at: int, split_at=None):
        self.adversary = RandomConnectedAdversary(n, seed=seed, extra_edge_p=0.0)
        self.block_at, self.split_at = block_at, split_at
        self.started, self.release = threading.Event(), threading.Event()

    def __call__(self, round_no: int):
        if round_no == self.block_at:
            self.started.set()
            assert self.release.wait(60)
        u, v = self.adversary.edges(round_no)
        if round_no == self.split_at:
            keep = (u != 0) & (v != 0)
            return u[keep], v[keep]
        return u, v


class TestNoDrawOutlivesARun:
    @pytest.mark.parametrize("raises", [False, True])
    def test_run_waits_for_the_draw_ahead(self, monkeypatch, ahead, raises):
        rounds = _flood_time(40, 5)
        assert rounds > 3
        provider = (
            _Blocking(40, 5, block_at=3, split_at=2)
            if raises
            else _Blocking(40, 5, block_at=rounds)
        )
        _build_waits(monkeypatch, provider.started, provider.block_at - 1)
        graph = DynamicGraph(40, provider)
        thread, outcome = _in_thread(lambda: flood_times_batch([(graph, 0)]))
        assert provider.started.wait(60)
        thread.join(0.3)
        assert thread.is_alive(), "the run ended with its draw still running"
        provider.release.set()
        thread.join(60)
        assert not thread.is_alive()
        if raises:
            assert isinstance(outcome["error"], TopologyError)
            assert "round 2: lane 0 graph is disconnected" in str(outcome["error"])
        else:
            assert outcome == {"value": [rounds]}


def _child_floods(send) -> None:
    send.send(flood_times_batch([(graph, 0) for graph in _fresh_lanes(19)]))
    send.close()


def test_forked_child_draws_ahead(ahead):
    """A child forked after the draw pool ran still gets its draws."""
    registry = MetricsRegistry()
    with use_registry(registry):
        parent = flood_times_batch([(graph, 0) for graph in _fresh_lanes(19)])
    assert registry.value("adjacency.rounds_drawn_ahead") > 0
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child_floods, args=(send,), daemon=True)
    child.start()
    send.close()
    try:
        assert receive.poll(60), "forked child hung on a draw ahead"
        assert receive.recv() == parent
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def test_provider_running_a_blocked_product_does_not_deadlock(
    monkeypatch, ahead
):
    """The draw has its own thread: on the product pool, whose only
    thread would run the draw, the provider's product would wait on
    itself."""
    monkeypatch.setattr(csr, "PARALLEL_MIN_ENTRIES", 2)
    monkeypatch.setattr(csr, "_pools", {})
    adversary = RandomConnectedAdversary(60, seed=6, extra_edge_p=0.0)
    products = []

    def provider(round_no: int):
        u, v = adversary.edges(round_no)
        adjacency = csr_from_edges(60, u, v)
        ones = np.ones(60)
        adjacency.matvec(ones)
        products.append(adjacency.matvec(ones).sum())
        return u, v

    graph = DynamicGraph(60, provider)
    thread, outcome = _in_thread(lambda: flood_times_batch([(graph, 0)]))
    thread.join(60)
    assert not thread.is_alive(), "a provider's blocked product deadlocked"
    assert outcome == {"value": [_flood_time(60, 6)]}
    assert products and all(total == 2 * 59 for total in products)


def test_provider_running_a_draw_ahead_batch_does_not_deadlock(ahead):
    """A batch run on the draw thread draws inline: the draw pool's only
    thread would otherwise wait on its own task."""
    adversary = RandomConnectedAdversary(30, seed=8, extra_edge_p=0.0)
    inner = []

    def provider(round_no: int):
        inner.append(_flood_time(20, round_no))
        return adversary.edges(round_no)

    graph = DynamicGraph(30, provider)
    thread, outcome = _in_thread(lambda: flood_times_batch([(graph, 0)]))
    thread.join(60)
    assert not thread.is_alive(), "a provider's own batch deadlocked"
    assert outcome == {"value": [_flood_time(30, 8)]}
    assert inner == [_flood_time(20, round_no) for round_no in range(len(inner))]
