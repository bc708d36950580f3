"""Tests for fused mixed-kind drain batches.

:func:`repro.core.counting.drain.count_drain_batch` runs Milani-Mosteiro
(doubling) and Chakraborty-Milani-Mosteiro (incremental) lanes in one
fast engine run.  Each lane keeps its own kind's phase schedule and
round budget, so the oracle is the one-kind batch: every outcome, detail
included, and the per-lane ``engine.*`` counters must come out as the
per-kind batches give them, in any lane order and under chunking.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.counting import drain
from repro.core.counting.drain import (
    count_chakraborty_mm_batch,
    count_drain_batch,
    count_milani_mosteiro_batch,
)
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.markov import edge_markov_network
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.networks.generators.t_interval import t_interval_network
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.simulation.errors import TerminationError
from repro.simulation.fast import partition_lanes

PER_KIND = {
    "doubling": count_milani_mosteiro_batch,
    "incremental": count_chakraborty_mm_batch,
}

#: (family, n, seed) of the networks the batches run on.
SPECS = (
    ("random", 3, 1),
    ("markov", 4, 2),
    ("t-interval", 5, 3),
    ("random", 2, 4),
)


def build(spec) -> DynamicGraph:
    family, n, seed = spec
    if family == "random":
        return RandomConnectedAdversary(n, seed=seed).as_dynamic_graph()
    if family == "markov":
        return edge_markov_network(n, seed=seed)
    return t_interval_network(n, 2, seed=seed)


def run_counted(fn, *args, **kwargs):
    """``fn``'s result and the per-lane ``engine.*`` counters it adds."""
    registry = MetricsRegistry()
    with use_registry(registry):
        result = fn(*args, **kwargs)
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("engine.") and not name.startswith("engine.fast")
    }
    return result, Counter(counters)


def per_kind(lanes, **kwargs):
    """The oracle: one one-kind batch per kind, lane order kept."""
    outcomes = [None] * len(lanes)
    counters: Counter = Counter()
    for kind, batch in PER_KIND.items():
        indices = [i for i, (_spec, of) in enumerate(lanes) if of == kind]
        if not indices:
            continue
        result, added = run_counted(
            batch, [build(lanes[i][0]) for i in indices], **kwargs
        )
        counters.update(added)
        for index, outcome in zip(indices, result):
            outcomes[index] = outcome
    return outcomes, counters


def fused(lanes, *, shared=True, **kwargs):
    """The fused batch; with ``shared`` both kinds read one network
    object per spec, as the zoo does."""
    networks = {}
    graphs = [
        networks.setdefault(spec, build(spec)) if shared else build(spec)
        for spec, _kind in lanes
    ]
    return run_counted(
        count_drain_batch, graphs, [kind for _spec, kind in lanes], **kwargs
    )


def both_kinds(specs):
    return [(spec, kind) for kind in PER_KIND for spec in specs]


def interleaved(specs):
    return [(spec, kind) for spec in specs for kind in PER_KIND]


def shuffled(specs, seed):
    lanes = both_kinds(specs)
    random.Random(seed).shuffle(lanes)
    return lanes


ORDERS = {
    "grouped": both_kinds(SPECS),
    "interleaved": interleaved(SPECS),
    "reversed": both_kinds(SPECS)[::-1],
    "shuffled": shuffled(SPECS, 7),
    "uneven": [
        (SPECS[0], "incremental"),
        (SPECS[1], "doubling"),
        (SPECS[2], "doubling"),
        (SPECS[3], "incremental"),
        (SPECS[1], "incremental"),
    ],
}


class TestMixedEqualsPerKind:
    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_outcomes_and_counters(self, order):
        lanes = ORDERS[order]
        expected, expected_counters = per_kind(lanes)
        outcomes, counters = fused(lanes)
        assert outcomes == expected
        assert counters == expected_counters
        assert [outcome.algorithm for outcome in outcomes] == [
            "milani-mosteiro" if kind == "doubling"
            else "chakraborty-milani-mosteiro"
            for _spec, kind in lanes
        ]

    def test_separate_network_objects_agree(self):
        lanes = ORDERS["interleaved"]
        assert fused(lanes, shared=False) == fused(lanes)

    def test_one_kind_call_is_the_kind_batch(self):
        graphs = [build(spec) for spec in SPECS]
        assert count_drain_batch(
            graphs, ["incremental"] * len(graphs)
        ) == count_chakraborty_mm_batch([build(spec) for spec in SPECS])

    def test_one_engine_run_lasts_as_long_as_the_slower_kind(self):
        lanes = interleaved(SPECS[:1])  # n = 3: MM and CMM both 32 rounds
        lanes += interleaved(SPECS[2:3])  # n = 5: MM 74, CMM 104 rounds
        registry = MetricsRegistry()
        with use_registry(registry):
            outcomes = count_drain_batch(
                [build(spec) for spec, _kind in lanes],
                [kind for _spec, kind in lanes],
            )
        assert registry.value("engine.fast.batches") == 1
        assert registry.value("engine.fast.fused_rounds") == max(
            outcome.rounds for outcome in outcomes
        )


class TestChunking:
    # Two 3-node networks: a budget of 6 puts one network's MM and CMM
    # lanes in one chunk (interleaved order) or one kind's two lanes in
    # one chunk (grouped order).
    SPECS = (("random", 3, 11), ("markov", 3, 12))

    @pytest.mark.parametrize("order", ["grouped", "interleaved"])
    @pytest.mark.parametrize("budget", [1, 6, None])
    def test_chunked_equals_per_kind(self, order, budget):
        lanes = (
            both_kinds(self.SPECS)
            if order == "grouped"
            else interleaved(self.SPECS)
        )
        kinds_per_chunk = {
            frozenset(kind for _spec, kind in lanes[start:stop])
            for start, stop in partition_lanes([3] * len(lanes), budget)
        }
        if budget == 6:
            assert {len(kinds) for kinds in kinds_per_chunk} == {
                1 if order == "grouped" else 2
            }
        expected, expected_counters = per_kind(lanes)
        outcomes, counters = fused(lanes, max_lane_nodes=budget)
        assert outcomes == expected
        assert counters == expected_counters

    def test_chunked_equals_unchunked_on_mixed_sizes(self):
        lanes = ORDERS["shuffled"]
        assert fused(lanes, max_lane_nodes=7) == fused(lanes)


class TestBudgets:
    """A lane must output within its own kind's round budget."""

    N4 = ("random", 4, 9)  # MM outputs at round 73, CMM at 61
    N5 = ("random", 5, 9)  # MM outputs at round 73, CMM at 103

    @pytest.mark.parametrize("max_rounds", [1, 5, 70])
    def test_tiny_round_budget_raises_like_the_kind_batch(self, max_rounds):
        lanes = interleaved([self.N4])
        with pytest.raises(TerminationError):
            count_milani_mosteiro_batch([build(self.N4)], max_rounds=max_rounds)
        with pytest.raises(TerminationError, match=f"within {max_rounds} "):
            fused(lanes, max_rounds=max_rounds)

    def test_round_budget_between_the_kinds(self):
        # 70 rounds: CMM (62) fits, MM (74) does not.
        lanes = interleaved([self.N4])
        outcomes, _ = fused(lanes[1:], max_rounds=70)
        assert outcomes == per_kind(lanes[1:], max_rounds=70)[0]
        with pytest.raises(TerminationError, match=r"\(lanes \[0\]\)"):
            fused(lanes, max_rounds=70)

    @pytest.fixture
    def short_plans(self, monkeypatch):
        # Candidate ceiling 3: CMM plans k = 1, 2, 3 (62 rounds) and MM
        # plans k = 1, 2, 4 (74 rounds), so the fused budget is 74.
        monkeypatch.setattr(drain, "default_drain_target", lambda n: 3)

    def test_lane_past_the_fused_budget_raises(self, short_plans):
        # CMM on n = 5 needs the k = 4 phase (round 103): past its own
        # 62-round budget and past the fused 74-round one.
        lanes = [(self.N5, "doubling"), (self.N5, "incremental")]
        with pytest.raises(TerminationError, match="within 62 rounds"):
            count_chakraborty_mm_batch([build(self.N5)])
        (alone,) = count_milani_mosteiro_batch([build(self.N5)])
        assert alone.rounds == 74
        for budget in (None, 5):
            with pytest.raises(
                TerminationError, match=r"within 74 rounds \(lanes \[1\]\)"
            ):
                fused(lanes, max_lane_nodes=budget)

    def test_lane_past_its_kind_budget_raises(self, monkeypatch):
        # Only n = 5 gets the short ceiling: its CMM plan ends at round
        # 62, while MM on n = 4 keeps a 6,138-round budget.  Within
        # that fused budget the CMM lane outputs at round 103, too late
        # for its own kind.
        default = drain.default_drain_target
        monkeypatch.setattr(
            drain, "default_drain_target", lambda n: 3 if n == 5 else default(n)
        )
        lanes = [(self.N5, "incremental"), (self.N4, "doubling")]
        with pytest.raises(TerminationError, match="within 62 rounds"):
            count_chakraborty_mm_batch([build(self.N5)])
        (unpatched,) = count_chakraborty_mm_batch(
            [build(self.N5)], max_rounds=200
        )
        assert unpatched.rounds == 104
        for budget in (None, 5):
            with pytest.raises(
                TerminationError, match=r"within 62 rounds \(lanes \[0\]\)"
            ):
                fused(lanes, max_lane_nodes=budget)

    def test_lane_finishing_at_its_kind_budget_passes(self, short_plans):
        # CMM on n = 4 outputs in the last round of its 62-round budget;
        # the MM lane then runs on to round 74 of the fused budget.
        lanes = [(self.N4, "incremental"), (self.N5, "doubling")]
        expected, expected_counters = per_kind(lanes)
        assert [o.rounds for o in expected] == [62, 74]
        outcomes, counters = fused(lanes)
        assert outcomes == expected
        assert counters == expected_counters


class TestArguments:
    def test_kinds_must_match_networks(self):
        with pytest.raises(ValueError, match="1 kinds for 2 networks"):
            count_drain_batch([build(SPECS[0])] * 2, ["doubling"])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown drain kinds"):
            count_drain_batch([build(SPECS[0])], ["halving"])

    def test_empty(self):
        assert count_drain_batch([], []) == []


class _CountingOwner:
    """A batchable edge provider that counts its draws per round."""

    draws: Counter = Counter()

    def __init__(self, n: int, seed: int) -> None:
        self.adversary = RandomConnectedAdversary(n, seed=seed)
        self.batch_key = self.adversary.batch_key

    def edges(self, round_no):
        self.draws[(id(self), round_no)] += 1
        return self.adversary.edges(round_no)

    @staticmethod
    def edges_batch(owners, round_no):
        for owner in owners:
            owner.draws[(id(owner), round_no)] += 1
        return RandomConnectedAdversary.edges_batch(
            [owner.adversary for owner in owners], round_no
        )


class TestRepeatedGraphs:
    @pytest.mark.parametrize(
        "pattern",
        [[0, 0], [0, 1, 0, 1], [1, 0, 0, 2, 1], [0, 2, 0, 0]],
    )
    def test_repeated_graph_is_drawn_once_per_round(self, pattern):
        _CountingOwner.draws.clear()
        owners = [_CountingOwner(6, seed) for seed in range(3)]
        graphs = [DynamicGraph(6, owner.edges) for owner in owners]
        non_batch_calls = Counter()

        def plain(round_no):
            non_batch_calls[round_no] += 1
            return RandomConnectedAdversary(6, seed=99).edges(round_no)

        plain_graph = DynamicGraph(6, plain)
        block = [graphs[i] for i in pattern] + [plain_graph, plain_graph]
        oracle = [
            RandomConnectedAdversary(6, seed=seed) for seed in range(3)
        ]
        for round_no in range(4):
            edges = DynamicGraph.lane_edges(block, round_no)
            expected = [oracle[i].edges(round_no) for i in pattern]
            expected += [RandomConnectedAdversary(6, seed=99).edges(round_no)] * 2
            assert len(edges) == len(expected)
            for (u, v), (want_u, want_v) in zip(edges, expected):
                np.testing.assert_array_equal(u, want_u)
                np.testing.assert_array_equal(v, want_v)
            assert non_batch_calls[round_no] == 1
            for index in set(pattern):
                assert _CountingOwner.draws[(id(owners[index]), round_no)] == 1
