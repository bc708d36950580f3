"""Tests for the anonymous inbox containers."""

from __future__ import annotations

import pickle
from collections import Counter

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import DynamicGraph
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.simulation.engine import EngineConfig, SynchronousEngine
from repro.simulation.messages import (
    Inbox,
    LabeledInbox,
    canonical_sort_key,
)
from repro.simulation.node import Process


class TestInbox:
    def test_iteration_is_content_sorted(self):
        inbox = Inbox(["b", "a", "c"])
        assert list(inbox) == ["a", "b", "c"]

    def test_length_and_truthiness(self):
        assert len(Inbox([1, 2])) == 2
        assert not Inbox([])
        assert Inbox([0])  # non-empty inbox is truthy even with falsy payload

    def test_contains(self):
        assert "x" in Inbox(["x", "y"])
        assert "z" not in Inbox(["x", "y"])

    def test_multiset_equality_ignores_order(self):
        assert Inbox([1, 2, 2]) == Inbox([2, 1, 2])
        assert Inbox([1, 2]) != Inbox([1, 2, 2])

    def test_counts_view(self):
        assert Inbox(["a", "a", "b"]).counts() == Counter({"a": 2, "b": 1})

    def test_hashable(self):
        assert hash(Inbox([1, 2])) == hash(Inbox([2, 1]))

    def test_mixed_payload_types_sort_deterministically(self):
        inbox1 = Inbox([("x", 1), "plain", 3])
        inbox2 = Inbox([3, "plain", ("x", 1)])
        assert list(inbox1) == list(inbox2)

    @given(st.lists(st.integers()))
    def test_order_insensitivity_property(self, payloads):
        assert Inbox(payloads) == Inbox(list(reversed(payloads)))

    def test_frozenset_payloads_compare_canonically(self):
        # frozenset repr order is hash-dependent; the canonical key must
        # not be.
        inbox1 = Inbox([frozenset({1, 2}), frozenset({3})])
        inbox2 = Inbox([frozenset({3}), frozenset({2, 1})])
        assert inbox1 == inbox2


# Small value ranges so that distinct senders often share a payload (and
# hence a key): the engine's stable sort must then keep neighbour order.
hashable_payloads = st.recursive(
    st.none() | st.integers(-3, 3) | st.fractions(max_denominator=3),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)
payloads = hashable_payloads | st.dictionaries(
    hashable_payloads, hashable_payloads, max_size=3
)


class Broadcaster(Process):
    """Sends one fixed payload and keeps the inbox it is delivered."""

    def __init__(self, payload):
        self.payload = payload
        self.inbox = None

    def compose(self, round_no):
        return self.payload

    def deliver(self, round_no, inbox):
        self.inbox = inbox

    def output(self):
        return None


class TestEngineBuiltInbox:
    @settings(max_examples=100, deadline=None)
    @given(
        pool=st.lists(payloads, min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        cut=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))),
    )
    def test_equals_inbox_constructor(self, pool, picks, cut):
        # Senders share payload *values* from a small pool but hold
        # distinct copies, so ties between equal keys are common and the
        # identity check below sees their order.
        sent = [pickle.loads(pickle.dumps(pool[i % len(pool)])) for i in picks]
        n = len(sent)
        complete = nx.complete_graph(n)
        complete.remove_edges_from(cut)
        network = DynamicGraph.from_graphs([complete], extend="hold")
        # The engine's own graph: its neighbour order breaks key ties.
        graph = network.at(0)
        processes = [Broadcaster(payload) for payload in sent]
        registry = MetricsRegistry()
        with use_registry(registry):
            SynchronousEngine(
                processes,
                network,
                leader=None,
                config=EngineConfig(
                    max_rounds=1, stop_when="budget", require_connected=False
                ),
            ).run()
        delivered = 0
        for index, process in enumerate(processes):
            expected = Inbox(
                sent[neighbour]
                for neighbour in graph.neighbors(index)
                if sent[neighbour] is not None
            )
            got = process.inbox.as_tuple()
            assert got == expected.as_tuple()
            # Tuple for tuple: the same objects, in the same order.
            assert [id(p) for p in got] == [id(p) for p in expected]
            delivered += len(got)
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.messages_delivered", 0) == delivered
        assert counters.get("engine.messages_sent", 0) == sum(
            payload is not None for payload in sent
        )


class TestLabeledInbox:
    def test_pairs_sorted_by_label_then_payload(self):
        inbox = LabeledInbox([(2, "a"), (1, "b"), (1, "a")])
        assert list(inbox) == [(1, "a"), (1, "b"), (2, "a")]

    def test_labels_multiset(self):
        inbox = LabeledInbox([(2, "x"), (1, "x"), (2, "y")])
        assert inbox.labels() == (1, 2, 2)

    def test_payloads(self):
        inbox = LabeledInbox([(2, "b"), (1, "a")])
        assert inbox.payloads() == ("a", "b")

    def test_equality_is_multiset(self):
        assert LabeledInbox([(1, "a"), (2, "b")]) == LabeledInbox(
            [(2, "b"), (1, "a")]
        )

    def test_counts(self):
        inbox = LabeledInbox([(1, "a"), (1, "a")])
        assert inbox.counts() == Counter({(1, "a"): 2})


class TestCanonicalSortKey:
    def test_nested_structures(self):
        key1 = canonical_sort_key((frozenset({2, 1}), "x"))
        key2 = canonical_sort_key((frozenset({1, 2}), "x"))
        assert key1 == key2

    def test_dict_payloads(self):
        assert canonical_sort_key({"b": 1, "a": 2}) == canonical_sort_key(
            {"a": 2, "b": 1}
        )

    def test_distinct_payloads_distinct_keys(self):
        assert canonical_sort_key((1, 2)) != canonical_sort_key((2, 1))

