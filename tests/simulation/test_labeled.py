"""Tests for the M(DBL)_k labeled star engine."""

from __future__ import annotations

import pytest

from repro.networks.multigraph import DynamicMultigraph
from repro.simulation.errors import TerminationError, TopologyError
from repro.simulation.labeled import LabeledStarEngine
from repro.simulation.messages import LabeledInbox
from repro.simulation.node import Process


class RecordingLeader(Process):
    def __init__(self, output_after=None):
        self.inboxes: list[LabeledInbox] = []
        self.output_after = output_after

    def compose(self, round_no):
        return "beacon"

    def deliver(self, round_no, inbox):
        self.inboxes.append(inbox)
        if self.output_after is not None and round_no + 1 >= self.output_after:
            self._output = "done"


class RecordingNode(Process):
    def __init__(self):
        self.inboxes: list[LabeledInbox] = []

    def compose(self, round_no):
        return "node"

    def deliver(self, round_no, inbox):
        self.inboxes.append(inbox)


def mdbl(schedules, k=2, **kwargs):
    return DynamicMultigraph(
        k, [[frozenset(s) for s in sched] for sched in schedules], **kwargs
    )


class TestLabeledStarEngine:
    def test_leader_sees_one_pair_per_edge(self):
        multigraph = mdbl([[{1, 2}], [{2}]])
        leader = RecordingLeader(output_after=1)
        nodes = [RecordingNode(), RecordingNode()]
        LabeledStarEngine(leader, nodes, multigraph).run()
        assert leader.inboxes[0].counts() == {
            (1, "node"): 1,
            (2, "node"): 2,
        }

    def test_nodes_learn_their_labels(self):
        multigraph = mdbl([[{1, 2}], [{2}]])
        leader = RecordingLeader(output_after=1)
        nodes = [RecordingNode(), RecordingNode()]
        LabeledStarEngine(leader, nodes, multigraph).run()
        assert nodes[0].inboxes[0].labels() == (1, 2)
        assert nodes[1].inboxes[0].labels() == (2,)
        assert nodes[1].inboxes[0].payloads() == ("beacon",)

    def test_silent_leader_sends_nothing(self):
        class SilentLeader(RecordingLeader):
            def compose(self, round_no):
                return None

        multigraph = mdbl([[{1}]])
        leader = SilentLeader(output_after=1)
        node = RecordingNode()
        LabeledStarEngine(leader, [node], multigraph).run()
        assert len(node.inboxes[0]) == 0

    def test_budget_stop(self):
        multigraph = mdbl([[{1}]], extend="full")
        leader = RecordingLeader()
        engine = LabeledStarEngine(
            leader, [RecordingNode()], multigraph, max_rounds=5, stop_when="budget"
        )
        result = engine.run()
        assert result.rounds == 5
        assert len(leader.inboxes) == 5

    def test_leader_never_outputs_raises(self):
        multigraph = mdbl([[{1}]])
        engine = LabeledStarEngine(
            RecordingLeader(), [RecordingNode()], multigraph, max_rounds=3
        )
        with pytest.raises(TerminationError):
            engine.run()

    @pytest.mark.parametrize("stop_when", ["leader", "budget"])
    @pytest.mark.parametrize("max_rounds", [0, -1])
    def test_rejects_empty_budget(self, max_rounds, stop_when):
        """Regression: a budget below 1 ran no round and, with
        ``stop_when="budget"``, reported a terminated 0-round run."""
        with pytest.raises(ValueError, match="^max_rounds must be at least 1$"):
            LabeledStarEngine(
                RecordingLeader(),
                [RecordingNode()],
                mdbl([[{1}]]),
                max_rounds=max_rounds,
                stop_when=stop_when,
            )

    def test_invalid_stop_when(self):
        multigraph = mdbl([[{1}]])
        with pytest.raises(ValueError):
            LabeledStarEngine(
                RecordingLeader(), [RecordingNode()], multigraph, stop_when="all"
            )

    def test_wrong_label_set_count_raises(self):
        class BadProvider:
            k = 2

            def label_sets(self, round_no, processes):
                return [frozenset({1})]  # two nodes expected

        engine = LabeledStarEngine(
            RecordingLeader(output_after=1),
            [RecordingNode(), RecordingNode()],
            BadProvider(),
        )
        with pytest.raises(TopologyError, match="label sets"):
            engine.run()

    def test_empty_label_set_raises(self):
        class BadProvider:
            k = 2

            def label_sets(self, round_no, processes):
                return [frozenset()]

        engine = LabeledStarEngine(
            RecordingLeader(output_after=1), [RecordingNode()], BadProvider()
        )
        with pytest.raises(TopologyError, match="non-empty subset"):
            engine.run()

    def test_out_of_range_label_raises(self):
        class BadProvider:
            k = 2

            def label_sets(self, round_no, processes):
                return [frozenset({3})]

        engine = LabeledStarEngine(
            RecordingLeader(output_after=1), [RecordingNode()], BadProvider()
        )
        with pytest.raises(TopologyError):
            engine.run()

    def test_schedule_extension_full(self):
        multigraph = mdbl([[{1}]], extend="full")
        leader = RecordingLeader(output_after=3)
        LabeledStarEngine(leader, [RecordingNode()], multigraph).run()
        # Round 0 uses the schedule; rounds 1-2 extend with all labels.
        assert leader.inboxes[0].labels() == (1,)
        assert leader.inboxes[1].labels() == (1, 2)
        assert leader.inboxes[2].labels() == (1, 2)
