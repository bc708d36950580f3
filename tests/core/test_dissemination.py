"""Tests for k-token dissemination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dissemination import (
    disseminate_by_flooding,
    disseminate_by_flooding_batch,
    disseminate_by_token_forwarding,
)
from repro.networks.generators.figures import paper_figure1
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.networks.generators.stars import star_network
from repro.networks.properties import dynamic_diameter
from repro.simulation.errors import ModelError


class TestFloodingDissemination:
    def test_single_token_is_flooding(self):
        figure = paper_figure1()
        result = disseminate_by_flooding(figure.graph, {figure.v0: 0})
        assert result.rounds == 4  # the Figure 1 flood
        assert result.tokens == 1

    def test_completes_within_dynamic_diameter(self):
        network = RandomConnectedAdversary(12, seed=2).as_dynamic_graph()
        diameter = dynamic_diameter(network, start_rounds=2)
        result = disseminate_by_flooding(network, {0: 0, 5: 1, 9: 2})
        assert result.rounds <= diameter

    def test_duplicate_token_values_count_once(self):
        star = star_network(5)
        result = disseminate_by_flooding(star, {1: 7, 2: 7})
        assert result.tokens == 1
        assert result.rounds <= 2

    def test_fused_lanes_finishing_in_different_rounds(self):
        # One fast batch whose lanes stop in rounds 2, 5 and 6: a lane
        # that has stopped sends nothing more, so each lane's message
        # total must equal its own object run.
        jobs = [
            (star_network(4), {1: 0, 2: 1}),
            (
                RandomConnectedAdversary(
                    12, seed=2, extra_edge_p=0.0
                ).as_dynamic_graph(),
                {0: 0, 5: 1, 9: 2},
            ),
            (
                RandomConnectedAdversary(
                    30, seed=4, extra_edge_p=0.0
                ).as_dynamic_graph(),
                {0: 0, 29: 1},
            ),
        ]
        expected = [
            disseminate_by_flooding(network, assignment)
            for network, assignment in jobs
        ]
        assert [result.rounds for result in expected] == [2, 5, 6]
        assert disseminate_by_flooding_batch(jobs) == expected

    def test_empty_assignment_rejected(self):
        with pytest.raises(ModelError, match="at least one token"):
            disseminate_by_flooding(star_network(3), {})

    def test_out_of_range_holder_rejected(self):
        with pytest.raises(ModelError, match="outside"):
            disseminate_by_flooding(star_network(3), {9: 0})


class TestTokenForwarding:
    def test_runs_exactly_nk_rounds(self):
        star = star_network(6)
        result = disseminate_by_token_forwarding(star, {1: 10, 2: 20})
        assert result.rounds == 6 * 2
        assert result.tokens == 2

    def test_one_token_per_message(self):
        # messages <= rounds * n (each node sends at most one token per
        # round), strictly less than flooding's multiset volume.
        star = star_network(5)
        result = disseminate_by_token_forwarding(star, {1: 0, 2: 1, 3: 2})
        assert result.messages <= result.rounds * 5

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_correct_on_random_dynamics(self, n, k, seed):
        k = min(k, n)
        network = RandomConnectedAdversary(n, seed=seed).as_dynamic_graph()
        rng = np.random.default_rng(seed)
        holders = rng.choice(n, size=k, replace=False)
        assignment = {int(node): token for token, node in enumerate(holders)}
        # disseminate_by_token_forwarding raises if any node misses a
        # token -- completing without an exception is the correctness
        # assertion.
        result = disseminate_by_token_forwarding(network, assignment)
        assert result.rounds == n * k

    def test_flooding_beats_forwarding(self):
        network = RandomConnectedAdversary(10, seed=1).as_dynamic_graph()
        assignment = {0: 0, 3: 1}
        flooding = disseminate_by_flooding(network, assignment)
        forwarding = disseminate_by_token_forwarding(network, assignment)
        assert flooding.rounds < forwarding.rounds
