"""Tests for the generative strategies and the shrinker."""

from __future__ import annotations

import json

import pytest

from repro.networks.csr_native import DynamicGraph
from repro.verify.strategies import (
    MODEL_KINDS,
    SUITES,
    Case,
    build_network,
    generate_cases,
    shrink,
    shrink_candidates,
)


class TestCase_:
    def test_roundtrip(self):
        case = Case("model", "pd", 7, {"layers": [2, 1], "rounds": 3})
        assert Case.from_dict(case.to_dict()) == case

    def test_params_are_json_clean(self):
        for suite in SUITES:
            for case in generate_cases(suite, 20, 0):
                json.dumps(case.to_dict())  # must not raise

    def test_describe_mentions_suite_kind_and_seed(self):
        case = Case("kernel", "kernel-identities", 42, {"r": 1, "n": 5})
        text = case.describe()
        assert "kernel" in text and "seed=42" in text and "r=1" in text

    def test_with_params_leaves_original_untouched(self):
        case = Case("model", "arbitrary", 0, {"n": 5, "rounds": 2})
        smaller = case.with_params(n=3)
        assert case.params["n"] == 5
        assert smaller.params["n"] == 3


class TestGeneration:
    def test_deterministic_per_seed(self):
        for suite in SUITES:
            assert generate_cases(suite, 10, 3) == generate_cases(suite, 10, 3)

    def test_different_seeds_differ(self):
        assert generate_cases("model", 10, 0) != generate_cases("model", 10, 1)

    def test_prefix_stability(self):
        # Case i is a pure function of (seed, suite, i): asking for more
        # cases never changes the earlier ones.
        assert generate_cases("kernel", 5, 0) == generate_cases("kernel", 9, 0)[:5]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            generate_cases("nope", 1, 0)

    def test_model_kinds_all_reachable(self):
        kinds = {case.kind for case in generate_cases("model", 60, 0)}
        assert kinds == set(MODEL_KINDS)


class TestBuildNetwork:
    def test_every_model_case_builds(self):
        for case in generate_cases("model", 30, 1):
            network = build_network(case)
            assert isinstance(network, DynamicGraph)
            network.at(0)

    def test_backend_cases_build_via_family(self):
        for case in generate_cases("backend", 10, 1):
            assert build_network(case).n == case.params["n"]

    def test_build_is_deterministic(self):
        case = generate_cases("model", 1, 5)[0]
        first = build_network(case)
        second = build_network(case)
        rounds = int(case.params.get("rounds", 1))
        for round_no in range(rounds):
            assert set(first.at(round_no).edges()) == set(
                second.at(round_no).edges()
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="cannot build"):
            build_network(Case("model", "nope", 0, {}))


class TestShrinkCandidates:
    def test_candidates_are_strictly_different(self):
        case = Case("model", "arbitrary", 0, {"n": 6, "rounds": 4, "extra_edge_p": 0.5})
        for candidate in shrink_candidates(case):
            assert candidate.params != case.params

    def test_minimum_yields_nothing(self):
        minimum = Case(
            "model", "arbitrary", 0, {"n": 1, "rounds": 1, "extra_edge_p": 0.0}
        )
        assert not list(shrink_candidates(minimum))

    def test_kernel_minimum_is_fixed_point(self):
        assert not list(
            shrink_candidates(Case("kernel", "kernel-identities", 0, {"r": 0, "n": 1}))
        )

    def test_t_interval_clamp_keeps_rounds_at_least_t(self):
        case = Case(
            "model", "t-interval", 0, {"n": 5, "t": 3, "rounds": 6, "extra_edge_p": 0.0}
        )
        for candidate in shrink_candidates(case):
            assert candidate.params["rounds"] >= candidate.params["t"]

    def test_layers_list_shrinks(self):
        case = Case("model", "pd", 0, {"layers": [3, 2], "rounds": 1})
        layer_shrinks = [
            candidate.params["layers"]
            for candidate in shrink_candidates(case)
            if candidate.params["layers"] != [3, 2]
        ]
        assert [3] in layer_shrinks  # drop a layer
        assert [2, 2] in layer_shrinks  # shrink a layer's size

    def test_workload_drops_last_entry_only(self):
        case = Case(
            "runtime",
            "sweep-equivalence",
            0,
            {"workload": [["a", {}], ["b", {}]]},
        )
        workloads = [c.params["workload"] for c in shrink_candidates(case)]
        assert workloads == [[["a", {}]]]


class TestShrink:
    def test_reaches_global_minimum_when_everything_fails(self):
        case = Case(
            "model", "arbitrary", 0, {"n": 9, "rounds": 7, "extra_edge_p": 0.5}
        )
        shrunk = shrink(case, lambda c: True)
        assert shrunk.params == {"n": 1, "rounds": 1, "extra_edge_p": 0.0}

    def test_respects_the_predicate(self):
        case = Case("kernel", "kernel-identities", 0, {"r": 4, "n": 30})
        shrunk = shrink(case, lambda c: c.params["r"] >= 2)
        assert shrunk.params["r"] == 2
        assert shrunk.params["n"] == 1

    def test_passing_case_is_returned_unchanged(self):
        case = Case("kernel", "kernel-identities", 0, {"r": 3, "n": 10})
        assert shrink(case, lambda c: False) == case

    def test_budget_bounds_evaluations(self):
        calls = []

        def fails(candidate):
            calls.append(candidate)
            return True

        case = Case("kernel", "kernel-identities", 0, {"r": 5, "n": 40})
        shrink(case, fails, max_attempts=3)
        assert len(calls) <= 3
