"""Tests for the counting verification suite (the zoo oracle)."""

from __future__ import annotations

import pytest

from repro.verify import counting, generate_cases, run_verify, shrink_candidates
from repro.verify.counting import case_population, check_counting_case
from repro.verify.strategies import COUNTING_KINDS, Case, _clamp


class TestCountingCaseGeneration:
    def test_deterministic_from_seed(self):
        first = generate_cases("counting", 10, master_seed=3)
        second = generate_cases("counting", 10, master_seed=3)
        assert first == second

    def test_cases_are_well_formed(self):
        for case in generate_cases("counting", 40, master_seed=1):
            assert case.suite == "counting"
            assert case.kind in COUNTING_KINDS
            assert case.params["family"] in ("pd", "t-interval", "markov")
            assert case_population(case) >= 2
            if case.kind == "kowalski-mosteiro":
                assert 1 <= case.params["supervisors"] <= case_population(
                    case
                )
            if case.kind in ("milani-mosteiro", "chakraborty-mm"):
                assert case.params["lanes"] >= 1
            if case.kind == "drain-mixed":
                assert case.params["lanes"] >= 1
                assert case.params["max_lane_nodes"] >= 1


class TestCountingOracle:
    def test_history_tree_case_passes(self):
        case = Case(
            "counting",
            "diluna-viglietta",
            seed=13,
            params={"family": "t-interval", "n": 4},
        )
        assert check_counting_case(case) == []

    def test_supervised_case_passes(self):
        case = Case(
            "counting",
            "kowalski-mosteiro",
            seed=13,
            params={"family": "markov", "n": 4, "supervisors": 2},
        )
        assert check_counting_case(case) == []

    def test_drain_differential_case_passes(self):
        case = Case(
            "counting",
            "chakraborty-mm",
            seed=13,
            params={
                "family": "pd",
                "layers": [2, 1],
                "lanes": 2,
                "max_lane_nodes": 2,
            },
        )
        assert check_counting_case(case) == []

    @pytest.mark.parametrize("interleave", [False, True])
    def test_mixed_drain_case_passes(self, interleave):
        case = Case(
            "counting",
            "drain-mixed",
            seed=21,
            params={
                "family": "markov",
                "n": 3,
                "lanes": 2,
                "interleave": interleave,
                "max_lane_nodes": 6,
            },
        )
        assert check_counting_case(case) == []

    def test_mixed_drain_case_catches_a_wrong_fused_batch(self, monkeypatch):
        real = counting.count_drain_batch

        def all_doubling(networks, kinds, **kwargs):
            return real(networks, ["doubling"] * len(kinds), **kwargs)

        monkeypatch.setattr(counting, "count_drain_batch", all_doubling)
        case = Case(
            "counting",
            "drain-mixed",
            seed=21,
            params={"family": "markov", "n": 3, "max_lane_nodes": 3},
        )
        violations = check_counting_case(case)
        assert any("fast (max_lane_nodes=3) backend" in v for v in violations)
        assert any("fast backend" in v for v in violations)


class TestCountingShrinkBounds:
    def test_n_never_shrinks_below_two(self):
        case = Case(
            "counting",
            "milani-mosteiro",
            seed=0,
            params={"family": "markov", "n": 6, "lanes": 2},
        )
        for candidate in shrink_candidates(case):
            # The markov builder needs n >= 2; a candidate below that
            # would crash the checker and fake a "smaller" violation.
            assert candidate.params["n"] >= 2

    def test_supervisors_clamped_to_population(self):
        case = Case(
            "counting",
            "kowalski-mosteiro",
            seed=0,
            params={"family": "t-interval", "n": 2, "supervisors": 5},
        )
        assert _clamp(case).params["supervisors"] == 2


class TestCountingHarness:
    def test_fuzz_run_passes(self, tmp_path):
        report = run_verify(
            fuzz=10, seed=0, suites=["counting"], fixtures_dir=tmp_path
        )
        assert report.passed
        # The counting divisor: 10 fuzz units draw 2 cases.
        assert report.suites["counting"].cases == 2
        assert not list(tmp_path.iterdir())
