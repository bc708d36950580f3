"""Tests for the typed ExperimentRequest API and its compat shims."""

from __future__ import annotations

import inspect

import pytest

from repro.analysis.registry import (
    OPTION_FIELDS,
    ExperimentRequest,
    available_experiments,
    experiment_options,
    get_experiment,
    run_experiment,
)
from repro.analysis.runtime import ResultCache, run_sweep


class TestEffectiveParams:
    def test_default_request_is_paramless(self):
        assert ExperimentRequest("tab-star-pd1").effective_params() == {}

    def test_object_backend_contributes_nothing(self):
        """The engine default stays keyless, like pre-backend runs."""
        request = ExperimentRequest("tab-star-pd1", backend="object")
        assert request.effective_params() == {}

    def test_backend_applied_when_declared(self):
        request = ExperimentRequest("tab-star-pd1", backend="fast")
        assert request.effective_params() == {"backend": "fast"}

    def test_backend_dropped_when_undeclared(self):
        request = ExperimentRequest("fig2-transformation", backend="fast")
        assert request.effective_params() == {}

    def test_jobs_and_seed_routed_by_declaration(self):
        assert ExperimentRequest(
            "tab-ambiguity-horizon", jobs=2
        ).effective_params() == {"jobs": 2}
        assert ExperimentRequest("tab-star-pd1", jobs=2).effective_params() == {}
        assert ExperimentRequest(
            "tab-adversarial-randomness", seed=7
        ).effective_params() == {"seed": 7}

    def test_explicit_params_win(self):
        request = ExperimentRequest(
            "tab-star-pd1", params={"backend": "object"}, backend="fast"
        )
        assert request.effective_params() == {"backend": "object"}

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="tab-nope"):
            ExperimentRequest("tab-nope").effective_params()

    def test_cache_policy_validated(self):
        with pytest.raises(ValueError, match="cache_policy"):
            ExperimentRequest("tab-star-pd1", cache_policy="sometimes")


class TestGoldenCacheKeys:
    """Request-era cache keys are byte-identical to the pre-request ones.

    The digests below were recorded on the seed tree (before the
    ExperimentRequest refactor); existing on-disk caches must keep
    hitting.
    """

    GOLDEN = {
        ("tab-star-pd1", ()): "5b08dbc5a2e883aa",
        ("tab-star-pd1", (("backend", "fast"),)): "bfbc2b5839a3d461",
        ("tab-star-pd1", (("sizes", (2, 5)),)): "8ae8498c29611f50",
        ("tab-kernel-structure", ()): "7d70001661e76efa",
        (
            "fig-counting-rounds-vs-n",
            (("max_n", 30), ("per_decade", 3)),
        ): "0f6c58b370ff9d2c",
        (
            "tab-token-dissemination",
            (("backend", "fast"), ("seed", 7)),
        ): "e86e382ade1f66a5",
        (
            "tab-ambiguity-horizon",
            (("jobs", 2), ("sizes", (2, 5, 14))),
        ): "ba30a4bc21e5f538",
    }

    def test_raw_keys_unchanged(self):
        for (experiment, items), digest in self.GOLDEN.items():
            assert ResultCache.key(experiment, dict(items)) == digest

    def test_non_json_param_rejected_with_key_name(self):
        # A plain object used to be hashed through repr() -- embedding
        # its memory address, so cache identity changed every run.
        class Opaque:
            pass

        with pytest.raises(TypeError, match="'adversary'"):
            ResultCache.key(
                "tab-star-pd1", {"sizes": (2, 5), "adversary": Opaque()}
            )

    def test_non_json_error_names_experiment_and_type(self):
        with pytest.raises(TypeError, match="tab-star-pd1.*set"):
            ResultCache.key("tab-star-pd1", {"sizes": {2, 5}})

    def test_request_resolves_to_golden_keys(self):
        """Sweep-wide option fields produce the same params dict (and
        hence the same digest) the signature-sniffing path produced."""
        cases = [
            (ExperimentRequest("tab-star-pd1"), "5b08dbc5a2e883aa"),
            (
                ExperimentRequest("tab-star-pd1", backend="fast"),
                "bfbc2b5839a3d461",
            ),
            (
                ExperimentRequest("tab-star-pd1", backend="object"),
                "5b08dbc5a2e883aa",
            ),
            (
                ExperimentRequest(
                    "tab-token-dissemination", backend="fast", seed=7
                ),
                "e86e382ade1f66a5",
            ),
            (
                ExperimentRequest(
                    "tab-ambiguity-horizon",
                    params={"sizes": (2, 5, 14)},
                    jobs=2,
                ),
                "ba30a4bc21e5f538",
            ),
            (
                ExperimentRequest("tab-kernel-structure", backend="fast"),
                "7d70001661e76efa",  # undeclared option: key unchanged
            ),
        ]
        for request, digest in cases:
            params = request.effective_params()
            assert ResultCache.key(request.experiment, params) == digest


class TestDeclarationsMatchSignatures:
    """The declarative opt-ins must never drift from the real signatures
    (the honesty check that replaces runtime signature sniffing)."""

    @pytest.mark.parametrize("experiment", available_experiments())
    def test_options_match_signature(self, experiment):
        parameters = inspect.signature(get_experiment(experiment)).parameters
        accepts = {
            name
            for name in OPTION_FIELDS
            if name in parameters
            or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values()
            )
        }
        assert experiment_options(experiment) == accepts


class TestRunExperimentEntryPoint:
    def test_request_equals_kwargs_sugar(self):
        via_request = run_experiment(
            ExperimentRequest("tab-star-pd1", params={"sizes": (2, 5)})
        )
        via_kwargs = run_experiment("tab-star-pd1", sizes=(2, 5))
        assert via_request.rows == via_kwargs.rows
        assert via_request.checks == via_kwargs.checks

    def test_request_plus_kwargs_rejected(self):
        with pytest.raises(TypeError, match="ExperimentRequest.params"):
            run_experiment(ExperimentRequest("tab-star-pd1"), sizes=(2, 5))

    def test_backend_field_flows_to_experiment(self):
        result = run_experiment(
            ExperimentRequest(
                "tab-star-pd1", params={"sizes": (2, 5)}, backend="fast"
            )
        )
        assert result.passed


class TestRemovedParamsKwarg:
    """The ``params=`` sweep-wide override is gone: ``full_report`` only
    renders a finished sweep, so Python itself rejects run keywords;
    grids go through requests (``grid_requests`` expands them)."""

    def test_full_report_params_removed(self):
        from repro.analysis.reporting import full_report

        outcome = run_sweep(["tab-star-pd1"])
        with pytest.raises(TypeError, match="'params'"):
            full_report(outcome, params={"backend": "fast"})

    def test_full_report_requests_path_works(self):
        from repro.analysis.reporting import full_report

        report = full_report(
            run_sweep([ExperimentRequest("tab-star-pd1", backend="fast")])
        )
        assert "tab-star-pd1" in report
