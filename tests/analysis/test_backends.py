"""Differential tests: the fast backend against the object-engine oracle.

The object engine is the semantics oracle; every protocol and every
registry experiment that supports ``backend="fast"`` must produce the
same leader outputs, round counts, and checks.  Integer and boolean
values are compared exactly; floats (push-sum estimates) to within
accumulation-order tolerance.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.adversaries.worst_case import max_ambiguity_multigraph
from repro.analysis.registry import experiment_options, run_experiment
from repro.cli import main
from repro.core.counting.chain import count_chain_pd2
from repro.core.counting.flooding import flood_time_via_protocol, flood_times_batch
from repro.core.counting.gossip import (
    gossip_size_estimates,
    gossip_size_estimates_batch,
)
from repro.core.counting.star import count_star
from repro.core.counting.token_ids import count_with_ids, count_with_ids_batch
from repro.core.dissemination import (
    disseminate_by_flooding,
    disseminate_by_flooding_batch,
)
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.obs.metrics import MetricsRegistry, use_registry

SEEDS = (11, 22, 33)

# Small-parameter overrides per backend-aware experiment, so the
# differential sweep stays quick while touching every code path.
BACKEND_EXPERIMENTS: dict[str, dict] = {
    "tab-star-pd1": {"sizes": (2, 5, 17)},
    "tab-baselines": {
        "id_sizes": (4, 13),
        "gossip_sizes": (16,),
        "gossip_rounds": 40,
    },
    "tab-corollary1-diameter": {
        "sizes": (4, 13),
        "chain_lengths": (0, 2),
    },
    "tab-dynamics-families": {"n": 12, "gossip_rounds": 60, "check_rounds": 6},
    "tab-token-dissemination": {"sizes": (8, 16), "tokens_per_size": (2,)},
    "upper-vs-lower": {"sizes": (3, 5)},
}

# Fast-engine work an experiment must do with the parameters above.
# upper-vs-lower fuses each size's three family networks under both
# drain counters into one 6-lane batch: 2 batches, and one stack build
# per fused round, which lasts as long as the slower counter
# (max(32, 32) + max(74, 104) rounds).  One batch per size and counter
# would make 4 batches and 242 builds; one per network 12 and 726.
FAST_COUNTERS: dict[str, dict[str, int]] = {
    "upper-vs-lower": {
        "engine.fast.batches": 2,
        "engine.fast.fused_rounds": 136,
        "adjacency.builds": 136,
        "adjacency.native_builds": 136,
        "adjacency.stack_builds": 136,
    },
}


def network_for(n, seed):
    return RandomConnectedAdversary(n, seed=seed).as_dynamic_graph()


def rows_equivalent(object_rows, fast_rows):
    assert len(object_rows) == len(fast_rows)
    for object_row, fast_row in zip(object_rows, fast_rows):
        assert object_row.keys() == fast_row.keys()
        for key, object_value in object_row.items():
            fast_value = fast_row[key]
            if isinstance(object_value, float):
                assert fast_value == pytest.approx(
                    object_value, rel=1e-9, abs=1e-12
                ), key
            else:
                assert object_value == fast_value, key


class TestProtocolEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", (2, 7, 23))
    def test_star(self, n, seed):
        del seed  # the star is deterministic; seeds keep the matrix shape
        object_outcome = count_star(n)
        fast_outcome = count_star(n, backend="fast")
        assert object_outcome == fast_outcome

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", (4, 12, 25))
    def test_flooding(self, n, seed):
        object_rounds = flood_time_via_protocol(network_for(n, seed), 0)
        fast_rounds = flood_time_via_protocol(
            network_for(n, seed), 0, backend="fast"
        )
        assert object_rounds == fast_rounds

    def test_flooding_batch_equals_singles(self):
        jobs = [(network_for(n, seed), 0) for n in (4, 12) for seed in SEEDS]
        singles = [
            flood_time_via_protocol(network_for(n, seed), 0)
            for n in (4, 12)
            for seed in SEEDS
        ]
        assert flood_times_batch(jobs) == singles

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", (8, 16))
    def test_gossip(self, n, seed):
        rounds = 40
        object_estimates = gossip_size_estimates(
            RandomConnectedAdversary(n, seed=seed), n, rounds
        )
        fast_estimates = gossip_size_estimates(
            RandomConnectedAdversary(n, seed=seed), n, rounds, backend="fast"
        )
        assert len(object_estimates) == len(fast_estimates) == rounds
        assert np.allclose(
            object_estimates, fast_estimates, rtol=1e-9, equal_nan=True
        )

    def test_gossip_batch_equals_singles(self):
        specs = [
            (RandomConnectedAdversary(n, seed=seed), n)
            for n in (8, 16)
            for seed in SEEDS
        ]
        batch = gossip_size_estimates_batch(specs, 30)
        for (topology, n), curve in zip(
            [
                (RandomConnectedAdversary(n, seed=seed), n)
                for n in (8, 16)
                for seed in SEEDS
            ],
            batch,
        ):
            assert np.allclose(
                gossip_size_estimates(topology, n, 30), curve, rtol=1e-9
            )

    def test_gossip_ignores_edge_weights(self):
        # The object engine never reads edge attributes, so a weighted
        # topology must lower to the same unit-weight adjacency.
        graph = nx.cycle_graph(6)
        graph.add_edge(0, 3)
        for u, v in graph.edges:
            graph[u][v]["weight"] = 1 + u + v

        def run(backend):
            registry = MetricsRegistry()
            with use_registry(registry):
                estimates = gossip_size_estimates(
                    DynamicGraph.from_graphs([graph]), 6, 30, backend=backend
                )
            counters = registry.snapshot()["counters"]
            traffic = ("engine.rounds", "engine.messages_sent",
                       "engine.messages_delivered")
            return estimates, {name: counters[name] for name in traffic}

        object_estimates, object_traffic = run("object")
        fast_estimates, fast_traffic = run("fast")
        assert np.allclose(object_estimates, fast_estimates, rtol=1e-9)
        assert object_traffic == fast_traffic

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n,horizon", ((5, 4), (14, 6)))
    def test_token_ids(self, n, horizon, seed):
        object_outcome = count_with_ids(network_for(n, seed), horizon)
        fast_outcome = count_with_ids(
            network_for(n, seed), horizon, backend="fast"
        )
        assert object_outcome == fast_outcome

    def test_token_ids_batch_mixed_horizons(self):
        jobs = [(network_for(5, 11), 3), (network_for(14, 22), 7)]
        outcomes = count_with_ids_batch(jobs)
        singles = [
            count_with_ids(network_for(5, 11), 3),
            count_with_ids(network_for(14, 22), 7),
        ]
        assert outcomes == singles

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", (6, 15))
    def test_dissemination_flooding(self, n, seed):
        assignment = {0: 7, n - 1: 9, n // 2: 7}
        object_result = disseminate_by_flooding(network_for(n, seed), assignment)
        fast_result = disseminate_by_flooding(
            network_for(n, seed), assignment, backend="fast"
        )
        assert object_result == fast_result

    def test_dissemination_batch_equals_singles(self):
        jobs = [
            (network_for(n, seed), {0: 1, 1: 2})
            for n in (6, 15)
            for seed in SEEDS
        ]
        singles = [
            disseminate_by_flooding(network_for(n, seed), {0: 1, 1: 2})
            for n in (6, 15)
            for seed in SEEDS
        ]
        assert disseminate_by_flooding_batch(jobs) == singles

    @pytest.mark.parametrize("n", (3, 7, 13))
    @pytest.mark.parametrize("chain_length", (0, 3))
    def test_chain(self, n, chain_length):
        object_outcome = count_chain_pd2(max_ambiguity_multigraph(n), chain_length)
        fast_outcome = count_chain_pd2(
            max_ambiguity_multigraph(n), chain_length, backend="fast"
        )
        assert object_outcome == fast_outcome

    @pytest.mark.parametrize("n", (4, 10))
    def test_engine_counters_equal(self, n):
        def counters_for(backend):
            registry = MetricsRegistry()
            with use_registry(registry):
                for seed in SEEDS:
                    flood_time_via_protocol(
                        network_for(n, seed), 0, backend=backend
                    )
            return {
                name: value
                for name, value in registry.snapshot()["counters"].items()
                if name.startswith("engine.")
                and not name.startswith("engine.fast")
            }

        assert counters_for("object") == counters_for("fast")


class TestExperimentEquivalence:
    @pytest.mark.parametrize("experiment", sorted(BACKEND_EXPERIMENTS))
    def test_declares_backend_option(self, experiment):
        assert "backend" in experiment_options(experiment)

    @pytest.mark.parametrize("experiment", sorted(BACKEND_EXPERIMENTS))
    def test_fast_matches_object(self, experiment):
        params = BACKEND_EXPERIMENTS[experiment]
        object_result = run_experiment(experiment, **params)
        registry = MetricsRegistry()
        with use_registry(registry):
            fast_result = run_experiment(experiment, backend="fast", **params)
        for name, expected in FAST_COUNTERS.get(experiment, {}).items():
            assert registry.value(name) == expected, name
        assert object_result.checks == fast_result.checks
        assert object_result.passed and fast_result.passed
        rows_equivalent(object_result.rows, fast_result.rows)

    def test_undeclared_option_absent(self):
        assert "seed" not in experiment_options("tab-star-pd1")
        assert "jobs" not in experiment_options("tab-star-pd1")


class TestCliBackend:
    def test_run_backend_fast(self, capsys):
        code = main(
            [
                "run",
                "tab-star-pd1",
                "--backend",
                "fast",
                "--param",
                "sizes=(2, 5)",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_backend_rejected_for_unsupporting_experiment(self):
        with pytest.raises(SystemExit, match="does not support"):
            main(["run", "tab-kernel-structure", "--backend", "fast"])

    def test_run_backend_object_is_default_noop(self, capsys):
        code = main(
            [
                "run",
                "tab-kernel-structure",
                "--backend",
                "object",
                "--param",
                "max_round=2",
            ]
        )
        assert code == 0
        capsys.readouterr()
