"""The wrappers reach every lookup site and come off again."""

from __future__ import annotations

import numpy as np

from benchlib import Tracer, layer_stats
from tracing import PATCHES, traced


def test_patches_reach_from_import_copies_and_restore():
    import repro.networks.csr as csr
    import repro.networks.csr_native as csr_native

    original = csr.csr_from_edges
    tracer = Tracer()
    with traced(tracer):
        assert csr_native.csr_from_edges is not original
        assert csr.csr_from_edges is csr_native.csr_from_edges
    assert csr.csr_from_edges is original
    assert csr_native.csr_from_edges is original
    assert {name for name, *_ in PATCHES} >= {
        "networks.csr_build", "simulation.engine", "service.submit",
    }


def test_traced_flood_attributes_time_to_layers():
    from repro.core.counting.flooding import flood_times_batch
    from repro.networks.generators.random_dynamic import RandomConnectedAdversary

    def jobs():
        return [
            (RandomConnectedAdversary(64, seed=s, extra_edge_p=0.0).as_dynamic_graph(), 0)
            for s in range(3)
        ]

    plain = flood_times_batch(jobs())
    tracer = Tracer()
    with traced(tracer):
        tracer.run = "op"
        rounds = flood_times_batch(jobs())
    assert rounds == plain
    stats = layer_stats(tracer.for_run("op"))
    assert stats["simulation.engine"]["count"] == 1
    assert stats["simulation.engine"]["work"] == 3 * 64 * max(rounds)
    assert stats["networks.csr_build"]["count"] == 3 * max(rounds)
    assert stats["simulation.matvec"]["count"] == max(rounds)
    spans = {span.id: span for span in tracer.spans}
    for span in tracer.spans:
        if span.name != "simulation.engine":
            assert span.parent is not None
            assert np.isfinite(span.end - span.start)
    assert all(
        spans[s.parent].name in ("simulation.engine", "simulation.step")
        for s in tracer.spans
        if s.parent is not None
    )
