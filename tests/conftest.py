"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import io
import json
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.states import all_label_sets
from repro.obs.spans import JsonlSink, add_sink, remove_sink
from repro.obs.telemetry import telemetry_enabled


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for stochastic tests."""
    return np.random.default_rng(12345)


@contextmanager
def recorded_telemetry() -> Iterator[list[dict]]:
    """Telemetry on for every round inside the block.

    Yields a list that holds the block's telemetry events once the
    block exits.  A context manager rather than a fixture, so that a
    hypothesis example records only its own run.
    """
    buffer = io.StringIO()
    sink = add_sink(JsonlSink(buffer))
    events: list[dict] = []
    try:
        with telemetry_enabled():
            yield events
    finally:
        remove_sink(sink)
    events.extend(
        event
        for event in map(json.loads, buffer.getvalue().splitlines())
        if event.get("kind") == "telemetry"
    )


def label_set_strategy(k: int = 2) -> st.SearchStrategy:
    """Strategy drawing one valid ``M(DBL)_k`` label set."""
    return st.sampled_from(all_label_sets(k))


def history_strategy(
    k: int = 2, min_length: int = 1, max_length: int = 4
) -> st.SearchStrategy:
    """Strategy drawing a label-set history (tuple of label sets)."""
    return st.lists(
        label_set_strategy(k), min_size=min_length, max_size=max_length
    ).map(tuple)


def schedules_strategy(
    k: int = 2,
    min_nodes: int = 1,
    max_nodes: int = 8,
    min_rounds: int = 1,
    max_rounds: int = 4,
) -> st.SearchStrategy:
    """Strategy drawing equal-length label schedules for several nodes."""

    def build(draw_lengths):
        n, rounds = draw_lengths
        return st.lists(
            st.lists(
                label_set_strategy(k), min_size=rounds, max_size=rounds
            ),
            min_size=n,
            max_size=n,
        )

    return st.tuples(
        st.integers(min_value=min_nodes, max_value=max_nodes),
        st.integers(min_value=min_rounds, max_value=max_rounds),
    ).flatmap(build)
