"""T-interval connected dynamic graphs (Kuhn, Lynch & Oshman).

The paper's model assumes 1-interval connectivity; the stronger
``T``-interval connectivity of Kuhn et al. requires a *common* connected
spanning subgraph across every window of ``T`` consecutive rounds.
This generator draws one spanning tree per ``T``-round block and keeps
each block's tree alive through the *next* block as well, so any window
of ``T`` consecutive rounds -- including windows straddling a block
boundary -- fully contains at least one tree; volatile extra edges are
redrawn every round on top.

CSR-native and incremental: rounds are emitted as ``(u, v)`` edge
arrays, and the stable component (the current and previous blocks'
spanning trees, which change only every ``T`` rounds) is kept
separately from the volatile per-round extras, so a sequential read
draws each block's tree once and re-derives only the delta.

Used by the baseline experiments to show the library's substrate covers
the standard dynamic-network taxonomy, not only the paper's ``T = 1``.
"""

from __future__ import annotations

import numpy as np

from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.random_dynamic import (
    bernoulli_pair_edges,
    random_tree_edges,
)
from repro.networks.generators.streams import round_rng

__all__ = ["t_interval_network"]


def t_interval_network(
    n: int,
    t: int,
    *,
    extra_edge_p: float = 0.15,
    seed: int = 0,
) -> DynamicGraph:
    """A ``T``-interval connected dynamic graph (CSR-native).

    Args:
        n: Number of nodes.
        t: Stability window: one spanning tree persists through rounds
            ``[m·t, (m+1)·t)`` for each block ``m``.
        extra_edge_p: Probability of each volatile extra edge, redrawn
            every round.
        seed: Master seed (per-block trees and per-round extras are
            pure functions of it).
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if t < 1:
        raise ValueError("the window T must be at least 1")
    if not 0.0 <= extra_edge_p <= 1.0:
        raise ValueError("extra_edge_p must be in [0, 1]")

    # The trees of the blocks the last round read: its own and the
    # previous one, which the next block reads again.
    trees: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def tree_for_block(block: int) -> tuple[np.ndarray, np.ndarray]:
        tree = trees.get(block)
        if tree is None:
            # Stream 0 = per-block trees, stream 1 = per-round extras.
            tree = random_tree_edges(n, round_rng(seed, block, 0))
        return tree

    def provider(round_no: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal trees
        block = round_no // t
        # The previous block's tree overlaps into this block, so
        # windows straddling the boundary still share a whole tree.
        trees = {b: tree_for_block(b) for b in (block, block - 1) if b >= 0}
        parts = list(trees.values())
        extras = bernoulli_pair_edges(
            n, round_rng(seed, round_no, 1), extra_edge_p
        )
        if extras[0].size:
            parts.append(extras)
        return (
            np.concatenate([u for u, _ in parts]),
            np.concatenate([v for _, v in parts]),
        )

    return DynamicGraph(
        n, provider, name=f"{t}-interval(n={n}, seed={seed})"
    )
