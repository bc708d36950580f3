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
arrays, and the stable component (the per-block spanning trees, which
change only every ``T`` rounds) is cached separately from the volatile
per-round extras, so consecutive rounds re-derive only the delta.

Used by the baseline experiments to show the library's substrate covers
the standard dynamic-network taxonomy, not only the paper's ``T = 1``.
"""

from __future__ import annotations

import numpy as np

from repro.networks.csr import LRUCache
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.random_dynamic import (
    bernoulli_pair_edges,
    random_tree_edges,
)

__all__ = ["t_interval_network"]

#: Block trees live for two blocks (current + overlap into the next),
#: so a tiny LRU already makes the stable component's resampling cost
#: amortise to once per block instead of once per round.
_BLOCK_TREE_CACHE_SIZE = 4


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

    block_trees = LRUCache(_BLOCK_TREE_CACHE_SIZE, "adjacency.cache_evictions")

    def tree_for_block(block: int) -> tuple[np.ndarray, np.ndarray]:
        cached = block_trees.get(block)
        if cached is None:
            # Seed streams: tag 0 = per-block trees, tag 1 = extras.
            rng = np.random.default_rng([seed, 0, block])
            cached = random_tree_edges(n, rng)
            block_trees.put(block, cached)
        return cached

    def provider(round_no: int) -> tuple[np.ndarray, np.ndarray]:
        block = round_no // t
        parts = [tree_for_block(block)]
        if block > 0:
            # The previous block's tree overlaps into this block, so
            # windows straddling the boundary still share a whole tree.
            parts.append(tree_for_block(block - 1))
        extras = bernoulli_pair_edges(
            n, np.random.default_rng([seed, 1, round_no]), extra_edge_p
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
