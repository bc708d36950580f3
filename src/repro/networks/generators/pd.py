"""Random layered ``G(PD)_h`` dynamic networks.

A ``G(PD)_h`` graph partitions nodes into layers ``V_0 = {leader},
V_1, ..., V_h`` by persistent distance (Section 3).  Distances stay
persistent across arbitrary rewiring as long as

* every edge joins nodes in the same layer or in adjacent layers, and
* every node in layer ``i >= 1`` keeps at least one edge into layer
  ``i - 1``.

The generator below rewires the graph randomly every round under exactly
those constraints, which makes it a *fair* adversary over the ``G(PD)_h``
family.  Rounds are sampled from a per-round seed derived from the
master seed, so the produced dynamic graph is a pure function of
``(seed, round)`` and runs are reproducible.  Rounds are emitted
CSR-natively as ``(u, v)`` edge arrays: mandatory parent edges are one
vectorized draw per layer, optional inter/intra-layer extras one
Bernoulli mask over the precomputed pair template.
"""

from __future__ import annotations

import numpy as np

from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.streams import round_rng

__all__ = ["random_pd_network"]


def random_pd_network(
    layer_sizes: list[int],
    *,
    seed: int = 0,
    extra_edge_p: float = 0.2,
    intra_layer_p: float = 0.0,
    name: str | None = None,
) -> tuple[DynamicGraph, list[list[int]]]:
    """Generate a random ``G(PD)_h`` dynamic graph (CSR-native).

    Args:
        layer_sizes: Sizes of layers ``V_1..V_h`` (``h = len(layer_sizes)``);
            every entry must be positive.  ``V_0`` is the leader, node 0.
        seed: Master seed; each round is an independent sample keyed by
            ``(seed, round)``.
        extra_edge_p: Probability of each optional extra edge between
            adjacent layers (beyond the mandatory one per node).
        intra_layer_p: Probability of each optional intra-layer edge.
            The paper's *restricted* model (Discussion, Section 4.2)
            corresponds to ``intra_layer_p = 0``.
        name: Optional description.

    Returns:
        ``(graph, layers)`` where ``layers[i]`` lists the node indices of
        ``V_i`` (``layers[0] == [0]``).
    """
    if not layer_sizes:
        raise ValueError("need at least one layer")
    if any(size < 1 for size in layer_sizes):
        raise ValueError("every layer must have at least one node")
    if not 0.0 <= extra_edge_p <= 1.0 or not 0.0 <= intra_layer_p <= 1.0:
        raise ValueError("probabilities must be in [0, 1]")

    layers: list[list[int]] = [[0]]
    next_index = 1
    for size in layer_sizes:
        layers.append(list(range(next_index, next_index + size)))
        next_index += size
    n = next_index

    layer_arrays = [np.array(layer, dtype=np.int64) for layer in layers]

    # Pair templates are fixed by the layer structure, so precompute the
    # candidate (node, parent) and intra-layer (node, node) index arrays
    # once; per round only the Bernoulli masks are redrawn.
    cross_u: list[np.ndarray] = []
    cross_v: list[np.ndarray] = []
    intra_u: list[np.ndarray] = []
    intra_v: list[np.ndarray] = []
    for depth in range(1, len(layer_arrays)):
        above, current = layer_arrays[depth - 1], layer_arrays[depth]
        if extra_edge_p > 0.0:
            grid_node, grid_parent = np.meshgrid(current, above, indexing="ij")
            cross_u.append(grid_node.ravel())
            cross_v.append(grid_parent.ravel())
        if intra_layer_p > 0.0 and current.size > 1:
            pair_i, pair_j = np.triu_indices(current.size, 1)
            intra_u.append(current[pair_i])
            intra_v.append(current[pair_j])
    cross_pairs = (
        (np.concatenate(cross_u), np.concatenate(cross_v))
        if cross_u
        else (np.empty(0, dtype=np.int64),) * 2
    )
    intra_pairs = (
        (np.concatenate(intra_u), np.concatenate(intra_v))
        if intra_u
        else (np.empty(0, dtype=np.int64),) * 2
    )

    def provider(round_no: int) -> tuple[np.ndarray, np.ndarray]:
        rng = round_rng(seed, round_no)
        parts_u: list[np.ndarray] = []
        parts_v: list[np.ndarray] = []
        for depth in range(1, len(layer_arrays)):
            above, current = layer_arrays[depth - 1], layer_arrays[depth]
            # Mandatory edge keeping the persistent distance exact.
            parents = above[rng.integers(above.size, size=current.size)]
            parts_u.append(current)
            parts_v.append(parents)
        if cross_pairs[0].size:
            mask = rng.random(cross_pairs[0].size) < extra_edge_p
            parts_u.append(cross_pairs[0][mask])
            parts_v.append(cross_pairs[1][mask])
        if intra_pairs[0].size:
            mask = rng.random(intra_pairs[0].size) < intra_layer_p
            parts_u.append(intra_pairs[0][mask])
            parts_v.append(intra_pairs[1][mask])
        return np.concatenate(parts_u), np.concatenate(parts_v)

    label = name if name is not None else f"pd{len(layer_sizes)}({layer_sizes})"
    return DynamicGraph(n, provider, name=label), layers
