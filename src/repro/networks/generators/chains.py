"""The Corollary 1 gadget: a static chain feeding a ``G(PD)_2`` core.

Corollary 1 lifts the ``G(PD)_2`` lower bound to any constant dynamic
diameter ``D``: the leader ``v_l`` is connected "to two nodes
``v_1, v_2`` by a static chain"; ``v_1, v_2`` then play the role of the
middle layer of a ``G(PD)_2`` network over the remaining nodes.  Any
counting algorithm first pays the chain's dissemination cost and then
still faces the anonymity ambiguity of the core, giving
``D + Ω(log |V|)`` rounds in total.

The construction here takes an ``M(DBL)_2`` instance (typically a
worst-case schedule from :mod:`repro.adversaries.worst_case`) as the
specification of the core's dynamics and prepends a static chain of a
chosen length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.networks.csr_native import DynamicGraph
from repro.networks.multigraph import DynamicMultigraph
from repro.simulation.errors import ModelError

__all__ = ["ChainPD2Layout", "chain_pd2_network"]


@dataclass(frozen=True)
class ChainPD2Layout:
    """Node-index layout of a chain + ``G(PD)_2``-core network.

    Attributes:
        leader: The leader node, index 0.
        chain: The static chain nodes, ordered from the leader outward.
        hubs: The two nodes ``(v_1, v_2)`` acting as the core's middle
            layer; both are adjacent to the last chain node (or to the
            leader when the chain is empty).
        outer: The anonymous core nodes, one per multigraph ``W`` node.
    """

    leader: int
    chain: tuple[int, ...]
    hubs: tuple[int, int]
    outer: tuple[int, ...]

    @property
    def n(self) -> int:
        """Total node count."""
        return 1 + len(self.chain) + len(self.hubs) + len(self.outer)

    def hub_for_label(self, label: int) -> int:
        """The hub node standing in for multigraph edge label ``label``."""
        if label not in (1, 2):
            raise ValueError("the core is an M(DBL)_2: labels are 1 and 2")
        return self.hubs[label - 1]


def chain_pd2_network(
    multigraph: DynamicMultigraph,
    chain_length: int,
    *,
    name: str | None = None,
) -> tuple[DynamicGraph, ChainPD2Layout]:
    """Build the Corollary 1 network from a core schedule.

    Args:
        multigraph: An ``M(DBL)_2`` instance; its label schedule drives
            the dynamic edges between the hubs and the outer nodes.
        chain_length: Number of static chain nodes between the leader and
            the hubs.  ``chain_length = 0`` degenerates to the plain
            Lemma 1 transformation (hubs adjacent to the leader).

    Returns:
        ``(graph, layout)``.  The distance from the leader to every outer
        node is ``chain_length + 2`` at every round, so the network's
        dynamic diameter grows linearly with ``chain_length`` while the
        core's ambiguity structure is untouched.
    """
    if multigraph.k != 2:
        raise ModelError("the Corollary 1 core must be an M(DBL)_2 instance")
    if chain_length < 0:
        raise ValueError("chain_length must be non-negative")

    chain = tuple(range(1, 1 + chain_length))
    hub_base = 1 + chain_length
    hubs = (hub_base, hub_base + 1)
    outer = tuple(range(hub_base + 2, hub_base + 2 + multigraph.n))
    layout = ChainPD2Layout(leader=0, chain=chain, hubs=hubs, outer=outer)

    static_edges: list[tuple[int, int]] = []
    anchor = 0
    for link in chain:
        static_edges.append((anchor, link))
        anchor = link
    static_edges.append((anchor, hubs[0]))
    static_edges.append((anchor, hubs[1]))

    def provider(round_no: int) -> tuple[np.ndarray, np.ndarray]:
        edges = static_edges + [
            (layout.hub_for_label(label), node)
            for w, node in enumerate(outer)
            for label in sorted(multigraph.labels(w, round_no))
        ]
        pairs = np.array(edges, dtype=np.int64)
        return pairs[:, 0], pairs[:, 1]

    label = (
        name
        if name is not None
        else f"chain{chain_length}+pd2({multigraph.name})"
    )
    return DynamicGraph(layout.n, provider, name=label), layout
