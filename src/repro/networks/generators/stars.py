"""Star networks -- the ``G(PD)_1`` family.

A graph in ``G(PD)_1`` has every non-leader node at persistent distance
1 from the leader, which forces the star with the leader at the centre
at every round: the adversary "cannot change any of such graphs without
compromising the connectivity of the graph itself" (Section 1).  The
leader counts a star in a single round regardless of anonymity, which is
the paper's baseline observation before moving to ``G(PD)_2``.
"""

from __future__ import annotations

import numpy as np

from repro.networks.csr_native import DynamicGraph

__all__ = ["star_network"]


def star_network(n: int, *, leader: int = 0) -> DynamicGraph:
    """The ``G(PD)_1`` star on ``n`` nodes with the leader at the centre.

    Args:
        n: Total number of nodes (leader included); must be at least 2.
        leader: Index of the centre node.

    Returns:
        A :class:`DynamicGraph` that is the same star at every round;
        every round maps to one round key, so the star is validated,
        lowered and built as a graph object once.
    """
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    if not 0 <= leader < n:
        raise ValueError(f"leader index {leader} out of range for n={n}")
    spokes = np.delete(np.arange(n), leader)
    hubs = np.full(spokes.size, leader)
    return DynamicGraph(
        n,
        lambda _key: (hubs, spokes),
        name=f"star({n})",
        round_key=lambda _round_no: 0,
    )
