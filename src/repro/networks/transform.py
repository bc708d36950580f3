"""The Lemma 1 transformation: ``M(DBL)_k`` to ``G(PD)_2``.

Lemma 1 turns a dynamic multigraph ``M_r = ({v_l} ∪ W, E(r), f_r, l_r)``
into a two-layer persistent-distance graph ``G_r``: a middle layer
``V_1`` gets one node per edge label, and an outer node ``w ∈ V_2 = W``
is adjacent to middle node ``j`` at round ``r`` exactly when ``M`` has an
edge ``(v_l, w)`` labeled ``j`` at round ``r``.  The leader is adjacent
to all of ``V_1`` at every round, so ``V_1`` sits at persistent distance
1 and ``V_2`` at persistent distance 2 (every ``W`` node always has at
least one label).

The construction is what carries the multigraph lower bound over to
``G(PD)_2``: counting in the transformed graph is at least as hard as in
the multigraph, because the leader of ``M`` corresponds to the *merged
memories* of ``{v_l} ∪ V_1`` in ``G`` -- strictly more information than
the anonymous ``G`` leader has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.networks.csr_native import DynamicGraph
from repro.networks.multigraph import DynamicMultigraph

__all__ = ["PD2Layout", "mdbl_to_pd2"]


@dataclass(frozen=True)
class PD2Layout:
    """Node-index layout of a transformed ``G(PD)_2`` graph.

    Attributes:
        leader: Index of the leader node (``V_0``), always 0.
        middle: Indices of the ``V_1`` nodes; ``middle[j - 1]`` is the
            node standing in for edge label ``j``.
        outer: Indices of the ``V_2`` nodes; ``outer[w]`` corresponds to
            node ``w`` of the multigraph's ``W``.
    """

    leader: int
    middle: tuple[int, ...]
    outer: tuple[int, ...]

    @property
    def n(self) -> int:
        """Total number of nodes, ``1 + |V_1| + |V_2|``."""
        return 1 + len(self.middle) + len(self.outer)

    def middle_for_label(self, label: int) -> int:
        """The ``V_1`` node that stands in for edge label ``label``."""
        return self.middle[label - 1]

    def label_for_middle(self, node: int) -> int:
        """Inverse of :meth:`middle_for_label`."""
        return self.middle.index(node) + 1


def mdbl_to_pd2(
    multigraph: DynamicMultigraph, *, name: str | None = None
) -> tuple[DynamicGraph, PD2Layout]:
    """Transform an ``M(DBL)_k`` instance into a ``G(PD)_2`` dynamic graph.

    Returns the dynamic graph together with its :class:`PD2Layout`.  The
    graph's rounds mirror the multigraph's rounds one to one: outer node
    ``layout.outer[w]`` is adjacent to ``layout.middle_for_label(j)`` at
    round ``r`` iff ``j in multigraph.labels(w, r)``.

    Example:
        >>> from repro.networks import DynamicMultigraph, mdbl_to_pd2
        >>> mdbl = DynamicMultigraph(
        ...     2, [[frozenset({1})], [frozenset({1, 2})]]
        ... )
        >>> graph, layout = mdbl_to_pd2(mdbl)
        >>> sorted(graph.at(0).edges())
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4)]
    """
    k = multigraph.k
    layout = PD2Layout(
        leader=0,
        middle=tuple(range(1, k + 1)),
        outer=tuple(range(k + 1, k + 1 + multigraph.n)),
    )

    spine = [(layout.leader, middle) for middle in layout.middle]

    def provider(round_no: int) -> tuple[np.ndarray, np.ndarray]:
        pairs = np.array(
            spine
            + [
                (layout.middle_for_label(label), outer)
                for w, outer in enumerate(layout.outer)
                for label in sorted(multigraph.labels(w, round_no))
            ],
            dtype=np.int64,
        )
        return pairs[:, 0], pairs[:, 1]

    graph_name = name if name is not None else f"pd2({multigraph.name})"
    return DynamicGraph(layout.n, provider, name=graph_name), layout
