"""Concrete instances of the paper's worked figures.

* **Figure 1** shows a ``G(PD)_2`` graph along three rounds with dynamic
  diameter ``D = 4`` in which a flood started by an outer node ``v_0`` at
  round 0 reaches the outer node ``v_3`` at round 3.
* **Figure 2** shows an ``M(DBL)_3`` round in which a node ``v`` is
  connected to the leader by edges labeled ``{1, 2, 3}``, together with
  its Lemma 1 transformation.

The figures in the paper are drawings; the builders here return concrete
executable instances with exactly the stated properties, which the test
suite and ``benchmarks/bench_figures.py`` verify mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.networks.csr_native import DynamicGraph
from repro.networks.multigraph import DynamicMultigraph
from repro.networks.transform import PD2Layout, mdbl_to_pd2

__all__ = ["Figure1", "paper_figure1", "paper_figure2_multigraph"]


@dataclass(frozen=True)
class Figure1:
    """The Figure 1 instance and the names used in the paper's text.

    Attributes:
        graph: The periodic dynamic graph (period 3: rounds 0, 1, 2 as
            drawn, then cycling).
        layout: Node layout of the underlying ``G(PD)_2`` structure.
        v0: The outer node whose flood the text follows.
        v3: The outer node reached at round 3.
    """

    graph: DynamicGraph
    layout: PD2Layout
    v0: int
    v3: int


def paper_figure1() -> Figure1:
    """Build a ``G(PD)_2`` instance realising Figure 1.

    The instance has a leader, two middle nodes (persistent distance 1)
    and three outer nodes (persistent distance 2).  Outer node ``v_0``
    stays attached to the first middle node, ``v_3`` to the second, and a
    third outer node switches sides every round -- the topology changes
    each round yet all distances are persistent.  The resulting dynamic
    diameter is 4 (= ``2h`` for ``h = 2``) and a flood from ``v_0``
    started at round 0 reaches ``v_3`` exactly at round 3:

    * round 0 -- ``v_0`` informs its middle node ``m_1``;
    * round 1 -- ``m_1`` informs the leader;
    * round 2 -- the leader informs the other middle node ``m_2``;
    * round 3 -- ``m_2`` informs ``v_3``.
    """
    # Schedules over the period of 3 rounds: v0 on label 1, the switcher
    # alternates 1 -> 2 -> 1, v3 on label 2.
    one, two = frozenset({1}), frozenset({2})
    schedules = [
        [one, one, one],  # v0
        [one, two, one],  # the switching node
        [two, two, two],  # v3
    ]
    mdbl = DynamicMultigraph(2, schedules, extend="hold", name="figure1-core")
    pd2_graph, layout = mdbl_to_pd2(mdbl, name="figure1")
    periodic = DynamicGraph.from_graphs(
        [pd2_graph.at(round_no) for round_no in range(3)],
        extend="cycle",
        name="figure1",
    )
    return Figure1(
        graph=periodic,
        layout=layout,
        v0=layout.outer[0],
        v3=layout.outer[2],
    )


def paper_figure2_multigraph() -> DynamicMultigraph:
    """Build an ``M(DBL)_3`` round matching Figure 2.

    The figure shows a leader connected to four nodes of ``W``; the
    highlighted node ``v`` (index 3 here) has edge label set
    ``{1, 2, 3}`` -- the maximal example of parallel labeled edges.  The
    companion transformation (Figure 2's right half) is obtained by
    passing the result to :func:`repro.networks.transform.mdbl_to_pd2`.
    """
    schedules = [
        [frozenset({1})],
        [frozenset({2})],
        [frozenset({2, 3})],
        [frozenset({1, 2, 3})],  # the node v of the figure
    ]
    return DynamicMultigraph(3, schedules, name="figure2")
