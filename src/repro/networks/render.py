"""Plain-text rendering of dynamic graphs and multigraph rounds.

Round-by-round ASCII views used by the examples and handy in a REPL:

* :func:`render_round` -- adjacency view of one round's graph;
* :func:`render_dynamic_graph` -- several rounds side by side in time;
* :func:`render_multigraph_round` -- an ``M(DBL)_k`` round as a
  label table (which labels connect each ``W`` node to the leader);
* :func:`render_ambiguity_curve` -- a bar chart of interval widths.
"""

from __future__ import annotations

import networkx as nx

from repro.networks.csr_native import DynamicGraph
from repro.networks.multigraph import DynamicMultigraph

__all__ = [
    "render_round",
    "render_dynamic_graph",
    "render_multigraph_round",
    "render_ambiguity_curve",
]


def render_round(
    graph: nx.Graph, *, labels: dict[int, str] | None = None
) -> str:
    """Adjacency-list view of one communication round."""
    labels = labels or {}
    lines = []
    for node in sorted(graph.nodes):
        name = labels.get(node, str(node))
        neighbours = ", ".join(
            labels.get(other, str(other))
            for other in sorted(graph.neighbors(node))
        )
        lines.append(f"  {name}: {neighbours}")
    return "\n".join(lines)


def render_dynamic_graph(
    dynamic_graph: DynamicGraph,
    rounds: int,
    *,
    labels: dict[int, str] | None = None,
) -> str:
    """Rounds ``0..rounds-1`` as stacked adjacency views."""
    blocks = []
    for round_no in range(rounds):
        graph = dynamic_graph.at(round_no)
        blocks.append(
            f"round {round_no} "
            f"({graph.number_of_edges()} edges):\n"
            + render_round(graph, labels=labels)
        )
    return "\n".join(blocks)


def render_multigraph_round(
    multigraph: DynamicMultigraph, round_no: int
) -> str:
    """One ``M(DBL)_k`` round as a per-node label table."""
    width = len(str(multigraph.n - 1))
    lines = [f"round {round_no} (k = {multigraph.k}):"]
    for node in range(multigraph.n):
        labels = ",".join(
            str(label) for label in sorted(multigraph.labels(node, round_no))
        )
        lines.append(f"  w{node:<{width}} --[{labels}]-- leader")
    return "\n".join(lines)


def render_ambiguity_curve(widths: list[int], *, max_bar: int = 40) -> str:
    """Interval widths per round as a horizontal bar chart."""
    if not widths:
        return "(no rounds)"
    peak = max(max(widths), 1)
    scale = min(1.0, max_bar / peak)
    lines = []
    for round_no, width in enumerate(widths):
        bar = "#" * max(1 if width else 0, int(round(width * scale)))
        lines.append(f"  round {round_no:>2}: {bar} {width}")
    return "\n".join(lines)
