"""Verifiers for the structural properties the paper's model relies on.

* **1-interval connectivity** (Kuhn, Lynch & Oshman, STOC 2010): every
  round's graph is connected.
* **Persistent distance** (Definitions 3-4): a node's distance from the
  leader is the same at every round; ``G(PD)_h`` additionally bounds that
  distance by ``h``.
* **Dynamic diameter** ``D`` (Section 3): the maximum, over start nodes
  and start rounds, of the number of rounds a flood needs to reach every
  node.  Computed here by exhaustive simulated flooding, which is the
  definition itself.

These functions operate directly on :class:`repro.networks.DynamicGraph`
objects (graph level).  Protocol-level flooding through the actual
message-passing engine lives in :mod:`repro.core.counting.flooding` and
is checked against these graph-level results in the test suite.
"""

from __future__ import annotations

from collections import deque

import networkx as nx

from repro.networks.csr_native import DynamicGraph
from repro.simulation.errors import ModelError

__all__ = [
    "is_interval_connected",
    "is_t_interval_connected",
    "persistent_distances",
    "verify_pd",
    "pd_layers",
    "flood_completion_time",
    "dynamic_diameter",
]


def is_interval_connected(dynamic_graph: DynamicGraph, rounds: int) -> bool:
    """Check 1-interval connectivity over rounds ``0..rounds-1``."""
    return all(
        nx.is_connected(dynamic_graph.at(round_no)) for round_no in range(rounds)
    )


def is_t_interval_connected(
    dynamic_graph: DynamicGraph, t: int, rounds: int
) -> bool:
    """Check ``T``-interval connectivity (Kuhn, Lynch & Oshman).

    True when for every window of ``t`` consecutive rounds inside
    ``0..rounds-1`` the *intersection* of the window's edge sets is a
    connected spanning subgraph.  ``t = 1`` reduces to
    :func:`is_interval_connected`.
    """
    if t < 1:
        raise ValueError("the window T must be at least 1")
    if rounds < t:
        raise ValueError("need at least T rounds to check a window")
    # Each round is read once: the window slides over its edge sets.
    window: deque[set] = deque(maxlen=t)
    for round_no in range(rounds):
        window.append(set(map(frozenset, dynamic_graph.at(round_no).edges())))
        if len(window) < t:
            continue
        edges = set.intersection(*window)
        stable = nx.Graph()
        stable.add_nodes_from(range(dynamic_graph.n))
        stable.add_edges_from(tuple(edge) for edge in edges)
        if dynamic_graph.n > 1 and not nx.is_connected(stable):
            return False
    return True


def persistent_distances(
    dynamic_graph: DynamicGraph, leader: int, rounds: int
) -> dict | None:
    """Distances from the leader if they are persistent, else ``None``.

    Returns a mapping ``node -> d`` such that ``d_r(node, leader) = d``
    for every ``r < rounds`` (Definition 3), or ``None`` if any node's
    distance changes across the window or any node is ever unreachable.
    """
    reference: dict | None = None
    for round_no in range(rounds):
        distances = nx.single_source_shortest_path_length(
            dynamic_graph.at(round_no), leader
        )
        if len(distances) != dynamic_graph.n:
            return None
        if reference is None:
            reference = dict(distances)
        elif distances != reference:
            return None
    return reference


def verify_pd(
    dynamic_graph: DynamicGraph,
    leader: int,
    h: int,
    rounds: int,
) -> dict:
    """Assert that the graph is in ``G(PD)_h`` over the given window.

    Returns:
        The persistent distance of every node from the leader.

    Raises:
        ModelError: Distances are not persistent, or exceed ``h``.
    """
    distances = persistent_distances(dynamic_graph, leader, rounds)
    if distances is None:
        raise ModelError(
            f"{dynamic_graph!r} does not have persistent distances from "
            f"node {leader} over {rounds} rounds"
        )
    worst = max(distances.values())
    if worst > h:
        raise ModelError(
            f"{dynamic_graph!r} has a node at persistent distance {worst} "
            f"> h = {h}"
        )
    return distances


def pd_layers(
    dynamic_graph: DynamicGraph, leader: int, h: int, rounds: int
) -> list[list[int]]:
    """Partition nodes into layers ``V_0..V_h`` by persistent distance.

    ``V_0`` is ``[leader]``; ``V_i`` holds the nodes at persistent
    distance ``i``.  Raises :class:`ModelError` via :func:`verify_pd` if
    the graph is not in ``G(PD)_h``.
    """
    distances = verify_pd(dynamic_graph, leader, h, rounds)
    layers: list[list[int]] = [[] for _ in range(h + 1)]
    for node, distance in sorted(distances.items()):
        layers[distance].append(node)
    return layers


def flood_completion_time(
    dynamic_graph: DynamicGraph,
    source: int,
    start_round: int = 0,
    *,
    horizon: int = 10_000,
) -> int:
    """Rounds needed for a flood from ``source`` to inform every node.

    A flood started at ``start_round`` means: ``source`` broadcasts at
    ``start_round`` and every informed node re-broadcasts at every later
    round.  The returned value ``t`` is the smallest number of rounds
    such that all nodes are informed after the receive phase of round
    ``start_round + t - 1`` (so a star completes in 1).

    Raises:
        ModelError: The flood does not complete within ``horizon`` rounds
            (possible only if connectivity is violated).
    """
    (elapsed,) = _flood_completion_times(
        dynamic_graph, [source], start_round, horizon
    )
    if elapsed is None:
        raise _unfinished_flood(source, start_round, horizon)
    return elapsed


def _flood_completion_times(
    dynamic_graph: DynamicGraph,
    sources: list[int],
    start_round: int,
    horizon: int,
) -> list[int | None]:
    """:func:`flood_completion_time` of every source (``None`` past the
    horizon), flooding them side by side so each round is read once."""
    n = dynamic_graph.n
    informed = {index: {source} for index, source in enumerate(sources)}
    times: list[int | None] = [None] * len(sources)
    for elapsed in range(1, horizon + 1):
        if not informed:
            break
        graph = dynamic_graph.at(start_round + elapsed - 1)
        for index, nodes in list(informed.items()):
            nodes |= {
                neighbour for node in nodes for neighbour in graph.neighbors(node)
            }
            if len(nodes) == n:
                times[index] = elapsed
                del informed[index]
    return times


def _unfinished_flood(source: int, start_round: int, horizon: int) -> ModelError:
    return ModelError(
        f"flood from node {source} at round {start_round} did not complete "
        f"within {horizon} rounds"
    )


def dynamic_diameter(
    dynamic_graph: DynamicGraph,
    *,
    start_rounds: int = 1,
    sources: list[int] | None = None,
    horizon: int = 10_000,
) -> int:
    """Measure the dynamic diameter ``D`` by exhaustive flooding.

    ``D`` is the maximum of :func:`flood_completion_time` over all
    sources and all start rounds in ``0..start_rounds-1``.  For graphs
    with a finite period (or static suffix), choosing ``start_rounds``
    to cover the period makes this the exact dynamic diameter.
    """
    if sources is None:
        sources = list(range(dynamic_graph.n))
    times = [
        _flood_completion_times(dynamic_graph, sources, start_round, horizon)
        for start_round in range(start_rounds)
    ]
    for position, source in enumerate(sources):
        for start_round in range(start_rounds):
            if times[start_round][position] is None:
                raise _unfinished_flood(source, start_round, horizon)
    return max(elapsed for row in times for elapsed in row)
