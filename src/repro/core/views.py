"""Views and indistinguishability in anonymous dynamic networks.

The classic tool for reasoning about anonymous computation (Yamashita &
Kameda, PODC 1988, adapted here to dynamic graphs): the **view** of a
node at depth ``d`` is the tree of everything it could possibly have
learned after ``d`` rounds -- its leader flag at the root and, per
round, the multiset of its neighbours' views one level shallower.  Two
nodes with equal depth-``d`` views have exchanged identical information
with an identical environment, so *no deterministic anonymous protocol
whatsoever* can put them in different states after ``d`` rounds.

This is the semantic foundation under the paper's Section 4: the
ambiguity among "multiple dynamic paths" in ``G(PD)_2`` is precisely
view-equality of distinct middle/outer nodes.  The module provides

* :func:`view` -- the canonical (hash-consed) view of a node;
* :func:`view_classes` -- the partition of nodes into
  indistinguishability classes per depth;
* :func:`indistinguishable` -- the pairwise test;
* :func:`symmetry_degree` -- the size of the largest class, a lower
  bound on how many nodes must behave identically.

Views are computed bottom-up per round and hash-consed (equal subtrees
share one canonical object), so comparing views is O(1) after
construction and the construction itself is polynomial in
``n · rounds · edges`` rather than exponential in the tree size.
"""

from __future__ import annotations

from repro.networks.csr_native import DynamicGraph

__all__ = [
    "view",
    "view_table",
    "view_classes",
    "indistinguishable",
    "symmetry_degree",
]


def view_table(
    dynamic_graph: DynamicGraph,
    depth: int,
    *,
    leader: int | None = None,
) -> list[dict[int, int]]:
    """Canonical view ids of every node at depths ``0..depth``.

    Returns ``tables`` where ``tables[d][v]`` is an integer id such that
    two nodes (of this network) have equal depth-``d`` views iff their
    ids are equal.

    Args:
        dynamic_graph: The network.
        depth: Maximum view depth (= number of communication rounds).
        leader: Optional distinguished node; its root label differs,
            which is how the model's unique leader breaks symmetry.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = dynamic_graph.n
    interner: dict[tuple, int] = {}

    def intern(key: tuple) -> int:
        if key not in interner:
            interner[key] = len(interner)
        return interner[key]

    # Depth 0: only the initial asymmetry (leader flag) is visible.
    current = {
        node: intern(("root", node == leader)) for node in range(n)
    }
    tables = [dict(current)]
    # Depth d views extend depth d-1 views with the multiset of
    # neighbours' depth d-1 views, round by round *backwards from the
    # last round*: after rounds 0..d-1 a node has seen its round-(d-1)
    # neighbours' states-after-rounds-0..d-2, and so on.  Computing
    # forward with re-interning per level realises exactly that
    # recursion.
    for level in range(1, depth + 1):
        graph = dynamic_graph.at(level - 1)
        previous = tables[level - 1]
        current = {}
        for node in range(n):
            neighbour_views = tuple(
                sorted(previous[other] for other in graph.neighbors(node))
            )
            current[node] = intern(
                ("node", previous[node], neighbour_views)
            )
        tables.append(dict(current))
    return tables


def view(
    dynamic_graph: DynamicGraph,
    node: int,
    depth: int,
    *,
    leader: int | None = None,
) -> int:
    """Canonical id of one node's depth-``depth`` view."""
    return view_table(dynamic_graph, depth, leader=leader)[depth][node]


def view_classes(
    dynamic_graph: DynamicGraph,
    depth: int,
    *,
    leader: int | None = None,
) -> list[list[int]]:
    """Indistinguishability classes after ``depth`` rounds.

    Returns the partition of nodes by depth-``depth`` view, each class
    sorted, classes sorted by their smallest member.  Nodes in one
    class are in identical protocol states after ``depth`` rounds under
    *every* deterministic anonymous protocol.
    """
    table = view_table(dynamic_graph, depth, leader=leader)[depth]
    classes: dict[int, list[int]] = {}
    for node in range(dynamic_graph.n):
        classes.setdefault(table[node], []).append(node)
    return sorted(classes.values(), key=lambda members: members[0])


def indistinguishable(
    dynamic_graph: DynamicGraph,
    node_a: int,
    node_b: int,
    depth: int,
    *,
    leader: int | None = None,
) -> bool:
    """Whether two nodes have equal views after ``depth`` rounds."""
    table = view_table(dynamic_graph, depth, leader=leader)[depth]
    return table[node_a] == table[node_b]


def symmetry_degree(
    dynamic_graph: DynamicGraph,
    depth: int,
    *,
    leader: int | None = None,
) -> int:
    """Size of the largest indistinguishability class after ``depth`` rounds.

    1 means the network is fully de-anonymised (every node could, in
    principle, act uniquely); ``n`` means total symmetry.  In a star
    with a centre leader this stays ``n - 1`` forever -- the spokes can
    never be told apart, which is why naming is impossible there even
    though counting takes one round.
    """
    return max(
        len(members)
        for members in view_classes(dynamic_graph, depth, leader=leader)
    )
