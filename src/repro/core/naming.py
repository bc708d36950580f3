"""The naming problem: assigning distinct identifiers anonymously.

Naming (Michail, Chatzigiannakis & Spirakis, DISC 2012 / SSS 2013 --
the papers this work builds on) asks every node to terminate with a
*unique* identifier.  Naming is strictly harder than counting in
anonymous networks: a node can only acquire a name that distinguishes
it if its **view** differs from every other node's, whereas the leader
can count populations of identical-view nodes in bulk.

This module connects the two through the view machinery:

* :func:`naming_is_possible` -- the exact feasibility test: a
  deterministic anonymous protocol can name the network by round ``d``
  iff all depth-``d`` views are distinct (view-equal nodes are in
  identical states under *every* protocol, so they would output the
  same name);
* :func:`name_by_views` -- the generic naming protocol achieving it:
  output the rank of your canonical view (runnable through the engine
  via :class:`ViewNamingProcess`, which computes its view online from
  the anonymous transcript);
* the star paradox used by the experiments: in ``G(PD)_1`` counting
  takes one round but naming is *impossible forever* -- spokes stay
  view-equal at every depth -- the cleanest illustration that the cost
  of anonymity depends on the question asked, not just the network.
"""

from __future__ import annotations

from repro.core.views import view_classes, view_table
from repro.networks.csr_native import DynamicGraph
from repro.simulation.engine import EngineConfig, SynchronousEngine
from repro.simulation.messages import Inbox
from repro.simulation.node import Process

__all__ = [
    "naming_is_possible",
    "earliest_naming_round",
    "name_by_views",
    "ViewNamingProcess",
    "run_view_naming",
]


def naming_is_possible(
    dynamic_graph: DynamicGraph,
    depth: int,
    *,
    leader: int | None = None,
) -> bool:
    """Whether any protocol can name the network within ``depth`` rounds."""
    classes = view_classes(dynamic_graph, depth, leader=leader)
    return all(len(members) == 1 for members in classes)


def earliest_naming_round(
    dynamic_graph: DynamicGraph,
    *,
    leader: int | None = None,
    max_depth: int = 64,
) -> int | None:
    """First round by which views separate all nodes, or ``None``.

    ``None`` means views did not separate within ``max_depth`` rounds;
    for networks with persistent symmetry (stars, vertex-transitive
    dynamics) they never will.
    """
    for depth in range(max_depth + 1):
        if naming_is_possible(dynamic_graph, depth, leader=leader):
            return depth
    return None


def name_by_views(
    dynamic_graph: DynamicGraph,
    depth: int,
    *,
    leader: int | None = None,
) -> dict[int, int] | None:
    """The generic naming assignment: rank of each node's view.

    Returns ``node -> name`` if depth-``depth`` views are all distinct,
    else ``None``.  Names are dense in ``0..n-1`` and deterministic
    (sorted by canonical view id), so every node can compute its own
    name from its own view -- no coordination needed.
    """
    table = view_table(dynamic_graph, depth, leader=leader)[depth]
    if len(set(table.values())) != dynamic_graph.n:
        return None
    ranked = {
        view_id: rank
        for rank, view_id in enumerate(sorted(set(table.values())))
    }
    return {node: ranked[table[node]] for node in table}


class ViewNamingProcess(Process):
    """Engine protocol computing the node's own view online.

    Each round the process broadcasts its current view (as a nested
    canonical structure) and folds the received multiset of views into
    the next level -- after ``horizon`` rounds it outputs its view
    structure, which is its tentative name.  Distinctness of outputs
    across nodes is exactly :func:`naming_is_possible`; the test suite
    checks the engine-computed views induce the same partition as the
    graph-level :func:`repro.core.views.view_classes`.
    """

    def __init__(self, is_leader: bool, horizon: int) -> None:
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.view: tuple = ("root", is_leader)
        self.horizon = horizon
        self._output = None

    def compose(self, round_no: int) -> tuple:
        return self.view

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        self.view = ("node", self.view, inbox.as_tuple())
        if round_no + 1 >= self.horizon and self._output is None:
            self._output = self.view


def run_view_naming(
    dynamic_graph: DynamicGraph,
    horizon: int,
    *,
    leader: int | None = 0,
) -> dict[int, tuple]:
    """Run the view-naming protocol through the engine.

    Returns each node's output view structure.  Two nodes receive the
    same "name" exactly when they are view-equal at depth ``horizon``
    -- i.e. when naming them apart is impossible.
    """
    processes = [
        ViewNamingProcess(node == leader, horizon)
        for node in range(dynamic_graph.n)
    ]
    engine = SynchronousEngine(
        processes,
        dynamic_graph,
        leader=None,
        config=EngineConfig(max_rounds=horizon, stop_when="budget"),
    )
    engine.run()
    return {
        node: process.output() for node, process in enumerate(processes)
    }
