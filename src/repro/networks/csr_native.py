"""The :class:`DynamicGraph` abstraction (Definition 1 of the paper).

A dynamic graph is an infinite sequence ``G = {G_0, G_1, ...}`` of graphs
over a fixed node set ``V = {0, ..., n-1}``.  Here that sequence is a
pure function ``round -> (u, v)`` *edge index arrays*, following the
matrix-first design of connectivity models in network simulators, and
both views the engines consume are derived from those arrays --

* the CSR adjacency feeds the fast backend directly, no ``nx.Graph``
  per round -- the engine reads every lane's edges through
  :meth:`DynamicGraph.lane_edges` (which draws lanes sharing a batch
  form in one call) and builds the whole batch's stack at once
  (:func:`repro.networks.csr.csr_from_lane_edges`); ``to_csr`` is the
  one-graph build (:func:`repro.networks.csr.csr_from_edges`);
* the ``networkx`` view (:func:`repro.networks.csr.graph_from_edges`)
  feeds the object engine and the verification oracles.

Because the two views are built from identical arrays through
independent code paths, ``object == fast`` differential testing keeps
its teeth, and :mod:`repro.verify` checks the equivalence as a model
oracle (CSR-native lowering == networkx adjacency, every family).

Pieces:

* :class:`DynamicGraph` -- a dynamic graph built from an edge provider;
  ``to_csr`` never touches networkx, and its per-round edge and graph
  caches are LRU-bounded so fresh-graph-per-round runs hold O(1) memory.
* :meth:`DynamicGraph.from_graphs` -- an explicit finite prefix of
  ``networkx`` graphs with a ``hold``/``cycle``/``strict`` extension.
* :func:`precompile_schedule` -- lower a finite schedule prefix (e.g. a
  worst-case adversary instance) once into stacked per-round index
  arrays, validated eagerly; every subsequent ``edges`` is an O(1)
  lookup.

Edge providers must be *pure per round* (the same round always yields
the same edges), the convention every built-in family follows; purity
is what makes bounded caching safe -- an evicted round can simply be
recomputed.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable

import networkx as nx
import numpy as np

from repro.networks.csr import (
    CSRAdjacency,
    LRUCache,
    csr_from_edges,
    graph_from_edges,
    index_dtype_for,
    validate_edge_arrays,
    validate_lane_edges,
)
from repro.obs.metrics import counter
from repro.simulation.errors import ModelError, TopologyError, sorted_labels

__all__ = [
    "DynamicGraph",
    "EdgeArrays",
    "EdgeProvider",
    "precompile_schedule",
]

EdgeArrays = tuple[np.ndarray, np.ndarray]
"""Type alias: a ``(u, v)`` pair of edge index arrays."""

EdgeProvider = Callable[[int], tuple[np.ndarray, np.ndarray]]
"""An edge-array provider: ``round_no -> (u, v)`` index arrays."""

#: Default LRU capacity of the per-round edge/graph caches.  Must cover
#: at least the working set of one batched execution (all lanes touch
#: the same round number before moving on), which one entry already
#: does; the slack keeps short hold/cycle prefixes fully resident.
DEFAULT_ROUND_CACHE_SIZE = 64

_EXTEND_RULES = ("hold", "cycle", "strict")


class DynamicGraph:
    """An infinite sequence of graphs over the node set ``{0..n-1}``.

    Directly usable as an engine topology provider: the object engine
    uses the ``graph``/``at`` view (networkx graphs built lazily from
    the arrays), the fast backend reads ``round_key`` and the edges
    (through :meth:`lane_edges`) and builds validated CSR directly from
    the arrays, no ``nx.Graph`` on
    the hot path (``to_csr`` is the same build for one graph).

    Args:
        n: Number of nodes; every edge endpoint must lie in ``{0..n-1}``.
        edge_provider: Pure function ``round -> (u, v)`` edge arrays.
            Isolated nodes need no mention -- the node set is always
            exactly ``{0..n-1}``.
        name: Human-readable description (used in reports).
        round_key: Optional canonicalisation of round numbers before the
            provider and the caches see them -- static topologies and
            ``hold``/``cycle`` extension rules compress an infinite
            round axis onto a finite prefix, so repeated rounds share
            one cache entry (and, for the object view, one graph object,
            which keeps the engines' per-object validation memos
            effective).
        cache_rounds: LRU capacity of the per-round edge and graph
            caches (evictions are counted in
            ``adjacency.cache_evictions``).
    """

    def __init__(
        self,
        n: int,
        edge_provider: EdgeProvider,
        *,
        name: str = "dynamic-graph",
        round_key: Callable[[int], int] | None = None,
        cache_rounds: int = DEFAULT_ROUND_CACHE_SIZE,
    ) -> None:
        if n < 1:
            raise ValueError("a dynamic graph needs at least one node")
        self.n = n
        self.name = name
        self._edge_provider = edge_provider
        self._round_key = round_key
        # A provider that is the ``edges`` method of an object with an
        # ``edges_batch`` form (and a ``batch_key`` saying which others
        # it can share one with) may be drawn with other lanes at once.
        owner = getattr(edge_provider, "__self__", None)
        batchable = (
            round_key is None
            and hasattr(owner, "edges_batch")
            and edge_provider == getattr(owner, "edges", None)
        )
        self._batch_owner = owner if batchable else None
        self._edge_lru = LRUCache(cache_rounds, "adjacency.cache_evictions")
        self._nx_lru = LRUCache(cache_rounds, "adjacency.cache_evictions")

    @classmethod
    def from_graphs(
        cls,
        graphs: Sequence[nx.Graph],
        *,
        extend: str = "hold",
        name: str = "explicit-dynamic-graph",
    ) -> "DynamicGraph":
        """Build a dynamic graph from an explicit finite prefix.

        Only each graph's edge set is kept (edge attributes are
        dropped); later mutation of the passed graphs has no effect.

        Args:
            graphs: The graphs of rounds ``0..len(graphs)-1``.  Every
                graph must span exactly ``{0..n-1}`` for one shared
                ``n``; anything else raises :class:`ModelError` here,
                eagerly.
            extend: What happens after the prefix -- ``"hold"`` repeats
                the last graph forever, ``"cycle"`` loops back to round
                0, ``"strict"`` raises :class:`TopologyError` if a round
                past the prefix is requested.
        """
        if not graphs:
            raise ModelError("need at least one graph")
        node_sets = {frozenset(graph.nodes) for graph in graphs}
        if len(node_sets) != 1:
            raise ModelError(
                "all graphs of a dynamic graph must share one node set "
                "(the process set V is static); got "
                f"{len(node_sets)} distinct node sets"
            )
        nodes = node_sets.pop()
        expected = frozenset(range(len(nodes)))
        if nodes != expected:
            raise ModelError(
                f"graph nodes must be exactly {{0..{len(nodes) - 1}}}; "
                f"unexpected labels {sorted_labels(nodes - expected)}, "
                f"missing {sorted(expected - nodes)}"
            )
        per_round = []
        for graph in graphs:
            pairs = np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2)
            per_round.append((pairs[:, 0], pairs[:, 1]))
        return _prefix_graph(len(nodes), per_round, extend=extend, name=name)

    def cache_sizes(self) -> dict[str, int]:
        """Resident entries per internal cache (diagnostics, leak tests)."""
        return {
            "edges": len(self._edge_lru),
            "graphs": len(self._nx_lru),
        }

    # -- round canonicalisation ---------------------------------------

    def round_key(self, round_no: int) -> int:
        """The canonical round that ``round_no`` maps to.

        Rounds with equal keys have identical edges (static topologies,
        ``hold``/``cycle`` extensions), so callers may cache anything
        derived from a round's edges under its key.
        """
        if round_no < 0:
            raise ValueError("round numbers start at 0")
        if self._round_key is None:
            return round_no
        return self._round_key(round_no)

    # -- the edge-array view ------------------------------------------

    def edges(self, round_no: int) -> tuple[np.ndarray, np.ndarray]:
        """The round's validated ``(u, v)`` edge arrays (cached, LRU)."""
        key = self.round_key(round_no)
        cached = self._edge_lru.get(key)
        if cached is None:
            u, v = self._edge_provider(key)
            cached = validate_edge_arrays(self.n, u, v)
            self._edge_lru.put(key, cached)
        return cached

    @staticmethod
    def lane_edges(
        graphs: Sequence["DynamicGraph"], round_no: int
    ) -> list[EdgeArrays]:
        """Every graph's validated edge arrays for one round, in order.

        The fast engine's per-round entry point.  Graphs whose providers
        share a batch form (owners of one class with an ``edges_batch``
        and equal ``batch_key``, no ``round_key``), at least two of
        them, are drawn with one ``edges_batch`` call and validated once
        as a stack; their arrays bypass the per-graph edge LRU, which is
        safe because providers are pure.  Every other graph, and a
        batch group of one, goes through :meth:`edges` unchanged.  The
        arrays equal ``[graph.edges(round_no) for graph in graphs]`` in
        value and dtype.
        """
        if round_no < 0:
            raise ValueError("round numbers start at 0")
        out: list[EdgeArrays | None] = [None] * len(graphs)
        groups: dict[object, list[int]] = {}
        for index, graph in enumerate(graphs):
            owner = getattr(graph, "_batch_owner", None)
            if owner is None:
                out[index] = graph.edges(round_no)
            else:
                key = (type(owner), owner.batch_key)
                groups.setdefault(key, []).append(index)
        for indices in groups.values():
            if len(indices) == 1:
                out[indices[0]] = graphs[indices[0]].edges(round_no)
                continue
            owners = [graphs[index]._batch_owner for index in indices]
            u, v, bounds = owners[0].edges_batch(owners, round_no)
            u, v = validate_lane_edges(
                [graphs[index].n for index in indices],
                u,
                v,
                bounds,
                lanes=indices,
            )
            bounds = bounds.tolist()
            for lane, index in enumerate(indices):
                lo, hi = bounds[lane], bounds[lane + 1]
                out[index] = (u[lo:hi], v[lo:hi])
        return out

    # -- the CSR view (verification oracle) ---------------------------

    def to_csr(self, round_no: int) -> CSRAdjacency:
        """The round's CSR adjacency, built directly from edge arrays.

        Never constructs an ``nx.Graph``; validation (index range,
        self-loops, connectivity) runs on the arrays.  Not memoized:
        only the verification oracle and tests call this -- the fast
        engine builds every lane's round at once from :meth:`edges`.
        """
        return csr_from_edges(self.n, *self.edges(round_no))

    # -- the networkx view (object engine, oracles) -------------------

    def at(self, round_no: int) -> nx.Graph:
        """The round's graph as ``networkx`` (cached per canonical round).

        Rounds that canonicalise to the same key (static topologies,
        ``hold``/``cycle`` extensions) share one graph *object* while
        resident, so the engines' identity-keyed validation memos fire
        once per distinct graph.  The cache is LRU-bounded: the edge
        provider is pure per round, so an evicted round rebuilds
        bit-identically and long fresh-graph-per-round runs hold O(1)
        graph memory on the object path too.  Treat the returned graph
        as read-only.
        """
        key = self.round_key(round_no)
        cached = self._nx_lru.get(key)
        if cached is None:
            cached = graph_from_edges(self.n, *self.edges(round_no))
            self._nx_lru.put(key, cached)
        return cached

    def graph(self, round_no: int, processes: object = None) -> nx.Graph:
        """Topology-provider interface for the simulation engine."""
        return self.at(round_no)

    def window(self, rounds: int) -> list[nx.Graph]:
        """Return the graphs of rounds ``0..rounds-1``."""
        return [self.at(round_no) for round_no in range(rounds)]

    def __repr__(self) -> str:
        return f"DynamicGraph(n={self.n}, name={self.name!r})"


#: The pre-merge name of :class:`DynamicGraph`, kept for the benchmark
#: harness, which imports and instruments it by this name.
CSRDynamicGraph = DynamicGraph


def _prefix_graph(
    n: int,
    per_round: Sequence[EdgeArrays],
    *,
    extend: str,
    name: str,
) -> DynamicGraph:
    """A dynamic graph serving a finite prefix of per-round edge arrays.

    The prefix is held as one pair of stacked ``(u, v)`` arrays sliced
    per round, in the policy index dtype (int32 until ``n`` reaches
    2**31, with offsets sized to the *total* stacked edge count).
    Rounds past the prefix follow ``extend``; the caches hold the whole
    prefix, so held and cycled rounds share one entry per prefix round.
    """
    if extend not in _EXTEND_RULES:
        raise ValueError(f"extend must be one of {_EXTEND_RULES}")
    rounds = len(per_round)
    offsets = np.concatenate(
        ([0], np.cumsum([u.size for u, _ in per_round]))
    )
    offsets = offsets.astype(index_dtype_for(int(offsets[-1])))
    edge_dtype = index_dtype_for(n)
    u_all = (
        np.concatenate([u for u, _ in per_round]).astype(
            edge_dtype, copy=False
        )
        if offsets[-1]
        else np.empty(0, dtype=edge_dtype)
    )
    v_all = (
        np.concatenate([v for _, v in per_round]).astype(
            edge_dtype, copy=False
        )
        if offsets[-1]
        else np.empty(0, dtype=edge_dtype)
    )

    def round_key(round_no: int) -> int:
        if round_no < rounds:
            return round_no
        if extend == "hold":
            return rounds - 1
        if extend == "cycle":
            return round_no % rounds
        raise TopologyError(
            f"round {round_no} requested but only rounds 0..{rounds - 1} "
            f"of {name} are defined (extend='strict')"
        )

    def provider(key: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(offsets[key]), int(offsets[key + 1])
        return u_all[lo:hi], v_all[lo:hi]

    return DynamicGraph(
        n,
        provider,
        name=name,
        round_key=round_key,
        cache_rounds=max(rounds, DEFAULT_ROUND_CACHE_SIZE),
    )


def precompile_schedule(
    source: DynamicGraph,
    rounds: int,
    *,
    extend: str = "hold",
    name: str | None = None,
) -> DynamicGraph:
    """Precompile a schedule prefix into stacked per-round index arrays.

    For schedule-driven instances -- above all the worst-case adversary,
    whose entire point is a fixed finite schedule realising the
    ``Omega(log n)`` bound -- the prefix is lowered *once*, eagerly, into
    one pair of stacked ``(u, v)`` arrays plus per-round offsets and
    validated round by round, so range and self-loop errors surface
    here; every later ``edges`` call is an O(1) lookup, every later
    ``at`` call reuses one graph object per prefix round.

    Args:
        source: The dynamic graph to compile; its first ``rounds``
            rounds are read through ``edges()``.
        rounds: Prefix length to compile (must be >= 1).
        extend: What happens past the prefix: ``"hold"`` repeats the
            last compiled round, ``"cycle"`` wraps to round 0,
            ``"strict"`` raises :class:`TopologyError`.
        name: Optional description; defaults to the source's name with
            a ``:precompiled`` suffix.

    Returns:
        A :class:`DynamicGraph` over the same node set, serving the
        compiled prefix under the chosen extension rule.
    """
    if rounds < 1:
        raise ValueError("need at least one round to precompile")
    compiled = _prefix_graph(
        source.n,
        [source.edges(round_no) for round_no in range(rounds)],
        extend=extend,
        name=name if name is not None else f"{source.name}:precompiled",
    )
    # Eager validation: every prefix round's arrays are checked and
    # cached here, so the simulation loop never pays for it.
    for round_no in range(rounds):
        compiled.edges(round_no)
    counter("adjacency.precompiled_schedules")
    return compiled
