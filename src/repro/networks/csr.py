"""CSR adjacency lowering for the vectorized simulation backend.

The object engine (:class:`repro.simulation.engine.SynchronousEngine`)
walks ``networkx`` neighbour lists per process per round -- fine for
protocol fidelity, but the Python-level loop dominates wall-clock time
on large sweeps.  The fast backend (:mod:`repro.simulation.fast`)
instead *lowers* each round's graph once into a compressed-sparse-row
adjacency matrix so the whole receive phase becomes a single sparse
matvec (or a dense matmul for set-valued states).

This module owns that lowering:

* :class:`CSRAdjacency` -- an immutable CSR view of one round's graph
  (degrees, matvec, matmul), validated at construction;
* :func:`lower_graph` -- ``nx.Graph`` -> :class:`CSRAdjacency` with the
  engine's model checks (node set ``{0..n-1}``, no self-loops,
  connectivity);
* :func:`csr_from_edges` / :func:`graph_from_edges` -- the CSR-native
  path: build a validated adjacency (or its ``networkx`` oracle view)
  straight from ``(u, v)`` edge index arrays, with no ``nx.Graph`` on
  the hot path -- the substrate of
  :class:`repro.networks.csr_native.CSRDynamicGraph`;
* :class:`AdjacencyCache` -- memoizes the lowering *per graph object*,
  so a :class:`~repro.networks.dynamic_graph.DynamicGraph` that serves
  the same cached graph under ``extend="hold"``/``"cycle"`` is lowered
  and validated exactly once instead of once per round;
* :func:`stack_adjacencies` / :class:`StackCache` -- block-diagonal
  stacking of independent lanes, so a batch of runs (seeds x sizes of a
  sweep point) executes as one fused matvec per round.

Every adjacency comes out of one edges->CSR kernel: directed keys
``row * n + col`` for both orientations, sorted once (``np.unique``
hashes and then sorts on numpy >= 2.3, about twice the cost), adjacent
duplicates dropped, ``indices = keys % n`` and ``indptr`` from a row
``bincount`` -- canonical CSR with unit weights and no COO round trip.
The matrix is symmetric by construction, so a directed BFS from node 0
reaching all ``n`` nodes is exactly connectivity, with no transpose.
Stacking concatenates the parts' arrays with node and nnz offsets,
which is the block-diagonal matrix itself, already canonical.

Both caches are *bounded* (LRU): a fresh-graph-per-round workload used
to retain one lowered graph + CSR matrix per executed round for the
cache's lifetime; evictions are observable through the
``adjacency.cache_evictions`` / ``adjacency.stack_evictions`` counters.

Index dtype policy: every adjacency built here routes its CSR index
arrays through :func:`index_dtype_for` -- ``int32`` while every index
value (node count *and* stored entry count) fits, ``int64`` otherwise.
On mega-scale lanes this halves the adjacency index memory; the dedup
key arithmetic in :func:`csr_from_edges` always runs in ``int64`` so
the narrower storage dtype can never overflow intermediate products.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable, Sequence

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from repro.obs.metrics import counter
from repro.simulation.errors import TopologyError, sorted_labels

__all__ = [
    "CSRAdjacency",
    "AdjacencyCache",
    "StackCache",
    "LRUCache",
    "csr_from_edges",
    "graph_from_edges",
    "index_dtype_for",
    "lower_graph",
    "stack_adjacencies",
    "validate_edge_arrays",
]

#: Default LRU capacity of :class:`AdjacencyCache`.  Large enough that
#: every realistic batch of held/cycled topologies stays fully cached,
#: small enough that a fresh-graph-per-round run holds O(1) memory.
DEFAULT_ADJACENCY_CACHE_SIZE = 128

#: Default LRU capacity of :class:`StackCache`.  Lane combinations
#: change at most once per round, so a handful of entries suffice.
DEFAULT_STACK_CACHE_SIZE = 32

#: First value that no longer fits an ``int32`` index.
INT32_LIMIT = 2**31


def index_dtype_for(n: int) -> np.dtype:
    """The narrowest index dtype able to hold values in ``[-1, n]``.

    The single dtype-policy chokepoint for every CSR index array,
    lane-offset array, and engine accumulator: ``int32`` while ``n``
    fits (halving index memory on mega-scale lanes), ``int64`` past
    ``2**31 - 1``.  Callers must size ``n`` to the *largest value
    stored* -- for a CSR matrix that is ``max(n_nodes, nnz)`` because
    ``indptr`` ends at ``nnz``.
    """
    return np.dtype(np.int32 if n < INT32_LIMIT else np.int64)


class CSRAdjacency:
    """One round's communication graph in CSR form.

    Wraps a symmetric ``scipy.sparse`` CSR matrix with unit weights.
    Instances are produced by :func:`lower_graph` (validated) or
    :func:`stack_adjacencies` (block-diagonal batch) and treated as
    immutable.

    Attributes:
        n: Number of nodes (the matrix is ``n x n``).
        matrix: The underlying ``scipy.sparse`` CSR array (float64).
        connected: Whether the graph is connected; ``None`` for stacked
            batches (a block-diagonal never is, by construction).
    """

    __slots__ = ("n", "matrix", "connected", "_degrees")

    def __init__(
        self, matrix: sp.csr_array, *, connected: bool | None
    ) -> None:
        self.n = int(matrix.shape[0])
        self.matrix = matrix
        self.connected = connected
        self._degrees: np.ndarray | None = None

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree vector (cached)."""
        if self._degrees is None:
            self._degrees = np.diff(self.matrix.indptr).astype(np.int64)
        return self._degrees

    @property
    def edges(self) -> int:
        """Number of undirected edges."""
        return int(self.matrix.nnz) // 2

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``: per-node sum of the neighbours' values."""
        return self.matrix @ x

    def matmul(self, X: np.ndarray) -> np.ndarray:
        """``A @ X`` for a dense per-node state matrix ``X``."""
        return self.matrix @ X

    def __repr__(self) -> str:
        return (
            f"CSRAdjacency(n={self.n}, edges={self.edges}, "
            f"connected={self.connected})"
        )


def lower_graph(graph: nx.Graph, *, n: int | None = None) -> CSRAdjacency:
    """Lower one ``nx.Graph`` to a validated :class:`CSRAdjacency`.

    Performs the engine's model checks once, at lowering time:

    * the node set must be exactly ``{0, ..., n-1}``,
    * self-loops are rejected (a process is never its own neighbour),
    * connectivity is computed and recorded (callers enforce the
      1-interval connectivity assumption against ``.connected``).

    Args:
        graph: The round's communication graph.
        n: Expected node count; defaults to ``graph.number_of_nodes()``.

    Raises:
        TopologyError: Node set mismatch or self-loop.
    """
    expected = graph.number_of_nodes() if n is None else n
    if graph.number_of_nodes() != expected or set(graph.nodes) != set(
        range(expected)
    ):
        raise TopologyError(
            f"graph nodes {sorted_labels(graph.nodes)[:10]}... do not "
            f"match the process indices 0..{expected - 1}"
        )
    loops = [node for node, _ in nx.selfloop_edges(graph)]
    if loops:
        raise TopologyError(
            f"self-loop at node(s) {sorted(loops)[:10]}; a process is "
            "never its own neighbour"
        )
    edges = np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2)
    adjacency = _adjacency_from_edges(expected, edges[:, 0], edges[:, 1])
    counter("adjacency.builds")
    return adjacency


def validate_edge_arrays(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``(u, v)`` edge index arrays against the engine's model.

    The array analogue of the checks :func:`lower_graph` performs on an
    ``nx.Graph``: endpoints must lie in ``{0..n-1}`` and no edge may be
    a self-loop.  Returns the arrays coerced to 1-D
    ``index_dtype_for(n)`` (``int32`` for every realistic ``n``).

    Raises:
        TopologyError: Endpoint out of range, self-loop, or shape
            mismatch between the two arrays.
    """
    # Validate in int64 (narrowing first would wrap out-of-range
    # endpoints past the range check), store in the policy dtype.
    u = np.asarray(u, dtype=np.int64).reshape(-1)
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    if u.shape != v.shape:
        raise TopologyError(
            f"edge arrays disagree in length ({u.size} vs {v.size})"
        )
    if u.size:
        lo = min(int(u.min()), int(v.min()))
        hi = max(int(u.max()), int(v.max()))
        if lo < 0 or hi >= n:
            raise TopologyError(
                f"edge endpoint {lo if lo < 0 else hi} outside the "
                f"process indices 0..{n - 1}"
            )
        loops = np.flatnonzero(u == v)
        if loops.size:
            where = sorted(set(u[loops][:10].tolist()))
            raise TopologyError(
                f"self-loop at node(s) {where}; a process is never its "
                "own neighbour"
            )
    dtype = index_dtype_for(n)
    return u.astype(dtype, copy=False), v.astype(dtype, copy=False)


def csr_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> CSRAdjacency:
    """Build a validated :class:`CSRAdjacency` straight from edge arrays.

    The CSR-native fast path: no ``nx.Graph`` is constructed.  Edges
    are undirected; duplicates (in either orientation) collapse to one
    edge, matching ``nx.Graph`` semantics, so generators may emit a
    mandatory backbone plus independently sampled extras without
    deduplicating first.

    Args:
        n: Number of nodes (the matrix is ``n x n``).
        u: Edge source indices (any integer array).
        v: Edge target indices, same length as ``u``.

    Raises:
        TopologyError: Endpoint out of range or self-loop.
    """
    adjacency = _adjacency_from_edges(n, u, v)
    counter("adjacency.builds")
    counter("adjacency.native_builds")
    return adjacency


def _adjacency_from_edges(
    n: int, u: np.ndarray, v: np.ndarray
) -> CSRAdjacency:
    """The one edges->CSR kernel behind every adjacency of this module."""
    u, v = validate_edge_arrays(n, u, v)
    # Keys stay int64 whatever the storage dtype: ``row * n + col``
    # reaches ~n^2, which overflows int32 from n ~ 46341.
    u, v = u.astype(np.int64), v.astype(np.int64)
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    rows, cols = np.divmod(keys[keep], n)
    dtype = index_dtype_for(max(n, rows.size))
    indptr = np.zeros(n + 1, dtype=dtype)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    matrix = sp.csr_array(
        (np.ones(cols.size), cols.astype(dtype), indptr), shape=(n, n)
    )
    matrix.has_canonical_format = True
    connected = n <= 1 or breadth_first_order(
        matrix, 0, directed=True, return_predecessors=False
    ).size == n
    return CSRAdjacency(matrix, connected=connected)


def graph_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> nx.Graph:
    """The ``networkx`` oracle view of the same ``(u, v)`` edge arrays.

    Used by the object engine and the verification oracles; the fast
    backend never calls this.  Runs the same validation as
    :func:`csr_from_edges`, so the two views are built from identical
    inputs through independent code paths.
    """
    u, v = validate_edge_arrays(n, u, v)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(u.tolist(), v.tolist()))
    return graph


class LRUCache:
    """A small bounded mapping with LRU eviction and an eviction counter.

    The shared bounding mechanism of :class:`AdjacencyCache`,
    :class:`StackCache`, and the per-round caches of
    :class:`repro.networks.csr_native.CSRDynamicGraph`.  Every eviction
    increments ``evict_metric`` so unbounded-growth regressions are
    observable in any metrics snapshot.
    """

    def __init__(self, maxsize: int, evict_metric: str) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = maxsize
        self._evict_metric = evict_metric
        self._data: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> object | None:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: object) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            counter(self._evict_metric)

    def clear(self) -> None:
        self._data.clear()


class AdjacencyCache:
    """Memoize :func:`lower_graph` per graph *object*, LRU-bounded.

    Keys are object identities; each live entry holds a strong reference
    to its lowered graph, so an id can never be reused while its entry
    is still in the cache (the id-stability contract).  Once an entry is
    *evicted* its graph may be collected and its id reused -- which is
    safe: the entry is gone, so a reused id is a plain miss and the new
    graph is lowered afresh (the ``cached[0] is graph`` guard keeps
    same-slot overwrites honest).

    A provider that serves the same cached graph for many rounds
    (``extend="hold"``, ``"cycle"``, any static topology) pays for
    validation and lowering exactly once; a fresh-graph-per-round run
    now holds at most ``maxsize`` lowered rounds instead of all of them
    (evictions are counted in ``adjacency.cache_evictions``).

    Mutating a graph after it has been lowered is unsupported (the
    memoized adjacency would go stale) -- the same contract the object
    engine's per-round validation memo has.
    """

    def __init__(self, maxsize: int = DEFAULT_ADJACENCY_CACHE_SIZE) -> None:
        self._lru = LRUCache(maxsize, "adjacency.cache_evictions")

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        """Drop every entry (per-run scoping for long-lived caches)."""
        self._lru.clear()

    def lower(self, graph: nx.Graph, *, n: int | None = None) -> CSRAdjacency:
        """The memoized CSR adjacency of ``graph``."""
        cached = self._lru.get(id(graph))
        if cached is not None and cached[0] is graph:
            counter("adjacency.cache_hits")
            return cached[1]
        adjacency = lower_graph(graph, n=n)
        self._lru.put(id(graph), (graph, adjacency))
        return adjacency


def stack_adjacencies(parts: Sequence[CSRAdjacency]) -> CSRAdjacency:
    """Block-diagonally stack independent lanes into one adjacency.

    The stacked matrix never mixes nodes across lanes, so one matvec on
    it is exactly the per-lane matvecs fused -- the batched execution
    primitive of the fast backend.
    """
    if not parts:
        raise ValueError("need at least one adjacency to stack")
    if len(parts) == 1:
        return parts[0]
    n = sum(part.n for part in parts)
    dtype = index_dtype_for(max(n, sum(part.matrix.nnz for part in parts)))
    indices, indptr = [], [np.zeros(1, dtype=dtype)]
    offset = nnz = 0
    for part in parts:
        indices.append(part.matrix.indices.astype(dtype) + offset)
        indptr.append(part.matrix.indptr[1:].astype(dtype) + nnz)
        offset += part.n
        nnz += part.matrix.nnz
    data = np.concatenate([part.matrix.data for part in parts])
    matrix = sp.csr_array(
        (data, np.concatenate(indices), np.concatenate(indptr)),
        shape=(n, n),
    )
    matrix.has_canonical_format = all(
        part.matrix.has_canonical_format for part in parts
    )
    counter("adjacency.stack_builds")
    return CSRAdjacency(matrix, connected=None)


class StackCache:
    """Memoize :func:`stack_adjacencies` per tuple of part identities,
    LRU-bounded.

    On static or ``hold``-extended dynamics every round stacks the same
    per-lane adjacencies, so the fused matrix is built once per distinct
    combination instead of once per round; on dynamic workloads where
    lane identities change every round, old ``(parts, stacked)`` tuples
    are evicted instead of retained forever (counted in
    ``adjacency.stack_evictions``).
    """

    def __init__(self, maxsize: int = DEFAULT_STACK_CACHE_SIZE) -> None:
        self._lru = LRUCache(maxsize, "adjacency.stack_evictions")

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        """Drop every entry (per-run scoping for long-lived caches)."""
        self._lru.clear()

    def stack(self, parts: Iterable[CSRAdjacency]) -> CSRAdjacency:
        parts = tuple(parts)
        key = tuple(id(part) for part in parts)
        cached = self._lru.get(key)
        if cached is not None:
            kept, stacked = cached
            # A hit's key is an id-tuple equal to ours, so the lengths
            # must match by construction; a changed-length lane list can
            # therefore never masquerade as an id-reuse collision.
            assert len(kept) == len(parts), (
                f"stack cache key of length {len(parts)} hit an entry "
                f"with {len(kept)} parts"
            )
            if all(a is b for a, b in zip(kept, parts)):
                counter("adjacency.stack_hits")
                return stacked
        stacked = stack_adjacencies(parts)
        self._lru.put(key, (parts, stacked))
        return stacked
