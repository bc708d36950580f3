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
* :func:`csr_from_edges` -- the CSR-native path: build a validated
  adjacency straight from ``(u, v)`` edge index arrays, with no
  ``nx.Graph`` on the hot path -- the substrate of
  :class:`repro.networks.csr_native.DynamicGraph` (whose ``at`` builds
  the ``networkx`` oracle view of the same arrays);
* :func:`csr_from_lane_edges` -- the fast engine's per-round build: the
  block-diagonal adjacency of a whole batch of independent lanes (seeds
  x sizes of a sweep point) plus a per-lane connectivity flag, from the
  lanes' validated edge arrays in one pass, so the batch executes as
  one fused matvec per round;
* :func:`stack_adjacencies` -- block-diagonal stacking of already built
  lane adjacencies (the reference the fused build is tested against);
* :func:`component_labels` -- undirected component labels of one edge
  set, numbered as scipy's undirected labelling, for the generators
  that repair connectivity;
* :func:`validate_lane_edges` -- the model checks on edge arrays
  (integer endpoints in range, no self-loops) over several lanes
  stacked end to end, run once for the stack and naming the offending
  lane; :func:`validate_edge_arrays` is its one-lane case.

Every adjacency comes out of one edges->CSR kernel: directed keys
``(row << b) | col`` for both orientations, ``b = (n - 1).bit_length()``
bits per endpoint, packed into ``uint32`` while ``2b <= 32`` (every
stack up to 65,536 nodes) and ``uint64`` beyond; sorted once
(``np.unique`` hashes and then sorts on numpy >= 2.3, about twice the
cost), adjacent duplicates dropped, ``indices = keys & (2**b - 1)``
and ``indptr`` from a ``bincount`` of the rows ``keys >> b`` --
canonical CSR with unit weights and no COO round trip.  The packed
order is the row-major order of ``row * n + col``, so the arrays are
the same as with that key, at half its sort width and with no divide.
Several lanes go through the same kernel at once: each lane's
endpoints are shifted by its node offset first, so the sorted keys are
the block-diagonal matrix itself.  The matrix is symmetric by
construction, so a directed BFS from a lane's first node reaching the
whole lane is exactly that lane's connectivity, with no transpose.
Stacking concatenates the parts' arrays with node and nnz offsets,
which is the same block-diagonal matrix, already canonical.

Nothing here caches.  Its callers remember only the last round they
built (:class:`repro.networks.csr_native.DynamicGraph` and the fast
engine's lane block), so a fresh-graph-per-round workload holds O(1)
adjacencies and a held round is built once.

Parallel products: from its second product on, an adjacency with at
least :data:`PARALLEL_MIN_ENTRIES` stored entries, on a process allowed
two or more CPUs, splits ``A @ x`` into one contiguous row block per
CPU, balanced by stored entries (fewer blocks where a block would get
less than half the constant's entries).  Each block runs scipy's own CSR
kernel (the one ``matrix @ x`` calls, which releases the GIL) on its
slice of ``indptr`` and writes a disjoint slice of one output; the
calling thread runs the first block and a module-level thread pool the
rest.  Every row is still summed by one thread in stored order, so the
result is bit-identical to ``matrix @ x`` for any block count.  The
first product stays serial, so a fresh round's one-shot adjacency never
pays for the split.  A forked child forgets the parent's pools
(:func:`thread_pool`), whose threads it does not inherit.

Index dtype policy: every adjacency built here routes its CSR index
arrays through :func:`index_dtype_for` -- ``int32`` while every index
value (node count *and* stored entry count) fits, ``int64`` otherwise.
On mega-scale lanes this halves the adjacency index memory.  The
dedup keys are unsigned and sized to the packed key, never to the
storage dtype, so no intermediate can overflow; a stack of more than
``2**32`` nodes, whose key would not fit 64 bits, is refused.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import breadth_first_order, connected_components

from repro.obs.metrics import counter
from repro.simulation.errors import TopologyError, sorted_labels

__all__ = [
    "CSRAdjacency",
    "component_labels",
    "csr_from_edges",
    "csr_from_lane_edges",
    "index_dtype_for",
    "lower_graph",
    "stack_adjacencies",
    "thread_pool",
    "validate_edge_arrays",
    "validate_lane_edges",
]

#: Multi-lane stacks with fewer stored entries than this get their
#: per-lane connectivity from one strong-component labelling; larger
#: ones from one BFS out of a virtual root.  The BFS pays ~35 us to
#: build its extended matrix, but past this size it is about 2x cheaper
#: than the labelling (x86_64, scipy 1.17: 16 lanes x n=8, 17 us against
#: 48 us; 2 x 65,536-node trees, 5.1 ms against 10.6 ms).  Either method
#: alone loses about 2.5% of end-to-end wall time on one benchmark
#: workload; see benchmarks/results/perfbench-lane-connectivity.json.
LABEL_MAX_ENTRIES = 4096

#: First value that no longer fits an ``int32`` index.
INT32_LIMIT = 2**31

#: Reused adjacencies with at least this many stored entries split
#: their products into row blocks on a thread pool, each block keeping
#: at least half of it; smaller ones stay serial.  The blocked
#: product's dispatch (~25 us on a tiny matrix) is repaid from about
#: 16k entries in two blocks (x86_64, 2 vCPUs, scipy 1.17, random
#: trees, reused adjacency: ``(N, 2)`` 74 us serial against 78 us
#: blocked at 8,190 entries, 156 against 113 us at 16,382; ``(N,)`` 62
#: against 73 us at 12,286 and about even at 16,382); see
#: benchmarks/results/parallel-products-breakeven.json.  Only two
#: blocks were measured.
PARALLEL_MIN_ENTRIES = 16_384

#: CPUs this process may run on (its affinity, not a cgroup quota): the
#: most row blocks per parallel product.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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
    Instances are produced by :func:`lower_graph`, :func:`csr_from_edges`
    and :func:`csr_from_lane_edges` (validated), or
    :func:`stack_adjacencies` (block-diagonal batch), and treated as
    immutable.

    Attributes:
        n: Number of nodes (the matrix is ``n x n``).
        matrix: The underlying ``scipy.sparse`` CSR array (float64).
        connected: Whether the graph is connected; ``None`` for stacked
            batches (a block-diagonal never is, by construction; the
            per-lane flags come from :func:`csr_from_lane_edges`).
    """

    __slots__ = ("n", "matrix", "connected", "_degrees", "_cuts")

    def __init__(
        self, matrix: sp.csr_array, *, connected: bool | None
    ) -> None:
        self.n = int(matrix.shape[0])
        self.matrix = matrix
        self.connected = connected
        self._degrees: np.ndarray | None = None
        # None before the first product, () after it, then the row cuts.
        # The first product stays serial: flooding fresh 12,288-node
        # trees (24,574 entries) read 11% slower with it split, in 9 of
        # 10 pairs in each of two runs; see
        # benchmarks/results/first-products.json.
        self._cuts: tuple[int, ...] | None = None

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
        return self._product(x)

    def matmul(self, X: np.ndarray) -> np.ndarray:
        """``A @ X`` for a dense per-node state matrix ``X``."""
        return self._product(X)

    def _product(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``, split into row blocks from the second product on."""
        cuts = self._cuts
        if cuts is None:
            self._cuts = ()
            return self.matrix @ x
        if not cuts:
            cuts = self._cuts = _row_cuts(self.matrix)
        if len(cuts) > 2 and _blockable(x, self.n):
            counter("adjacency.parallel_products")
            return _blocked_product(self.matrix, cuts, x)
        return self.matrix @ x

    def __repr__(self) -> str:
        return (
            f"CSRAdjacency(n={self.n}, edges={self.edges}, "
            f"connected={self.connected})"
        )


def _row_cuts(matrix: sp.csr_array) -> tuple[int, ...]:
    """Row cuts ``(0, ..., n)`` of one block per CPU, balanced by entries.

    Each block keeps at least ``PARALLEL_MIN_ENTRIES / 2`` entries, the
    block size the constant was measured at, so a host allowed many
    CPUs makes fewer, larger blocks.  One block, ``(0, n)``, when the
    matrix is too small to repay the split or the process may run on
    one CPU only.
    """
    n = int(matrix.shape[0])
    blocks = min(_WORKERS, 2 * matrix.nnz // PARALLEL_MIN_ENTRIES)
    if blocks < 2 or matrix.dtype != np.float64:
        return (0, n)
    targets = matrix.nnz * np.arange(1, blocks) // blocks
    inner = np.searchsorted(matrix.indptr, targets).tolist()
    return tuple(dict.fromkeys([0, *inner, n]))


def _blockable(x: np.ndarray, n: int) -> bool:
    """Whether ``x`` is an input the blocked product takes as is."""
    return (
        x.__class__ is np.ndarray
        and x.dtype == np.float64
        and 1 <= x.ndim <= 2
        and x.shape[0] == n
        and x.size > 0
    )


def _blocked_product(
    matrix: sp.csr_array, cuts: Sequence[int], x: np.ndarray
) -> np.ndarray:
    """``matrix @ x`` with rows ``cuts[i]:cuts[i + 1]`` as block ``i``.

    Block 0 runs on the calling thread, the rest on the pool.  A
    ``(N, 1)`` input goes through the one-vector kernel, as in scipy.
    """
    if x.ndim == 2 and x.shape[1] == 1:
        return _blocked_product(matrix, cuts, x[:, 0]).reshape(-1, 1)
    x = np.ascontiguousarray(x)
    out = np.zeros(x.shape)
    blocks = list(zip(cuts[:-1], cuts[1:]))
    pool = _executor()
    pending = [
        pool.submit(_block_product, matrix, lo, hi, x, out)
        for lo, hi in blocks[1:]
    ]
    _block_product(matrix, *blocks[0], x, out)
    for future in pending:
        future.result()
    return out


def _block_product(
    matrix: sp.csr_array, lo: int, hi: int, x: np.ndarray, out: np.ndarray
) -> None:
    """Rows ``lo:hi`` of ``matrix @ x`` into ``out[lo:hi]`` (zeroed)."""
    indptr = matrix.indptr[lo : hi + 1]
    if x.ndim == 1:
        _sparsetools.csr_matvec(
            hi - lo, matrix.shape[1], indptr, matrix.indices, matrix.data,
            x, out[lo:hi],
        )
    else:
        _sparsetools.csr_matvecs(
            hi - lo, matrix.shape[1], x.shape[1], indptr, matrix.indices,
            matrix.data, x.ravel(), out[lo:hi].ravel(),
        )


#: Thread pools made on first use, by name.  A forked child forgets
#: them all: their threads are not there.
_pools: dict[str, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def thread_pool(name: str, workers: int) -> ThreadPoolExecutor:
    """The process's pool ``name``, made with ``workers`` threads on first use.

    Callers whose tasks may themselves submit to a pool need a pool of
    their own: a task waiting on its own pool's only thread never ends.
    """
    pool = _pools.get(name)
    if pool is None:
        with _pools_lock:
            pool = _pools.get(name)
            if pool is None:
                pool = _pools[name] = ThreadPoolExecutor(
                    workers, thread_name_prefix=name
                )
    return pool


def _executor() -> ThreadPoolExecutor:
    """The blocked products' thread pool, created on first use."""
    return thread_pool("csr-product", max(_WORKERS - 1, 1))


def _forget_pools() -> None:
    """Drop the parent's pools in a forked child: their threads are not there."""
    global _pools_lock
    _pools.clear()
    _pools_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


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
    u, v = validate_edge_arrays(expected, edges[:, 0], edges[:, 1])
    adjacency, _ = _lane_csr(np.array([0, expected]), u, v)
    counter("adjacency.builds")
    return adjacency


def validate_edge_arrays(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``(u, v)`` edge index arrays against the engine's model.

    The array analogue of the checks :func:`lower_graph` performs on an
    ``nx.Graph``: endpoints must be integer node indices in
    ``{0..n-1}`` and no edge may be a self-loop.  Returns the arrays
    coerced to 1-D ``index_dtype_for(n)`` (``int32`` for every
    realistic ``n``).  The one-lane case of
    :func:`validate_lane_edges`.

    Raises:
        TopologyError: Boolean or non-integer endpoint, endpoint out of
            range, self-loop, or shape mismatch between the two arrays.
    """
    u, v = _endpoint_array(u), _endpoint_array(v)
    return _validated((n,), u, v, (0, u.size), None)


def validate_lane_edges(
    sizes: Sequence[int],
    u: np.ndarray,
    v: np.ndarray,
    bounds: Sequence[int],
    *,
    lanes: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate several lanes' edge arrays, stacked end to end, at once.

    Lane ``i`` owns entries ``bounds[i]:bounds[i + 1]`` of ``u`` and
    ``v``; its endpoints are local node indices, checked against
    ``{0..sizes[i]-1}``.  Endpoints must be integers (booleans and
    fractional floats are refused; integral floats, such as the float64
    of an empty list, pass) and no edge may be a self-loop.  The checks
    run once over the stack, whatever the lane count.  Returns the
    stacked arrays as 1-D ``index_dtype_for(max(sizes))``.

    Args:
        sizes: Node count of every lane.
        u: Stacked edge source indices.
        v: Stacked edge target indices, same length as ``u``.
        bounds: ``len(sizes) + 1`` offsets of the lanes into ``u``/``v``.
        lanes: The lanes' labels in error messages (default their
            positions).  With several lanes every message names the
            offending lane; with one it reads as
            :func:`validate_edge_arrays`'s.

    Raises:
        TopologyError: As :func:`validate_edge_arrays`, or when
            ``bounds`` does not cover the arrays.
    """
    u, v = _endpoint_array(u), _endpoint_array(v)
    return _validated(sizes, u, v, bounds, lanes)


def _validated(sizes, u, v, bounds, lanes) -> tuple[np.ndarray, np.ndarray]:
    """:func:`validate_lane_edges` on arrays :func:`_endpoint_array` made."""
    if u.size != v.size:
        raise TopologyError(
            f"edge arrays disagree in length ({u.size} vs {v.size})"
        )
    if int(bounds[-1]) != u.size:
        raise TopologyError(
            f"lane bounds cover {int(bounds[-1])} edges, the arrays "
            f"hold {u.size}"
        )
    if u.size:
        # Range-check in the arrays' own integer dtype (narrowing first
        # would wrap out-of-range endpoints past the check); an unsigned
        # view turns negatives into huge values, so one max per array
        # checks both ends.
        if len(sizes) == 1 or min(sizes) == max(sizes):
            outside = max(_unsigned(u).max(), _unsigned(v).max()) >= sizes[0]
        else:
            limit = np.repeat(sizes, np.diff(bounds))
            outside = ((_unsigned(u) >= limit) | (_unsigned(v) >= limit)).any()
        if outside:
            _raise_outside(sizes, u, v, bounds, lanes)
        if (u == v).any():
            _raise_self_loop(sizes, u, v, bounds, lanes)
    dtype = index_dtype_for(max(sizes))
    return u.astype(dtype, copy=False), v.astype(dtype, copy=False)


def _endpoint_array(a: np.ndarray) -> np.ndarray:
    """``a`` as a 1-D integer array, refusing non-integer endpoints."""
    a = np.asarray(a)
    if a.ndim != 1:
        a = a.reshape(-1)
    kind = a.dtype.kind
    if kind in "iu":
        return a
    if kind == "b":
        raise TopologyError(
            "edge endpoints are booleans, not integer node indices"
        )
    if kind == "f":
        fractional = ~np.isfinite(a) | (a != np.trunc(a))
        if fractional.any():
            raise TopologyError(
                f"edge endpoint {a[fractional][0]} is not an integer "
                "node index"
            )
    return a.astype(np.int64)


def _unsigned(a: np.ndarray) -> np.ndarray:
    """A signed integer array viewed as unsigned, so negatives are huge."""
    if a.dtype.kind == "i":
        return a.view(a.dtype.str.replace("i", "u"))
    return a


def _raise_outside(sizes, u, v, bounds, lanes) -> None:
    limit = np.repeat(sizes, np.diff(bounds))
    bad = (u < 0) | (u >= limit) | (v < 0) | (v >= limit)
    lane, lo_at, hi_at = _lane_of(int(np.flatnonzero(bad)[0]), bounds)
    lane_u, lane_v = u[lo_at:hi_at], v[lo_at:hi_at]
    lo = min(int(lane_u.min()), int(lane_v.min()))
    hi = max(int(lane_u.max()), int(lane_v.max()))
    raise TopologyError(
        f"{_lane_prefix(sizes, lanes, lane)}edge endpoint "
        f"{lo if lo < 0 else hi} outside the process indices "
        f"0..{sizes[lane] - 1}"
    )


def _raise_self_loop(sizes, u, v, bounds, lanes) -> None:
    loops = np.flatnonzero(u == v)
    lane, lo_at, hi_at = _lane_of(int(loops[0]), bounds)
    loops = loops[loops < hi_at]
    where = sorted(set(u[loops][:10].tolist()))
    raise TopologyError(
        f"{_lane_prefix(sizes, lanes, lane)}self-loop at node(s) {where}; "
        "a process is never its own neighbour"
    )


def _lane_of(index: int, bounds) -> tuple[int, int, int]:
    """The lane holding stacked entry ``index``, and that lane's span."""
    lane = int(np.searchsorted(bounds, index, side="right")) - 1
    return lane, int(bounds[lane]), int(bounds[lane + 1])


def _lane_prefix(sizes, lanes, lane: int) -> str:
    if len(sizes) == 1:
        return ""
    return f"lane {lane if lanes is None else lanes[lane]}: "


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
    u, v = validate_edge_arrays(n, u, v)
    adjacency, _ = csr_from_lane_edges([n], [(u, v)])
    return adjacency


def csr_from_lane_edges(
    sizes: Sequence[int], edges: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[CSRAdjacency, np.ndarray]:
    """Build the block-diagonal adjacency of several lanes in one pass.

    Lane ``i`` has ``sizes[i]`` nodes and the undirected edges
    ``edges[i] = (u, v)`` over its local indices ``{0..sizes[i]-1}``.
    Each lane's endpoints are shifted by its node offset and the whole
    stack goes through the edges->CSR kernel once, so the result is
    bit-identical to ``stack_adjacencies([csr_from_edges(...), ...])``
    at a fraction of the per-lane call overhead.

    The edge arrays must already be valid for their lane -- in range,
    no self-loops, equal lengths -- as :func:`validate_edge_arrays` and
    :meth:`repro.networks.csr_native.DynamicGraph.edges` return them;
    they are not checked again here.

    Args:
        sizes: Node count of every lane (each at least 1).
        edges: One validated ``(u, v)`` pair per lane.

    Returns:
        ``(adjacency, connected)``: the stacked adjacency (whose
        ``connected`` is the lane's flag for a single lane and ``None``
        for several) and a boolean array with each lane's connectivity.
    """
    if len(sizes) != len(edges) or not sizes:
        raise ValueError(
            f"need one edge pair per lane and at least one lane; got "
            f"{len(sizes)} sizes and {len(edges)} edge pairs"
        )
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if (offsets[1:] <= offsets[:-1]).any():
        raise ValueError(f"every lane needs at least one node, got {sizes}")
    if len(edges) == 1:
        u, v = edges[0]
    else:
        shift = np.repeat(offsets[:-1], [pair[0].size for pair in edges])
        u = np.concatenate([pair[0] for pair in edges], dtype=np.int64)
        v = np.concatenate([pair[1] for pair in edges], dtype=np.int64)
        u += shift
        v += shift
    adjacency, connected = _lane_csr(offsets, u, v)
    counter("adjacency.builds")
    counter("adjacency.native_builds")
    if len(edges) > 1:
        counter("adjacency.stack_builds")
    return adjacency, connected


def _lane_csr(
    offsets: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[CSRAdjacency, np.ndarray]:
    """The one edges->CSR kernel behind every adjacency of this module.

    ``u``/``v`` are valid endpoints on the stacked node axis, lane ``i``
    spanning ``[offsets[i], offsets[i + 1])``.
    """
    matrix = _symmetric_csr(int(offsets[-1]), u, v)
    connected = _lane_connectivity(matrix, offsets)
    single = bool(connected[0]) if connected.size == 1 else None
    return CSRAdjacency(matrix, connected=single), connected


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray) -> sp.csr_array:
    """The canonical symmetric unit-weight ``n x n`` CSR of edges ``(u, v)``."""
    bits = (n - 1).bit_length()
    if bits > 32:
        raise ValueError(
            f"{n} nodes need {2 * bits}-bit edge keys; the CSR kernel "
            "packs a key into 64 bits, so a stack holds at most 2**32 nodes"
        )
    key_dtype = np.uint32 if 2 * bits <= 32 else np.uint64
    u, v = u.astype(key_dtype), v.astype(key_dtype)
    keys = np.empty(2 * u.size, dtype=key_dtype)
    forward, backward = keys[: u.size], keys[u.size :]
    np.left_shift(u, bits, out=forward)
    forward |= v
    np.left_shift(v, bits, out=backward)
    backward |= u
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    rows = keys >> bits
    if key_dtype is np.uint64:
        # Rows are below 2**32, so the signed view bincount needs is exact.
        rows = rows.view(np.int64)
    dtype = index_dtype_for(max(n, keys.size))
    indptr = np.zeros(n + 1, dtype=dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    cols = (keys & key_dtype((1 << bits) - 1)).astype(dtype)
    matrix = sp.csr_array((np.ones(cols.size), cols, indptr), shape=(n, n))
    matrix.has_canonical_format = True
    return matrix


def component_labels(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph ``(u, v)`` on ``n`` nodes.

    Returns ``(count, labels)`` exactly as scipy's
    ``connected_components(..., directed=False)`` numbers them: labels
    in ``[0, count)``, ordered by each component's smallest node.  The
    symmetric CSR comes straight from the edges->CSR kernel, so no COO
    matrix is built.  On a symmetric matrix every strong component is
    an undirected one, and scipy's strong labelling tries roots in node
    order and numbers each component as its root finishes, which is
    that same smallest-node order; ``tests/networks/
    test_component_labels.py`` holds it to the undirected labelling.

    The edge arrays must be valid endpoints in ``{0..n-1}``; they are
    not checked here.
    """
    count, labels = connected_components(
        _symmetric_csr(n, u, v), directed=True, connection="strong"
    )
    return int(count), labels


def _lane_connectivity(matrix: sp.csr_array, offsets: np.ndarray) -> np.ndarray:
    """Per-lane connectivity of a symmetric block-diagonal matrix.

    A directed search suffices: the matrix is symmetric, so the set
    reached from a lane's first node is exactly its component.
    """
    n = int(offsets[-1])
    lanes = offsets.size - 1
    starts = offsets[:-1]
    if lanes == 1:
        reached = n <= 1 or breadth_first_order(
            matrix, 0, directed=True, return_predecessors=False
        ).size == n
        return np.array([reached])
    if matrix.nnz < LABEL_MAX_ENTRIES:
        count, labels = connected_components(
            matrix, directed=True, connection="strong"
        )
        if count == lanes:
            return np.ones(lanes, dtype=bool)
        split = labels != np.repeat(labels[starts], np.diff(offsets))
        return ~np.logical_or.reduceat(split, starts)
    # A virtual root (node n) with one out-edge to every lane's first
    # node: one BFS from it reaches each lane's component.
    dtype = index_dtype_for(max(n + 1, matrix.nnz + lanes))
    indptr = np.empty(n + 2, dtype=dtype)
    indptr[:-1] = matrix.indptr
    indptr[-1] = matrix.nnz + lanes
    indices = np.concatenate([matrix.indices, starts]).astype(dtype)
    rooted = sp.csr_array(
        (np.ones(indices.size), indices, indptr), shape=(n + 1, n + 1)
    )
    seen = np.zeros(n + 1, dtype=bool)
    seen[
        breadth_first_order(rooted, n, directed=True, return_predecessors=False)
    ] = True
    return np.logical_and.reduceat(seen[:n], starts)


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

