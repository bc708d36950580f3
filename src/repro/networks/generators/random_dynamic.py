"""Fair (non-worst-case) dynamic network adversaries.

The paper contrasts the worst-case adversary with a *fair* one that
"creates or removes edges ... following a strategy that does not aim to
violate the correctness of the distributed algorithm (e.g., random
strategy)" -- the typical behaviour of peer-to-peer overlays.  These
generators produce 1-interval-connected random dynamics used by the
baseline experiments (gossip size estimation, ID-based counting).

The family is CSR-native: rounds are sampled as ``(u, v)`` edge index
arrays with vectorized NumPy draws, and both the ``networkx`` view (the
object engine's oracle) and the CSR adjacency (the fast backend's hot
path) are derived from the same arrays.  A fresh graph per round
therefore costs O(n) array work on the fast path instead of a Python
tree-building loop plus a networkx -> CSR lowering, and the fast
engine draws a batch's lanes of one size together
(:meth:`RandomConnectedAdversary.edges_batch`), paying the per-call
overhead once per round instead of once per lane.
"""

from __future__ import annotations

from collections.abc import Sequence

import networkx as nx
import numpy as np

from repro.networks.csr import graph_from_edges, index_dtype_for
from repro.networks.csr_native import DynamicGraph

__all__ = [
    "RandomConnectedAdversary",
    "bernoulli_pair_edges",
    "random_connected_edges",
    "random_connected_graph",
    "random_tree_edges",
]

#: Cached ``np.triu_indices`` per node count -- the all-pairs index
#: template used by vectorized Bernoulli edge sampling.  Bounded: only
#: the sizes actually swept are materialised, and entries are O(n^2)
#: ints, the same asymptotics the per-pair Python loops had.  Each
#: :class:`RandomConnectedAdversary` resolves its template here once and
#: keeps it, so sweeping more sizes than the cache holds never rebuilds
#: a template per round.
_PAIR_TEMPLATES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_PAIR_TEMPLATE_LIMIT = 8


def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _PAIR_TEMPLATES.get(n)
    if cached is None:
        if len(_PAIR_TEMPLATES) >= _PAIR_TEMPLATE_LIMIT:
            _PAIR_TEMPLATES.pop(next(iter(_PAIR_TEMPLATES)))
        cached = np.triu_indices(n, 1)
        cached = (cached[0].astype(np.int64), cached[1].astype(np.int64))
        _PAIR_TEMPLATES[n] = cached
    return cached


_NO_PAIRS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _pairs_for(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The node pairs a Bernoulli(``p``) draw on ``n`` nodes ranges over.

    Empty when nothing is drawn (``p == 0`` or a single node), so those
    cases consume no randomness and build no O(n^2) template.
    """
    return _all_pairs(n) if p > 0.0 and n >= 2 else _NO_PAIRS


def random_tree_edges(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a uniform random labeled tree as edge arrays (vectorized).

    The attachment construction: nodes join in a random order, each
    attaching to a uniformly chosen earlier node -- the same family the
    object-path sampler always used, drawn with two vectorized calls
    instead of ``n`` Python-level ones.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if n == 1:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = rng.permutation(n).astype(np.int64)
    positions = np.arange(1, n, dtype=np.int64)
    # floor(uniform[0,1) * position) is uniform over {0..position-1}.
    parents = np.floor(rng.random(n - 1) * positions).astype(np.int64)
    return order[positions], order[parents]


def bernoulli_pair_edges(
    n: int, rng: np.random.Generator, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each of the ``n(n-1)/2`` node pairs independently with prob ``p``."""
    return _pair_edges(_pairs_for(n, p), rng, p)


def _pair_edges(
    pairs: tuple[np.ndarray, np.ndarray], rng: np.random.Generator, p: float
) -> tuple[np.ndarray, np.ndarray]:
    u, v = pairs
    if u.size == 0:
        return u, v
    mask = rng.random(u.size) < p
    return u[mask], v[mask]


def random_connected_edges(
    n: int, rng: np.random.Generator, *, extra_edge_p: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a connected graph as edge arrays: a tree plus noise pairs.

    The tree guarantees connectivity (1-interval connectivity must hold
    round by round); every pair is additionally present independently
    with probability ``extra_edge_p`` (duplicates against tree edges
    collapse at adjacency construction, so the resulting simple graph
    has the same distribution as the historical has-edge-checking loop).
    """
    if n < 1:
        raise ValueError("need at least one node")
    return _connected_edges(
        n, rng, _pairs_for(n, extra_edge_p), extra_edge_p
    )


def _connected_edges(
    n: int,
    rng: np.random.Generator,
    pairs: tuple[np.ndarray, np.ndarray],
    p: float,
) -> tuple[np.ndarray, np.ndarray]:
    tree_u, tree_v = random_tree_edges(n, rng)
    extra_u, extra_v = _pair_edges(pairs, rng, p)
    if extra_u.size == 0:
        return tree_u, tree_v
    return (
        np.concatenate([tree_u, extra_u]),
        np.concatenate([tree_v, extra_v]),
    )


def random_connected_graph(
    n: int, rng: np.random.Generator, *, extra_edge_p: float = 0.1
) -> nx.Graph:
    """Sample a connected graph: a uniform random tree plus noise edges.

    The ``networkx`` view of :func:`random_connected_edges` -- same
    sampler, object representation.
    """
    return graph_from_edges(
        n, *random_connected_edges(n, rng, extra_edge_p=extra_edge_p)
    )


class RandomConnectedAdversary:
    """A fair adversary producing a fresh random connected graph per round.

    Usable as an engine topology provider (``graph``), as an edge-array
    provider (``edges``), and as a :class:`repro.networks.DynamicGraph`
    factory (:meth:`as_dynamic_graph`), which is what the fast backend
    runs a lane on.
    Rounds are keyed by ``(seed, round)`` so executions are reproducible
    and both backends see the identical graph sequence.  Adversaries
    with equal :attr:`batch_key` can draw a round together through
    :meth:`edges_batch`, which the fast engine does for the lanes of a
    batch.
    """

    def __init__(self, n: int, *, seed: int = 0, extra_edge_p: float = 0.1) -> None:
        if n < 1:
            raise ValueError("need at least one node")
        if not 0.0 <= extra_edge_p <= 1.0:
            raise ValueError("extra_edge_p must be in [0, 1]")
        self.n = n
        self.seed = seed
        self.extra_edge_p = extra_edge_p
        self._native: DynamicGraph | None = None
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def batch_key(self) -> tuple[int, float]:
        """Adversaries with equal keys can share one :meth:`edges_batch`."""
        return (self.n, self.extra_edge_p)

    def _pair_template(self) -> tuple[np.ndarray, np.ndarray]:
        """This adversary's pair template, resolved once and kept."""
        if self._pairs is None:
            self._pairs = _pairs_for(self.n, self.extra_edge_p)
        return self._pairs

    def edges(self, round_no: int) -> tuple[np.ndarray, np.ndarray]:
        """The round's edge arrays (pure function of ``(seed, round)``)."""
        rng = np.random.default_rng([self.seed, round_no])
        return _connected_edges(
            self.n, rng, self._pair_template(), self.extra_edge_p
        )

    @staticmethod
    def edges_batch(
        adversaries: Sequence["RandomConnectedAdversary"], round_no: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Several adversaries' edge arrays for one round, stacked.

        The adversaries must share one :attr:`batch_key`.  Returns
        ``(u, v, bounds)``: lane ``k``'s edges are
        ``u[bounds[k]:bounds[k + 1]]`` and the same slice of ``v``,
        equal in value, order and dtype to
        ``adversaries[k].edges(round_no)``.  Each lane still draws from
        its own ``(seed, round)`` generator in the same order -- the
        permutation, the tree uniforms, then the pair uniforms -- and
        only the tree arithmetic and the assembly run once over the
        stack.  Memory: one lane's pair draw at a time, the lanes'
        chosen pair indices (a quarter of the size of their pair edges
        while ``n(n-1)/2`` fits ``int32``) and the output; never every
        lane's pair draw at once.
        """
        first = adversaries[0]
        n, p, lanes = first.n, first.extra_edge_p, len(adversaries)
        if n == 1:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.zeros(lanes + 1, dtype=np.int64)
        orders = np.empty((lanes, n), dtype=np.int64)
        orders[:] = np.arange(n)
        tree_draws = np.empty((lanes, n - 1))
        pair_u, pair_v = first._pair_template()
        pair_draw = np.empty(pair_u.size)
        # Chosen pair indices in the narrowest dtype: they are held for
        # every lane until the output exists.
        pick_dtype = index_dtype_for(pair_u.size)
        chosen = []
        for lane, adversary in enumerate(adversaries):
            rng = np.random.default_rng([adversary.seed, round_no])
            # Shuffling arange(n) in place is what permutation(n) does.
            rng.shuffle(orders[lane])
            rng.random(out=tree_draws[lane])
            if pair_draw.size:
                rng.random(out=pair_draw)
                chosen.append((pair_draw < p).nonzero()[0].astype(pick_dtype))
        del pair_draw
        # Truncation is floor for these non-negative products.
        parents = (tree_draws * np.arange(1, n)).astype(np.int64)
        tree_u = orders[:, 1:]
        tree_v = np.take_along_axis(orders, parents, axis=1)
        if not chosen:
            bounds = np.arange(lanes + 1, dtype=np.int64) * (n - 1)
            return tree_u.ravel(), tree_v.ravel(), bounds
        bounds = np.zeros(lanes + 1, dtype=np.int64)
        np.cumsum([n - 1 + picked.size for picked in chosen], out=bounds[1:])
        u = np.empty(bounds[-1], dtype=np.int64)
        v = np.empty_like(u)
        tree_at = bounds[:-1, None] + np.arange(n - 1)
        u[tree_at] = tree_u
        v[tree_at] = tree_v
        for lo, hi, picked in zip(
            (bounds[:-1] + n - 1).tolist(), bounds[1:].tolist(), chosen
        ):
            u[lo:hi] = pair_u[picked]
            v[lo:hi] = pair_v[picked]
        return u, v, bounds

    def graph(self, round_no: int, processes: object = None) -> nx.Graph:
        """Topology-provider interface: the round's random graph."""
        return graph_from_edges(self.n, *self.edges(round_no))

    def as_dynamic_graph(self) -> DynamicGraph:
        """This adversary as a cached CSR-native dynamic graph.

        Repeated calls return one shared instance so the bounded
        per-round caches are shared across every consumer of this
        adversary object.
        """
        if self._native is None:
            self._native = DynamicGraph(
                self.n,
                self.edges,
                name=f"random-connected(n={self.n}, seed={self.seed})",
            )
        return self._native
