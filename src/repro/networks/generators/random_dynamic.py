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
tree-building loop plus a networkx -> CSR lowering.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.networks.csr import graph_from_edges
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
#: ints, the same asymptotics the per-pair Python loops had.
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
    empty = np.empty(0, dtype=np.int64)
    if p <= 0.0 or n < 2:
        return empty, empty
    u, v = _all_pairs(n)
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
    tree_u, tree_v = random_tree_edges(n, rng)
    extra_u, extra_v = bernoulli_pair_edges(n, rng, extra_edge_p)
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
    and both backends see the identical graph sequence.
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

    def edges(self, round_no: int) -> tuple[np.ndarray, np.ndarray]:
        """The round's edge arrays (pure function of ``(seed, round)``)."""
        rng = np.random.default_rng([self.seed, round_no])
        return random_connected_edges(
            self.n, rng, extra_edge_p=self.extra_edge_p
        )

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
