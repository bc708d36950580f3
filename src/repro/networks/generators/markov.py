"""Edge-Markov dynamic graphs (Clementi et al. style fair adversary).

A standard model of gradually evolving networks: every potential edge
is an independent two-state Markov chain -- an absent edge appears with
probability ``p_up`` per round, a present edge disappears with
probability ``p_down`` -- patched with a connectivity repair step
(random inter-component edges) so 1-interval connectivity holds, as the
paper's model requires.  Unlike the memoryless
:class:`repro.networks.generators.random_dynamic.RandomConnectedAdversary`,
consecutive rounds are correlated, which is the regime where gossip
baselines are usually studied.

CSR-native: the chain state is one boolean vector over the ``n(n-1)/2``
node pairs, advanced with vectorized draws and stored bit-packed
(``np.packbits``: one byte per eight pairs per round), and rounds are
served as ``(u, v)`` edge arrays.  Repair edges join the chain state, so
-- as before -- a repaired edge persists with probability ``1 - p_down``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.networks.csr import graph_from_edges
from repro.networks.csr_native import DynamicGraph

__all__ = ["EdgeMarkovDynamicGraph", "edge_markov_network"]


class EdgeMarkovDynamicGraph:
    """Lazy, seeded edge-Markov evolution over ``{0..n-1}``.

    Rounds are built sequentially and cached as bit-packed pair-state
    vectors, so access through the :class:`repro.networks.DynamicGraph`
    wrapper is deterministic and repeatable for a given seed.
    """

    def __init__(
        self,
        n: int,
        *,
        p_up: float = 0.05,
        p_down: float = 0.3,
        initial_p: float = 0.2,
        seed: int = 0,
    ) -> None:
        if n < 2:
            raise ValueError("need at least two nodes")
        for name, value in (
            ("p_up", p_up),
            ("p_down", p_down),
            ("initial_p", initial_p),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.n = n
        self.p_up = p_up
        self.p_down = p_down
        self.initial_p = initial_p
        self.seed = seed
        pair_u, pair_v = np.triu_indices(n, 1)
        self._pair_u = pair_u.astype(np.int64)
        self._pair_v = pair_v.astype(np.int64)
        self._states: list[np.ndarray] = []  # packbits per round

    def _pair_index(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # Row-major triu position of pair (u, v) with u < v.
        n = np.int64(self.n)
        return u * n - u * (u + 1) // 2 + (v - u - 1)

    def _repair_connectivity(
        self, present: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Chain-connect the components with random edges (in place)."""
        n = self.n
        u, v = self._pair_u[present], self._pair_v[present]
        adjacency = sp.coo_array(
            (np.ones(u.size, dtype=np.int8), (u, v)), shape=(n, n)
        )
        count, labels = connected_components(
            adjacency, directed=False, return_labels=True
        )
        if count <= 1:
            return
        # One random representative per component (first hit in a random
        # node order), components chained in random order: count-1 new
        # edges, connectivity guaranteed.
        order = rng.permutation(n)
        _, first_positions = np.unique(labels[order], return_index=True)
        representatives = order[first_positions]
        chain = representatives[rng.permutation(count)]
        a = np.minimum(chain[:-1], chain[1:])
        b = np.maximum(chain[:-1], chain[1:])
        present[self._pair_index(a, b)] = True

    def _build_round(self, round_no: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, round_no])
        m = self._pair_u.size
        if round_no == 0:
            present = rng.random(m) < self.initial_p
        else:
            previous = (
                np.unpackbits(self._states[round_no - 1], count=m)
                .astype(bool)
            )
            draws = rng.random(m)
            present = np.where(
                previous, draws >= self.p_down, draws < self.p_up
            )
        self._repair_connectivity(present, rng)
        return np.packbits(present)

    def _present(self, round_no: int) -> np.ndarray:
        while len(self._states) <= round_no:
            self._states.append(self._build_round(len(self._states)))
        return (
            np.unpackbits(self._states[round_no], count=self._pair_u.size)
            .astype(bool)
        )

    def edges(self, round_no: int) -> tuple[np.ndarray, np.ndarray]:
        """The round's ``(u, v)`` edge arrays (chain advanced on demand)."""
        present = self._present(round_no)
        return self._pair_u[present], self._pair_v[present]

    def at(self, round_no: int) -> nx.Graph:
        """The round's graph as ``networkx``."""
        return graph_from_edges(self.n, *self.edges(round_no))


def edge_markov_network(
    n: int,
    *,
    p_up: float = 0.05,
    p_down: float = 0.3,
    initial_p: float = 0.2,
    seed: int = 0,
) -> DynamicGraph:
    """An edge-Markov dynamic graph as a CSR-native :class:`DynamicGraph`."""
    chain = EdgeMarkovDynamicGraph(
        n, p_up=p_up, p_down=p_down, initial_p=initial_p, seed=seed
    )
    return DynamicGraph(
        n, chain.edges, name=f"edge-markov(n={n}, seed={seed})"
    )
