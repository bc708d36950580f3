"""Random-waypoint geometric dynamic graphs (mobile sensor flavour).

The introduction motivates dynamic networks with "the capillary
distribution of mobile devices and growing impact of sensors networks";
this generator provides that flavour of dynamics concretely: nodes move
in the unit square by a random-waypoint walk, two nodes are linked when
within the connection radius, and connectivity is repaired with the
minimum number of shortcut edges (nearest components first) so the
model's 1-interval connectivity holds.

Positions evolve sequentially from a per-round seed, so a seed pins an
entire trajectory.  The walk keeps only its latest positions; round
edge arrays are derived from them on demand and cached (LRU-bounded)
by the :class:`~repro.networks.DynamicGraph` that wraps the walk.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from repro.networks.csr_native import DynamicGraph

__all__ = ["RandomWaypointDynamicGraph", "random_waypoint_network"]


class RandomWaypointDynamicGraph:
    """Lazy random-waypoint mobility with disc connectivity."""

    def __init__(
        self,
        n: int,
        *,
        radius: float = 0.35,
        step: float = 0.1,
        seed: int = 0,
    ) -> None:
        if n < 2:
            raise ValueError("need at least two nodes")
        if radius <= 0 or step < 0:
            raise ValueError("radius must be positive and step non-negative")
        self.n = n
        self.radius = radius
        self.step = step
        self.seed = seed
        self._round = -1
        self._current: np.ndarray | None = None

    def positions(self, round_no: int) -> np.ndarray:
        """Node positions at a round (n x 2 array).

        Walks forward from the latest computed round; a request for an
        earlier round replays the walk from round 0, so memory stays
        O(n) however long the run.
        """
        if round_no < self._round:
            self._round, self._current = -1, None
        while self._round < round_no:
            self._advance()
        return self._current

    def _advance(self) -> None:
        self._round += 1
        rng = np.random.default_rng([self.seed, self._round])
        if self._round == 0:
            self._current = rng.random((self.n, 2))
            return
        angles = rng.random(self.n) * 2 * np.pi
        lengths = rng.random(self.n) * self.step
        delta = np.stack(
            [np.cos(angles) * lengths, np.sin(angles) * lengths], axis=1
        )
        self._current = np.clip(self._current + delta, 0.0, 1.0)

    def edges(self, round_no: int) -> tuple[np.ndarray, np.ndarray]:
        """The round's ``(u, v)`` edge arrays: disc edges plus repairs.

        Disc edges come in ``(u, v)``, ``u < v`` lexicographic order.
        Components are then joined one at a time along the closest pair
        between the component of node 0 and any other node (ties go to
        the other component with the smallest node, then the smallest
        ``u``, then ``v``).  Each repair edge follows the disc edges of
        its smaller endpoint, so the ``networkx`` view lists every
        node's smaller neighbours first, in ascending order.
        """
        points = self.positions(round_no)
        deltas = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=2))
        u, v = np.triu_indices(self.n, 1)
        near = distances[u, v] <= self.radius
        u, v = u[near], v[near]
        extra_u, extra_v = self._repair(self.n, u, v, distances)
        by_row = np.argsort(extra_u, kind="stable")
        extra_u, extra_v = extra_u[by_row], extra_v[by_row]
        at = np.searchsorted(u, extra_u, side="right")
        return np.insert(u, at, extra_u), np.insert(v, at, extra_v)

    @staticmethod
    def _repair(
        n: int, u: np.ndarray, v: np.ndarray, distances: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shortcut edges joining the components along their closest
        pairs, in insertion order, each as ``(smaller, larger)``."""
        adjacency = coo_array((np.ones(u.size), (u, v)), shape=(n, n))
        count, labels = connected_components(adjacency, directed=False)
        nodes = np.arange(n)
        first = np.full(count, n)
        np.minimum.at(first, labels, nodes)
        rank = first[labels]
        shortcuts = []
        while count > 1:
            base = labels == labels[0]
            inside, outside = nodes[base], nodes[~base]
            gaps = distances[np.ix_(inside, outside)]
            rows, cols = np.nonzero(gaps == gaps.min())
            a, b = inside[rows], outside[cols]
            pick = np.lexsort((b, a, rank[b]))[0]
            a, b = int(a[pick]), int(b[pick])
            labels[labels == labels[b]] = labels[0]
            count -= 1
            shortcuts.append((min(a, b), max(a, b)))
        pairs = np.array(shortcuts, dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]


def random_waypoint_network(
    n: int,
    *,
    radius: float = 0.35,
    step: float = 0.1,
    seed: int = 0,
) -> DynamicGraph:
    """A random-waypoint geometric dynamic graph as a :class:`DynamicGraph`."""
    walk = RandomWaypointDynamicGraph(
        n, radius=radius, step=step, seed=seed
    )
    return DynamicGraph(
        n, walk.edges, name=f"waypoint(n={n}, r={radius}, seed={seed})"
    )
