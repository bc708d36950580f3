"""Random-waypoint geometric dynamic graphs (mobile sensor flavour).

The introduction motivates dynamic networks with "the capillary
distribution of mobile devices and growing impact of sensors networks";
this generator provides that flavour of dynamics concretely: nodes move
in the unit square by a random-waypoint walk, two nodes are linked when
within the connection radius, and connectivity is repaired with the
minimum number of shortcut edges (nearest components first) so the
model's 1-interval connectivity holds.

Positions evolve sequentially (lazy and cached like
:class:`repro.networks.generators.markov.EdgeMarkovDynamicGraph`), so a
seed pins an entire trajectory.  Round graphs are rebuilt from the
positions on demand and never retained: caching them is the
:class:`~repro.networks.dynamic_graph.DynamicGraph`'s job.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.networks.dynamic_graph import DynamicGraph

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
        self._positions: list[np.ndarray] = []

    def positions(self, round_no: int) -> np.ndarray:
        """Node positions at a round (n x 2 array, lazily advanced)."""
        while len(self._positions) <= round_no:
            self._advance()
        return self._positions[round_no]

    def _advance(self) -> None:
        round_no = len(self._positions)
        rng = np.random.default_rng([self.seed, round_no])
        if round_no == 0:
            current = rng.random((self.n, 2))
        else:
            angles = rng.random(self.n) * 2 * np.pi
            lengths = rng.random(self.n) * self.step
            delta = np.stack(
                [np.cos(angles) * lengths, np.sin(angles) * lengths], axis=1
            )
            current = np.clip(self._positions[-1] + delta, 0.0, 1.0)
        self._positions.append(current)

    def at(self, round_no: int) -> nx.Graph:
        """A freshly built graph of round ``round_no`` (not retained)."""
        points = self.positions(round_no)
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        deltas = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=2))
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if distances[u, v] <= self.radius:
                    graph.add_edge(u, v)
        self._repair(graph, distances)
        return graph

    @staticmethod
    def _repair(graph: nx.Graph, distances: np.ndarray) -> None:
        """Join components along their closest node pairs."""
        while True:
            components = [sorted(c) for c in nx.connected_components(graph)]
            if len(components) == 1:
                return
            base = components[0]
            best = None
            for other in components[1:]:
                for u in base:
                    for v in other:
                        candidate = distances[u, v]
                        if best is None or candidate < best[0]:
                            best = (candidate, u, v)
            graph.add_edge(best[1], best[2])


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
        n, walk.at, name=f"waypoint(n={n}, r={radius}, seed={seed})"
    )
