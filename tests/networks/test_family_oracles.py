"""Differential tests: edge-array families against their networkx providers.

The star, the Corollary 1 chain, the Lemma 1 transformation and the
random-waypoint walk once built one ``nx.Graph`` per round, and the
dynamic graph served a ``graph.copy()`` of it.  Those providers are kept
here, verbatim, as oracles.  Each edge-array family must yield the same
edge set and, for every node, the same neighbour order as the oracle's
copy: the object engine sums push-sum floats in neighbour order, so the
order is part of the observable result.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.adversaries.worst_case import max_ambiguity_multigraph
from repro.core.counting.gossip import gossip_size_estimates
from repro.networks import DynamicMultigraph, mdbl_to_pd2
from repro.networks.generators.chains import chain_pd2_network
from repro.networks.generators.geometric import (
    RandomWaypointDynamicGraph,
    random_waypoint_network,
)
from repro.networks.generators.stars import star_network
from repro.simulation.engine import as_topology_provider

ROUNDS = 12


# -- the networkx providers, as they were -----------------------------


def star_oracle(n, leader):
    star = nx.Graph()
    star.add_nodes_from(range(n))
    star.add_edges_from((leader, node) for node in range(n) if node != leader)
    return lambda round_no: star


def chain_oracle(multigraph, chain_length):
    chain = tuple(range(1, 1 + chain_length))
    hub_base = 1 + chain_length
    hubs = (hub_base, hub_base + 1)
    outer = tuple(range(hub_base + 2, hub_base + 2 + multigraph.n))
    n = 1 + len(chain) + len(hubs) + len(outer)
    static_edges = []
    anchor = 0
    for link in chain:
        static_edges.append((anchor, link))
        anchor = link
    static_edges.append((anchor, hubs[0]))
    static_edges.append((anchor, hubs[1]))

    def provider(round_no):
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(static_edges)
        for w, node in enumerate(outer):
            for label in multigraph.labels(w, round_no):
                graph.add_edge(hubs[label - 1], node)
        return graph

    return provider


def transform_oracle(multigraph):
    k = multigraph.k
    middle = tuple(range(1, k + 1))
    outer = tuple(range(k + 1, k + 1 + multigraph.n))

    def provider(round_no):
        graph = nx.Graph()
        graph.add_nodes_from(range(1 + k + multigraph.n))
        graph.add_edges_from((0, node) for node in middle)
        for w, node in enumerate(outer):
            for label in multigraph.labels(w, round_no):
                graph.add_edge(middle[label - 1], node)
        return graph

    return provider


def waypoint_oracle(walk):
    def repair(graph, distances):
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

    def provider(round_no):
        points = walk.positions(round_no)
        graph = nx.Graph()
        graph.add_nodes_from(range(walk.n))
        deltas = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=2))
        for u in range(walk.n):
            for v in range(u + 1, walk.n):
                if distances[u, v] <= walk.radius:
                    graph.add_edge(u, v)
        repair(graph, distances)
        return graph

    return provider


def served(provider):
    """What the dynamic graph handed out: a snapshot of each round."""
    return lambda round_no: provider(round_no).copy()


# -- the cases --------------------------------------------------------


def random_mdbl(k, n, seed):
    return DynamicMultigraph.random(k, n, ROUNDS // 2, np.random.default_rng(seed))


def cases():
    """(network, oracle) pairs over several seeds and shapes."""
    out = {}
    for n, leader in [(2, 0), (6, 0), (7, 3)]:
        out[f"star-n{n}-leader{leader}"] = (
            lambda n=n, leader=leader: star_network(n, leader=leader),
            lambda n=n, leader=leader: served(star_oracle(n, leader)),
        )
    for seed in range(3):
        for chain_length in (0, 3):
            mdbl = random_mdbl(2, 6, seed)
            out[f"chain{chain_length}-seed{seed}"] = (
                lambda m=mdbl, c=chain_length: chain_pd2_network(m, c)[0],
                lambda m=mdbl, c=chain_length: served(chain_oracle(m, c)),
            )
        for k in (2, 3, 10):
            mdbl = random_mdbl(k, 8, seed)
            out[f"pd2-k{k}-seed{seed}"] = (
                lambda m=mdbl: mdbl_to_pd2(m)[0],
                lambda m=mdbl: served(transform_oracle(m)),
            )
        for radius in (0.1, 0.35):
            out[f"waypoint-r{radius}-seed{seed}"] = (
                lambda r=radius, s=seed: random_waypoint_network(
                    14, radius=r, seed=s
                ),
                lambda r=radius, s=seed: served(
                    waypoint_oracle(
                        RandomWaypointDynamicGraph(14, radius=r, seed=s)
                    )
                ),
            )
    worst = max_ambiguity_multigraph(9)
    out["worst-case-pd2"] = (
        lambda: mdbl_to_pd2(worst)[0],
        lambda: served(transform_oracle(worst)),
    )
    return out


CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_edges_and_neighbour_order(case):
    build, oracle_of = CASES[case]
    network, oracle = build(), oracle_of()
    for round_no in range(ROUNDS):
        graph, expected = network.at(round_no), oracle(round_no)
        assert {frozenset(e) for e in graph.edges} == {
            frozenset(e) for e in expected.edges
        }, f"round {round_no}"
        for node in range(network.n):
            assert list(graph.adj[node]) == list(expected.adj[node]), (
                f"round {round_no}, node {node}"
            )


@pytest.mark.parametrize("case", ["pd2-k3-seed1", "waypoint-r0.1-seed2"])
def test_object_engine_push_sum_is_bit_identical(case):
    build, oracle_of = CASES[case]
    network = build()
    estimates = gossip_size_estimates(network, network.n, ROUNDS)
    expected = gossip_size_estimates(
        as_topology_provider(oracle_of()), network.n, ROUNDS
    )
    assert estimates == expected
