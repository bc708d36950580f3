"""Generators for the dynamic network families studied in the paper.

* :mod:`repro.networks.generators.stars` -- ``G(PD)_1`` star graphs.
* :mod:`repro.networks.generators.pd` -- random layered ``G(PD)_h``
  dynamic graphs (adversary rewires inter-layer edges every round while
  distances stay persistent).
* :mod:`repro.networks.generators.chains` -- the Corollary 1 gadget: a
  static chain from the leader feeding a ``G(PD)_2`` core, giving
  arbitrary constant dynamic diameter ``D``.
* :mod:`repro.networks.generators.random_dynamic` -- fair (non-worst-case)
  adversaries: random connected graphs per round.
* :mod:`repro.networks.generators.figures` -- the concrete worked
  examples drawn in the paper's figures.
* :mod:`repro.networks.generators.streams` -- :func:`round_rng`, the
  per-round random stream every seeded family draws from.
"""

from repro.networks.generators.chains import chain_pd2_network
from repro.networks.generators.figures import paper_figure1, paper_figure2_multigraph
from repro.networks.generators.geometric import random_waypoint_network
from repro.networks.generators.markov import edge_markov_network
from repro.networks.generators.pd import random_pd_network
from repro.networks.generators.random_dynamic import (
    RandomConnectedAdversary,
    random_connected_graph,
)
from repro.networks.generators.stars import star_network
from repro.networks.generators.streams import round_rng
from repro.networks.generators.t_interval import t_interval_network

__all__ = [
    "RandomConnectedAdversary",
    "chain_pd2_network",
    "edge_markov_network",
    "paper_figure1",
    "paper_figure2_multigraph",
    "random_connected_graph",
    "random_pd_network",
    "random_waypoint_network",
    "round_rng",
    "star_network",
    "t_interval_network",
]
