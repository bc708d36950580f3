"""Dynamic graph substrate: graphs, multigraphs, properties, generators.

* :mod:`repro.networks.csr_native` -- the :class:`DynamicGraph`
  abstraction (Definition 1: an infinite sequence of graphs over a fixed
  node set), usable directly as an engine topology provider.  Its one
  source of truth is a per-round edge-array provider; it serves both a
  ``networkx`` view (object engine, oracles) and a direct CSR view (fast
  backend), and :func:`precompile_schedule` compiles finite schedules
  (worst-case instances) into stacked index arrays.
* :mod:`repro.networks.properties` -- verifiers for 1-interval
  connectivity, persistent distance (Definitions 3-4), and the dynamic
  diameter ``D`` measured by exhaustive flooding.
* :mod:`repro.networks.multigraph` -- dynamic bipartite labeled
  multigraphs ``M(DBL)_k`` (Section 4.1).
* :mod:`repro.networks.transform` -- the Lemma 1 transformation
  ``M(DBL)_k -> G(PD)_2``.
* :mod:`repro.networks.generators` -- network families: stars
  (``G(PD)_1``), layered ``G(PD)_h`` graphs, Corollary-1 chain gadgets,
  random fair-adversary dynamics.
"""

from repro.networks.csr_native import DynamicGraph, precompile_schedule
from repro.networks.multigraph import DynamicMultigraph
from repro.networks.properties import (
    dynamic_diameter,
    flood_completion_time,
    is_interval_connected,
    persistent_distances,
    verify_pd,
)
from repro.networks.transform import PD2Layout, mdbl_to_pd2

__all__ = [
    "DynamicGraph",
    "DynamicMultigraph",
    "PD2Layout",
    "dynamic_diameter",
    "flood_completion_time",
    "is_interval_connected",
    "mdbl_to_pd2",
    "persistent_distances",
    "precompile_schedule",
    "verify_pd",
]
