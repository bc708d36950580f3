"""Extension experiment: counting vs naming -- two costs of anonymity.

The related-work papers this announcement builds on (Michail et al.,
DISC 2012 / SSS 2013) treat *naming* -- terminating with distinct
identifiers -- alongside counting.  The view machinery makes their
separation measurable on our networks:

* in ``G(PD)_1`` stars the leader counts in one round, but the spokes
  are view-equal at every depth, so **no** protocol can ever name them;
* on asymmetric networks views separate quickly and the generic
  rank-your-view protocol names everyone;
* naming feasibility computed at the graph level (view classes) agrees
  with the engine-level protocol run, round for round.
"""

from __future__ import annotations

import networkx as nx

from repro.analysis.registry import ExperimentResult
from repro.core.counting.star import count_star
from repro.core.naming import (
    earliest_naming_round,
    name_by_views,
    naming_is_possible,
    run_view_naming,
)
from repro.core.views import symmetry_degree, view_classes
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.figures import paper_figure1
from repro.networks.generators.stars import star_network

__all__ = ["naming_vs_counting"]


def naming_vs_counting(
    *,
    star_sizes: tuple[int, ...] = (4, 8, 16),
    symmetry_depth: int = 8,
) -> ExperimentResult:
    """Counting cost vs naming feasibility across network families."""
    rows = []
    checks: dict[str, bool] = {}

    for n in star_sizes:
        star = star_network(n)
        counting = count_star(n)
        namable = naming_is_possible(star, symmetry_depth, leader=0)
        rows.append(
            {
                "network": f"star({n})",
                "counting rounds": counting.rounds,
                "naming possible": namable,
                "largest symmetric class": symmetry_degree(
                    star, symmetry_depth, leader=0
                ),
            }
        )
        checks[f"star{n}_counts_in_one_round"] = (
            counting.count == n and counting.rounds == 1
        )
        checks[f"star{n}_naming_impossible"] = not namable
        checks[f"star{n}_spokes_stay_symmetric"] = (
            symmetry_degree(star, symmetry_depth, leader=0) == n - 1
        )

    # An asymmetric network: the off-centre-rooted path.
    path = DynamicGraph.from_graphs([nx.path_graph(5)])
    naming_round = earliest_naming_round(path, leader=1)
    names = name_by_views(path, naming_round, leader=1)
    rows.append(
        {
            "network": "path(5), leader=1",
            "counting rounds": "n/a",
            "naming possible": True,
            "largest symmetric class": symmetry_degree(
                path, naming_round, leader=1
            ),
        }
    )
    checks["path_namable"] = names is not None
    checks["path_names_distinct"] = sorted(names.values()) == list(range(5))

    # Engine-level agreement on the Figure 1 network.
    figure = paper_figure1()
    horizon = 3
    outputs = run_view_naming(figure.graph, horizon, leader=0)
    engine_partition: dict = {}
    for node, output in outputs.items():
        engine_partition.setdefault(output, []).append(node)
    engine_classes = sorted(
        engine_partition.values(), key=lambda members: members[0]
    )
    graph_classes = view_classes(figure.graph, horizon, leader=0)
    rows.append(
        {
            "network": "figure-1 G(PD)_2",
            "counting rounds": "(see fig1 experiment)",
            "naming possible": naming_is_possible(
                figure.graph, symmetry_depth, leader=0
            ),
            "largest symmetric class": symmetry_degree(
                figure.graph, symmetry_depth, leader=0
            ),
        }
    )
    checks["engine_views_match_graph_views"] = engine_classes == graph_classes

    return ExperimentResult(
        experiment="tab-naming-vs-counting",
        title="Extension: counting vs naming (view-based feasibility)",
        headers=[
            "network",
            "counting rounds",
            "naming possible",
            "largest symmetric class",
        ],
        rows=rows,
        checks=checks,
        notes=[
            "stars: counting finishes in 1 round while naming is "
            "impossible at every depth (spokes are view-equal forever)",
            "naming feasibility = all views distinct; the generic "
            "rank-your-view protocol achieves it whenever possible",
        ],
    )
