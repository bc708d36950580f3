"""Invariant oracles: model invariants and the paper's exact identities.

Each oracle takes a generated :class:`~repro.verify.strategies.Case`
and returns a list of human-readable violation strings (empty = the
case passes).  Oracles never raise on an invariant breach -- a breach
is data, not an error -- but they do surface unexpected exceptions as
violations so the shrinker can minimise crashing cases too (the harness
wraps every oracle call).

Two suites live here:

* **model** (:func:`check_model_case`) -- structural invariants every
  generated :class:`~repro.networks.DynamicGraph` must satisfy: the
  node set is ``{0..n-1}`` in every round, no round graph has a
  self-loop, every round is connected (1-interval connectivity), the
  ``to_csr`` lowering agrees entry-by-entry with the networkx
  adjacency matrix, and -- for CSR-native families, where ``to_csr``
  is built directly from edge arrays without touching networkx -- the
  native CSR view agrees with the networkx view built from the same
  arrays (the two independent code paths must coincide).
  Family-specific contracts ride along: ``G(PD)_h``
  instances keep persistent distances ``<= h``
  (:func:`~repro.networks.properties.verify_pd`) and ``T``-interval
  instances pass :func:`~repro.networks.properties.is_t_interval_connected`.
* **kernel** (:func:`check_kernel_case`) -- the paper's combinatorial
  identities (Lemmas 2-4 and Theorem 1): the closed-form and recursive
  kernels agree, ``Σ k_r = 1``, ``Σ⁻ k_r = (3^{r+1}-1)/2``,
  ``Σ⁺ k_r = (3^{r+1}+1)/2``, ``M_r k_r = 0`` exactly, per-history
  components match :func:`~repro.core.lowerbound.kernel.kernel_component`,
  and the measured ambiguity curve of the worst-case adversary is
  positive through ``⌊log₃(2n+1)⌋ - 1`` and pinned right after
  (counting is impossible before the Theorem 1 bound, possible at it).

Checks read the data under test through :mod:`repro.verify.mutation`
hooks, so the self-test can corrupt it and prove the oracles look.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import numpy as np

from repro.adversaries.worst_case import (
    max_ambiguity_multigraph,
    measured_ambiguity_curve,
)
from repro.core.lowerbound.bounds import ambiguity_horizon, rounds_to_count
from repro.core.lowerbound.kernel import (
    closed_form_kernel,
    kernel_component,
    recursive_kernel,
    sum_negative,
    sum_positive,
)
from repro.core.lowerbound.matrices import build_matrix
from repro.core.states import all_histories
from repro.networks.csr import lower_graph
from repro.networks.properties import (
    is_t_interval_connected,
    verify_pd,
)
from repro.simulation.errors import ModelError, sorted_labels
from repro.verify import mutation
from repro.verify.strategies import Case, build_network

__all__ = ["check_kernel_case", "check_model_case"]

#: Largest round for which the dense ``M_r`` is built to check
#: ``M_r k_r = 0`` (``3^{r+1}`` columns; beyond this the identity is
#: still covered indirectly via the recursion/closed-form agreement).
_DENSE_MATRIX_MAX_R = 3

#: Histories spot-checked against :func:`kernel_component` per case.
_COMPONENT_SAMPLES = 32


# -- model suite ------------------------------------------------------


def check_model_case(case: Case) -> list[str]:
    """Structural invariants of one generated dynamic graph."""
    violations: list[str] = []
    network = build_network(case)
    n = network.n
    expected_nodes = set(range(n))
    rounds = int(case.params.get("rounds", 1))

    for round_no in range(rounds):
        graph = mutation.mutated_graph(network.at(round_no))
        label = f"round {round_no}"
        nodes = set(graph.nodes)
        if nodes != expected_nodes:
            violations.append(
                f"{label}: node set is not {{0..{n - 1}}} "
                f"(unexpected {sorted_labels(nodes - expected_nodes)}, "
                f"missing {sorted(expected_nodes - nodes)})"
            )
            continue
        loops = sorted(nx.nodes_with_selfloops(graph))
        if loops:
            violations.append(f"{label}: self-loops at nodes {loops}")
            continue
        if not nx.is_connected(graph):
            violations.append(
                f"{label}: disconnected (1-interval connectivity broken)"
            )
            continue
        violations.extend(_check_lowering(graph, n, label))
        violations.extend(_check_native_csr(network, round_no, graph, n, label))

    if violations:
        return violations
    violations.extend(_check_family_contract(case, network, rounds))
    return violations


def _check_lowering(graph: nx.Graph, n: int, label: str) -> list[str]:
    """``to_csr`` lowering must equal the networkx adjacency matrix."""
    violations: list[str] = []
    adjacency = lower_graph(graph, n=n)
    dense = adjacency.matrix.toarray()
    reference = nx.to_numpy_array(graph, nodelist=range(n), weight=None)
    if not np.array_equal(dense, reference):
        rows, cols = np.nonzero(dense != reference)
        where = sorted(zip(rows.tolist(), cols.tolist()))[:5]
        violations.append(
            f"{label}: CSR lowering disagrees with networkx adjacency "
            f"at entries {where}"
        )
    if adjacency.connected != nx.is_connected(graph):
        violations.append(
            f"{label}: CSR connectivity flag {adjacency.connected} but "
            f"networkx says {nx.is_connected(graph)}"
        )
    expected_degrees = reference.sum(axis=1)
    if not np.array_equal(adjacency.degrees, expected_degrees):
        violations.append(f"{label}: CSR degree vector disagrees")
    return violations


def _check_native_csr(
    network, round_no: int, graph: nx.Graph, n: int, label: str
) -> list[str]:
    """``network.to_csr`` must equal the round's networkx view.

    The CSR adjacency is built straight from the edge arrays while the
    graph handed in came through ``at()`` -- two independent lowerings
    of the same arrays.  Only runs once the round graph itself passed the
    structural checks, so a mutated (corrupted) graph never reaches it.
    """
    violations: list[str] = []
    adjacency = network.to_csr(round_no)
    dense = adjacency.matrix.toarray()
    reference = nx.to_numpy_array(graph, nodelist=range(n), weight=None)
    if not np.array_equal(dense, reference):
        rows, cols = np.nonzero(dense != reference)
        where = sorted(zip(rows.tolist(), cols.tolist()))[:5]
        violations.append(
            f"{label}: native CSR view disagrees with the networkx view "
            f"at entries {where}"
        )
    if adjacency.connected != nx.is_connected(graph):
        violations.append(
            f"{label}: native CSR connectivity flag {adjacency.connected} "
            f"but networkx says {nx.is_connected(graph)}"
        )
    if not np.array_equal(adjacency.degrees, reference.sum(axis=1)):
        violations.append(f"{label}: native CSR degree vector disagrees")
    return violations


def _check_family_contract(
    case: Case, network, rounds: int
) -> list[str]:
    """Contracts specific to the generated network family."""
    violations: list[str] = []
    if case.kind == "pd":
        h = len(case.params["layers"])
        try:
            distances = verify_pd(network, 0, h, rounds)
        except ModelError as error:
            violations.append(f"G(PD)_{h} contract violated: {error}")
        else:
            worst = max(distances.values())
            if worst > h:
                violations.append(
                    f"persistent distance {worst} exceeds h={h}"
                )
    elif case.kind == "t-interval":
        t = int(case.params["t"])
        if not is_t_interval_connected(network, t, rounds):
            violations.append(
                f"{t}-interval connectivity fails over {rounds} rounds"
            )
    return violations


# -- kernel suite -----------------------------------------------------


def check_kernel_case(case: Case) -> list[str]:
    """The paper's exact identities at one ``(r, n)`` draw."""
    violations: list[str] = []
    r = int(case.params["r"])
    n = int(case.params["n"])

    kernel = mutation.mutated_kernel(closed_form_kernel(r))
    reference = recursive_kernel(r)
    if not np.array_equal(kernel, reference):
        where = np.nonzero(kernel != reference)[0][:5].tolist()
        violations.append(
            f"closed-form and recursive k_{r} disagree at columns {where}"
        )
    total = int(kernel.sum())
    if total != 1:
        violations.append(f"Σ k_{r} = {total}, expected 1 (Lemma 4)")
    negative = int(-kernel[kernel < 0].sum())
    if negative != sum_negative(r):
        violations.append(
            f"Σ⁻ k_{r} = {negative}, expected (3^{r + 1}-1)/2 = "
            f"{sum_negative(r)} (Lemma 4)"
        )
    positive = int(kernel[kernel > 0].sum())
    if positive != sum_positive(r):
        violations.append(
            f"Σ⁺ k_{r} = {positive}, expected (3^{r + 1}+1)/2 = "
            f"{sum_positive(r)} (Lemma 4)"
        )
    violations.extend(_check_components(kernel, r, case.seed))
    if r <= _DENSE_MATRIX_MAX_R:
        product = build_matrix(r) @ kernel
        if np.any(product):
            violations.append(
                f"M_{r} k_{r} != 0 (max residual {np.abs(product).max()})"
            )
    violations.extend(_check_theorem1(n))
    return violations


def _check_components(
    kernel: np.ndarray, r: int, seed: int
) -> list[str]:
    """Spot-check sampled components against the Lemma 3 closed form."""
    histories = list(itertools.islice(all_histories(2, r + 1), len(kernel)))
    rng = random.Random(f"verify:components:{seed}")
    count = min(_COMPONENT_SAMPLES, len(histories))
    for column in rng.sample(range(len(histories)), count):
        expected = kernel_component(histories[column])
        if int(kernel[column]) != expected:
            return [
                f"k_{r}[{column}] = {int(kernel[column])} but "
                f"kernel_component says {expected} (Lemma 3)"
            ]
    return []


def _check_theorem1(n: int) -> list[str]:
    """Counting impossible through the horizon, possible right after."""
    violations: list[str] = []
    horizon = ambiguity_horizon(n)
    widths = measured_ambiguity_curve(max_ambiguity_multigraph(n))
    ambiguous = widths[: horizon + 1]
    if not all(width > 0 for width in ambiguous):
        violations.append(
            f"n={n}: leader can pin the size at a round <= the "
            f"Theorem 1 horizon {horizon} (widths {widths})"
        )
    if len(widths) <= horizon + 1 or widths[horizon + 1] != 0:
        violations.append(
            f"n={n}: size not pinned at round {horizon + 1}, one past "
            f"the horizon (widths {widths})"
        )
    if len(widths) != rounds_to_count(n):
        violations.append(
            f"n={n}: ambiguity curve has length {len(widths)}, expected "
            f"rounds_to_count = {rounds_to_count(n)}"
        )
    return violations
