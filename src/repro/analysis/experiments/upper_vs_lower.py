"""Extension experiment: the algorithm zoo raced against Theorem 1.

Theorem 1 lower-bounds anonymous counting: no algorithm can output
before round ``floor(log3(2n+1)) - 1``, even on benign dynamics.  The
zoo provides the other side of the race -- four published counting
*upper bounds* (Di Luna-Viglietta, Kowalski-Mosteiro, Milani-Mosteiro,
Chakraborty-Milani-Mosteiro) executed on the real engine.  This
experiment sweeps them over the dynamic-network families, tabulating
the empirical termination round next to the Theorem 1 horizon: the gap
between the ``Omega(log n)`` floor and the ``O(n)``-and-up ceilings is
the paper's open "cost of anonymity" band, made measurable.

Every algorithm must also be *correct* (``count == n``) on every cell;
the drain-based algorithms run on the selected backend (their fast
path is bit-identical), the history-tree ones are object-engine only.

Each runner takes one size's family networks at once.  On the fast
backend a drain counter runs them as one fused batch (one engine run
per size and counter, not per network); batching per size rather than
across sizes keeps lanes of equal ``n`` together, which stop in the
same round, so no finished lane is carried through extra rounds.  The
object backend stays the per-network oracle.
"""

from __future__ import annotations

from repro.analysis.registry import ExperimentResult
from repro.core.counting.diluna_viglietta import count_diluna_viglietta
from repro.core.counting.drain import (
    count_chakraborty_mm,
    count_chakraborty_mm_batch,
    count_milani_mosteiro,
    count_milani_mosteiro_batch,
)
from repro.core.counting.kowalski_mosteiro import count_kowalski_mosteiro
from repro.core.lowerbound.bounds import theorem1_bound
from repro.networks.csr_native import DynamicGraph
from repro.networks.generators.markov import edge_markov_network
from repro.networks.generators.random_dynamic import RandomConnectedAdversary
from repro.networks.generators.t_interval import t_interval_network

__all__ = ["upper_vs_lower"]


def _drain(networks, backend, single, batch):
    """One fused fast batch, or the object oracle network by network."""
    if backend == "fast":
        return batch(networks)
    return [single(network, backend=backend) for network in networks]


#: The zoo, in presentation order.  Each entry maps the column label to
#: a runner ``f(networks, backend) -> [CountingOutcome, ...]`` over one
#: size's family networks; history-tree algorithms ignore the backend
#: (they do not vectorize).  The counters are looked up when a runner
#: is called, so wrapping a module attribute (tracing, tests) reaches it.
_ALGORITHMS = (
    (
        "DV",
        lambda networks, backend: [
            count_diluna_viglietta(network) for network in networks
        ],
    ),
    (
        "KM(l=2)",
        lambda networks, backend: [
            count_kowalski_mosteiro(network, supervisors=2)
            for network in networks
        ],
    ),
    (
        "MM",
        lambda networks, backend: _drain(
            networks, backend, count_milani_mosteiro, count_milani_mosteiro_batch
        ),
    ),
    (
        "CMM",
        lambda networks, backend: _drain(
            networks, backend, count_chakraborty_mm, count_chakraborty_mm_batch
        ),
    ),
)


def _families(n: int, seed: int, t_window: int) -> dict[str, DynamicGraph]:
    return {
        "memoryless-random": RandomConnectedAdversary(
            n, seed=seed
        ).as_dynamic_graph(),
        "edge-markov": edge_markov_network(n, seed=seed),
        f"{t_window}-interval": t_interval_network(n, t_window, seed=seed),
    }


def upper_vs_lower(
    *,
    sizes: tuple[int, ...] = (4, 7, 10),
    seed: int = 5,
    t_window: int = 3,
    backend: str = "object",
) -> ExperimentResult:
    """Race the counting upper bounds against the Theorem 1 horizon.

    Args:
        sizes: Network sizes swept per family (all must be ``>= 2``; the
            KM column runs with 2 supervisors).
        seed: Seed for every stochastic family.
        t_window: Stability window of the T-interval family.
        backend: Simulation backend for the vectorized (drain)
            algorithms.

    Returns:
        One row per ``family x n`` with the Theorem 1 horizon and each
        algorithm's termination round; checks assert ``count == n`` and
        that no algorithm beats the lower bound.
    """
    sizes = tuple(int(n) for n in sizes)
    if any(n < 2 for n in sizes):
        raise ValueError("sizes must all be at least 2")
    rows = []
    checks: dict[str, bool] = {}
    family_names = list(_families(min(sizes), seed, t_window))
    exact = {
        (family, label): True
        for family in family_names
        for label, _runner in _ALGORITHMS
    }
    above = dict(exact)
    for n in sizes:
        horizon = theorem1_bound(n)
        networks = _families(n, seed, t_window)
        outcomes = {
            label: runner(list(networks.values()), backend)
            for label, runner in _ALGORITHMS
        }
        for index, family in enumerate(networks):
            row = {"family": family, "n": n, "thm1 horizon": horizon}
            for label, _runner in _ALGORITHMS:
                outcome = outcomes[label][index]
                row[f"{label} round"] = outcome.output_round
                exact[(family, label)] &= outcome.count == n
                above[(family, label)] &= outcome.output_round >= horizon
            rows.append(row)
    for family in family_names:
        key = family.replace("-", "_")
        for label, _runner in _ALGORITHMS:
            algo = label.split("(")[0].lower()
            checks[f"{key}_{algo}_exact"] = exact[(family, label)]
            checks[f"{key}_{algo}_above_horizon"] = above[(family, label)]
    return ExperimentResult(
        experiment="upper-vs-lower",
        title="Extension: counting upper bounds vs the Theorem 1 horizon",
        headers=["family", "n", "thm1 horizon"]
        + [f"{label} round" for label, _runner in _ALGORITHMS],
        rows=rows,
        checks=checks,
        notes=[
            "every algorithm outputs count == n on every cell; rounds are "
            "0-indexed output rounds",
            "the gap between floor(log3(2n+1))-1 and the measured rounds "
            "is the paper's open anonymity-cost band: Omega(log n) floor, "
            "O(n) DV/KM ceiling, polynomial MM/CMM drains",
        ],
    )
