"""Experiments: Lemma 5 / Theorems 1-2 -- the cost-of-anonymity curves.

These are the headline measurements of the reproduction: the worst-case
adversary is executed against the information-theoretically optimal
counting algorithm and the measured round counts are compared, point for
point, against the closed-form bounds.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import fit_log3
from repro.analysis.registry import ExperimentResult
from repro.analysis.runtime import parallel_map
from repro.analysis.sweep import log_spaced_sizes
from repro.adversaries.worst_case import (
    max_ambiguity_multigraph,
    measured_ambiguity_curve,
)
from repro.core.counting.optimal import count_mdbl2_abstract
from repro.core.lowerbound.bounds import (
    ambiguity_horizon,
    min_output_round,
    min_sum_negative,
    rounds_to_count,
    theorem1_bound,
)
from repro.core.lowerbound.pairs import twin_multigraphs
from repro.networks.multigraph import DynamicMultigraph

__all__ = ["ambiguity_horizon_table", "counting_rounds_vs_n"]


def _measure_horizon(n: int) -> tuple[dict, bool, bool, bool]:
    """Per-size worker of :func:`ambiguity_horizon_table` (picklable)."""
    theory = ambiguity_horizon(n)
    adversary = max_ambiguity_multigraph(n)
    widths = measured_ambiguity_curve(adversary)
    measured_last_ambiguous = max(
        (round_no for round_no, width in enumerate(widths) if width > 0),
        default=-1,
    )
    smaller, larger = twin_multigraphs(theory, n)
    twins_equal = smaller.observations(theory + 1) == larger.observations(
        theory + 1
    )
    twins_diverge = smaller.observations(theory + 2) != larger.observations(
        theory + 2
    )
    row = {
        "n": n,
        "sum- k_r at horizon": min_sum_negative(theory),
        "theory horizon": theory,
        "measured horizon": measured_last_ambiguous,
        "theorem1 formula": theorem1_bound(n),
        "first output round": len(widths) - 1,
        "theory output round": min_output_round(n),
    }
    return row, measured_last_ambiguous == theory, twins_equal, twins_diverge


def ambiguity_horizon_table(
    *,
    sizes: tuple[int, ...] = (1, 2, 4, 5, 13, 14, 40, 41, 121, 122, 364, 365),
    jobs: int = 1,
) -> ExperimentResult:
    """Lemma 5 / Theorem 1: measured vs theoretical ambiguity horizon.

    For each size ``n``, runs the worst-case adversary against the exact
    solver and records the last round at which the feasible-size
    interval was still wide; it must equal ``⌊log_3(2n+1)⌋ - 1`` exactly.
    The default sizes straddle the thresholds ``(3^{r+1}-1)/2`` where the
    horizon jumps (4/5, 13/14, 40/41, ...).  Sizes are independent, so
    ``jobs > 1`` spreads them over worker processes.
    """
    rows = []
    checks: dict[str, bool] = {}
    outcomes = parallel_map(_measure_horizon, sizes, jobs=jobs)
    for n, (row, horizon_ok, twins_equal, twins_diverge) in zip(
        sizes, outcomes
    ):
        rows.append(row)
        checks[f"n{n}_horizon_matches"] = horizon_ok
        checks[f"n{n}_twins_equal_through_horizon"] = twins_equal
        checks[f"n{n}_twins_diverge_after_horizon"] = twins_diverge
    return ExperimentResult(
        experiment="tab-ambiguity-horizon",
        title="Lemma 5 / Theorem 1: ambiguity horizon, measured vs theory",
        headers=[
            "n",
            "sum- k_r at horizon",
            "theory horizon",
            "measured horizon",
            "theorem1 formula",
            "first output round",
            "theory output round",
        ],
        rows=rows,
        checks=checks,
        notes=[
            "measured horizon = last round the exact solver's feasible-size "
            "interval is wider than a point, under the Lemma 5 adversary",
        ],
    )


def _measure_counting(args: tuple[int, tuple[int, ...], int]) -> dict:
    """Per-size worker of :func:`counting_rounds_vs_n` (picklable)."""
    n, fair_seeds, fair_rounds_budget = args
    outcome = count_mdbl2_abstract(max_ambiguity_multigraph(n))
    fair_rounds = []
    for seed in fair_seeds:
        rng = np.random.default_rng([seed, n])
        fair = DynamicMultigraph.random(
            2, n, fair_rounds_budget, rng, name=f"fair-n{n}-s{seed}"
        )
        fair_rounds.append(count_mdbl2_abstract(fair).rounds)
    return {
        "n": n,
        "worst-case measured": outcome.rounds,
        "theory": rounds_to_count(n),
        "fair mean": sum(fair_rounds) / len(fair_rounds),
        "count correct": outcome.count == n,
    }


def counting_rounds_vs_n(
    *,
    max_n: int = 1000,
    per_decade: int = 6,
    fair_seeds: tuple[int, ...] = (0, 1, 2),
    fair_rounds_budget: int = 64,
    jobs: int = 1,
) -> ExperimentResult:
    """Theorem 2 (headline): counting rounds vs network size.

    Series produced:

    * ``worst-case measured`` -- termination round of the optimal
      anonymous counter against the worst-case adversary;
    * ``theory`` -- ``rounds_to_count(n) = ⌊log_3(2n+1)⌋ + 1``;
    * ``fair mean`` -- mean termination round under uniform random label
      schedules (fair adversary), showing the gap is adversarial.

    The worst-case series is fitted to ``a + b·log_3 n``; Theorem 2's
    claim corresponds to slope ``b ≈ 1`` with ``R² ≈ 1``.  Each size is
    measured independently, so ``jobs > 1`` spreads the sweep over
    worker processes (results are deterministic and order-preserving
    either way).
    """
    sizes = log_spaced_sizes(2, max_n, per_decade=per_decade)
    rows = parallel_map(
        _measure_counting,
        [(n, tuple(fair_seeds), fair_rounds_budget) for n in sizes],
        jobs=jobs,
    )
    measured = [row["worst-case measured"] for row in rows]
    checks: dict[str, bool] = {}
    for n, row in zip(sizes, rows):
        checks[f"n{n}_matches_theory"] = (
            row["worst-case measured"] == row["theory"]
        )
        checks[f"n{n}_count_correct"] = bool(row["count correct"])
    fit = fit_log3(sizes, measured)
    checks["log3_slope_near_1"] = 0.8 <= fit.slope <= 1.2
    checks["log3_fit_r2_above_0.95"] = fit.r_squared >= 0.95
    return ExperimentResult(
        experiment="fig-counting-rounds-vs-n",
        title="Theorem 2: rounds to count vs n (worst-case adversary)",
        headers=["n", "worst-case measured", "theory", "fair mean", "count correct"],
        rows=rows,
        checks=checks,
        notes=[str(fit)],
    )
