"""Small sweep helpers shared by experiments and benchmarks."""

from __future__ import annotations

import itertools
from typing import Any, Mapping, Sequence

from repro.analysis.registry import OPTION_FIELDS, ExperimentRequest
from repro.obs.logger import get_logger

_log = get_logger("analysis.sweep")

__all__ = ["grid_requests", "log_spaced_sizes"]


def grid_requests(
    experiment: str,
    grid: Mapping[str, Sequence[Any]],
    **base: Any,
) -> list[ExperimentRequest]:
    """One :class:`ExperimentRequest` per point of a parameter grid.

    The cartesian product of ``grid`` (in key order, last key fastest)
    becomes the per-request params; ``base`` sets fields shared by
    every request.  Grid keys naming declarative option fields
    (``backend``/``jobs``/``seed``) become request fields rather than
    raw params, so opt-in filtering and cache keys behave exactly as
    they would for a hand-built request::

        grid_requests("tab-star-pd1", {"sizes": [(2,), (2, 5)]},
                      backend="fast")

    feeds straight into :func:`repro.analysis.runtime.run_sweep`.
    """
    keys = list(grid)
    requests = []
    for point in itertools.product(*(grid[key] for key in keys)):
        fields = dict(base)
        params = dict(fields.pop("params", {}))
        for key, value in zip(keys, point):
            if key in OPTION_FIELDS:
                fields[key] = value
            else:
                params[key] = value
        requests.append(
            ExperimentRequest(experiment=experiment, params=params, **fields)
        )
    _log.debug(
        "grid expanded",
        extra={"experiment": experiment, "points": len(requests)},
    )
    return requests


def log_spaced_sizes(
    lo: int, hi: int, *, per_decade: int = 6
) -> list[int]:
    """Roughly log-spaced integer sizes in ``[lo, hi]``, deduplicated.

    Used for the rounds-vs-n sweeps, where sizes should cover several
    powers of 3 without wasting work on near-duplicates.

    Raises:
        ValueError: ``lo``/``hi`` out of order, or ``per_decade < 1``
            (a non-positive density would make the growth ratio <= 1
            and the sweep would never terminate).
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    if per_decade < 1:
        raise ValueError(
            f"per_decade must be >= 1 (got {per_decade}): fewer than one "
            "size per decade has growth ratio <= 1 and never reaches hi"
        )
    sizes: list[int] = []
    value = float(lo)
    ratio = 10.0 ** (1.0 / per_decade)
    while value <= hi:
        size = round(value)
        if not sizes or size > sizes[-1]:
            sizes.append(size)
        value *= ratio
    if sizes[-1] != hi:
        sizes.append(hi)
    _log.debug(
        "sweep sizes generated",
        extra={"lo": lo, "hi": hi, "per_decade": per_decade, "count": len(sizes)},
    )
    return sizes
