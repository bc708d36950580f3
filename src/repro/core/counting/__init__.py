"""Executable counting algorithms and baselines.

* :mod:`repro.core.counting.optimal` -- the information-theoretically
  optimal leader protocol for anonymous ``M(DBL)_2`` networks, built on
  the exact interval solver.  Its termination round *is* the measured
  lower bound.
* :mod:`repro.core.counting.star` -- one-round counting in ``G(PD)_1``.
* :mod:`repro.core.counting.degree_oracle` -- the ``O(1)``-round
  fractional-mass algorithm for restricted ``G(PD)_2`` networks with a
  local degree detector (the paper's Discussion).
* :mod:`repro.core.counting.token_ids` -- counting by full token
  dissemination in networks *with* identifiers (the ``O(D)`` baseline).
* :mod:`repro.core.counting.gossip` -- Kempe-style push-sum size
  *estimation* under fair adversaries (anonymous, approximate).
* :mod:`repro.core.counting.flooding` -- protocol-level flooding, used
  to measure dissemination time / the dynamic diameter through the real
  engine.

The *algorithm zoo* -- published anonymous counting upper bounds raced
against the paper's Theorem 1 horizon by the ``upper-vs-lower``
experiment:

* :mod:`repro.core.counting.history` -- shared history-tree views and
  the exact multiplicity solver.
* :mod:`repro.core.counting.diluna_viglietta` -- Di Luna-Viglietta
  linear-time counting with a unique leader (arXiv 2204.02128).
* :mod:`repro.core.counting.kowalski_mosteiro` -- Kowalski-Mosteiro
  counting with ``ell`` indistinguishable supervisors instead of a
  leader (arXiv 2104.02937).
* :mod:`repro.core.counting.drain` -- the Milani-Mosteiro doubling
  drain (arXiv 1509.02140) and Chakraborty-Milani-Mosteiro Incremental
  Counting (arXiv 1603.05459), exact fixed-point mass draining with a
  bit-identical fast backend.
"""

from repro.core.counting.base import CountingOutcome
from repro.core.counting.degree_oracle import count_pd2_with_degree_oracle
from repro.core.counting.diluna_viglietta import count_diluna_viglietta
from repro.core.counting.drain import (
    count_chakraborty_mm,
    count_chakraborty_mm_batch,
    count_drain_batch,
    count_milani_mosteiro,
    count_milani_mosteiro_batch,
)
from repro.core.counting.flooding import flood_time_via_protocol, flood_times_batch
from repro.core.counting.gossip import (
    gossip_size_estimates,
    gossip_size_estimates_batch,
)
from repro.core.counting.kowalski_mosteiro import count_kowalski_mosteiro
from repro.core.counting.optimal import (
    OptimalLeaderProcess,
    count_mdbl2,
    count_mdbl2_abstract,
)
from repro.core.counting.star import count_star, make_star_processes
from repro.core.counting.token_ids import count_with_ids, count_with_ids_batch

__all__ = [
    "CountingOutcome",
    "OptimalLeaderProcess",
    "count_chakraborty_mm",
    "count_chakraborty_mm_batch",
    "count_diluna_viglietta",
    "count_drain_batch",
    "count_kowalski_mosteiro",
    "count_mdbl2",
    "count_mdbl2_abstract",
    "count_milani_mosteiro",
    "count_milani_mosteiro_batch",
    "count_pd2_with_degree_oracle",
    "count_star",
    "count_with_ids",
    "count_with_ids_batch",
    "flood_time_via_protocol",
    "flood_times_batch",
    "gossip_size_estimates",
    "gossip_size_estimates_batch",
    "make_star_processes",
]
