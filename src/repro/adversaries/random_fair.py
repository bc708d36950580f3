"""Fair adversaries for the multigraph model.

A fair ``M(DBL)_k`` adversary draws every node's label set uniformly and
independently each round -- no conspiracy against the algorithm.  Under
fair dynamics the optimal counter's observations usually pin the size
far sooner than the worst-case bound, which the baseline benchmarks use
to show the lower bound is about adversarial behaviour rather than the
model itself.

(The fair *graph* adversaries for the general dynamic-network model live
in :mod:`repro.networks.generators.random_dynamic`.)
"""

from __future__ import annotations

from repro.core.states import all_label_sets
from repro.networks.generators.streams import round_rng
from repro.simulation.node import Process

__all__ = ["RandomLabelAdversary"]


class RandomLabelAdversary:
    """Uniform random label sets, independent per node and round.

    Implements :class:`repro.simulation.labeled.LabelSetProvider`.
    Rounds are keyed by ``(seed, round)`` so executions are reproducible
    and repeated queries for the same round agree.
    """

    def __init__(self, k: int, n: int, *, seed: int = 0) -> None:
        if k < 1 or n < 1:
            raise ValueError("need k >= 1 and n >= 1")
        self._k = k
        self.n = n
        self.seed = seed

    @property
    def k(self) -> int:
        return self._k

    def label_sets(
        self, round_no: int, processes: list[Process] | None = None
    ) -> list[frozenset]:
        rng = round_rng(self.seed, round_no)
        choices = all_label_sets(self._k)
        picks = rng.integers(len(choices), size=self.n)
        return [choices[int(pick)] for pick in picks]
