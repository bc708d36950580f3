"""``O(1)``-round counting in restricted ``G(PD)_2`` with a degree oracle.

The Discussion in Section 4.2: take the *restricted* ``G(PD)_2`` model
(no edges inside a layer, so every edge joins adjacent layers) and give
each node a local degree detector -- it learns ``|N(v, r)|`` *before*
the receive phase of round ``r``.  Then counting needs only a constant
number of rounds:

* round 0 -- the leader broadcasts a beacon; a node that hears it learns
  it is in ``V_1`` (only ``V_1`` is adjacent to the leader), everyone
  else knows it is in ``V_2``; the leader's inbox size is ``|V_1|``.
* round 1 -- every ``V_2`` node broadcasts the fraction
  ``1 / |N(v, 1)|``.  All its neighbours are in ``V_1`` (restriction),
  so each ``V_2`` node injects total mass exactly 1 into ``V_1``.
* round 2 -- every ``V_1`` node broadcasts the sum of fractions it
  received; the leader adds them up.  By conservation of mass the total
  is exactly ``|V_2|``, and the leader outputs
  ``1 + |V_1| + |V_2|``.

Fractions are exact (:class:`fractions.Fraction`), so the count is exact
-- no floating-point tolerance is involved.  The same adversary that
forces ``Ω(log |V|)`` rounds without the oracle is answered in 3 rounds
with it: that gap is the point of the paper's Discussion and is measured
by ``benchmarks/bench_oracle.py``.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.counting.base import CountingOutcome
from repro.networks.csr_native import DynamicGraph
from repro.simulation.engine import DegreeOracleEngine, EngineConfig
from repro.simulation.messages import Inbox
from repro.simulation.node import Process

__all__ = [
    "OracleLeaderProcess",
    "OracleMemberProcess",
    "count_pd2_with_degree_oracle",
]

_BEACON = "beacon"
_PROBE = "probe"


class OracleLeaderProcess(Process):
    """Leader: beacon at round 0, read ``|V_1|``, sum ``V_1`` reports."""

    def __init__(self) -> None:
        self._output = None
        self._v1_size: int | None = None

    def observe_degree(self, round_no: int, degree: int) -> None:
        pass  # The leader does not need the oracle.

    def compose(self, round_no: int) -> str | None:
        return _BEACON if round_no == 0 else None

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no == 0:
            self._v1_size = len(inbox)
        elif round_no == 2:
            total = sum(
                (payload for payload in inbox if isinstance(payload, Fraction)),
                start=Fraction(0),
            )
            if total.denominator != 1:
                raise AssertionError(
                    f"mass conservation violated: leader collected {total}"
                )
            self._output = 1 + self._v1_size + int(total)


class OracleMemberProcess(Process):
    """Anonymous node: infer the layer at round 0, then run the protocol."""

    def __init__(self) -> None:
        self._in_v1: bool | None = None
        self._degree: int | None = None
        self._collected = Fraction(0)

    def observe_degree(self, round_no: int, degree: int) -> None:
        self._degree = degree

    def compose(self, round_no: int) -> object:
        if round_no == 0:
            return _PROBE
        if round_no == 1 and self._in_v1 is False:
            # All neighbours of a V2 node are in V1 (restricted model),
            # so this injects exactly degree * (1/degree) = 1 into V1.
            return Fraction(1, self._degree)
        if round_no == 2 and self._in_v1 is True:
            return self._collected
        return None

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no == 0:
            self._in_v1 = _BEACON in inbox
        elif round_no == 1 and self._in_v1:
            self._collected = sum(
                (payload for payload in inbox if isinstance(payload, Fraction)),
                start=Fraction(0),
            )


def count_pd2_with_degree_oracle(
    network: DynamicGraph, *, leader: int = 0
) -> CountingOutcome:
    """Count a restricted ``G(PD)_2`` network in 3 rounds, exactly.

    Args:
        network: A dynamic graph in restricted ``G(PD)_2`` (no
            intra-layer edges) with the leader at ``leader``.  Both
            :func:`repro.networks.generators.pd.random_pd_network` with
            ``intra_layer_p=0`` and transformed multigraphs qualify.
        leader: The leader's node index.

    Returns:
        The exact total node count, always with ``rounds == 3``.
    """
    processes: list[Process] = [
        OracleLeaderProcess() if index == leader else OracleMemberProcess()
        for index in range(network.n)
    ]
    engine = DegreeOracleEngine(
        processes,
        network,
        leader=leader,
        config=EngineConfig(max_rounds=4),
    )
    result = engine.run()
    return CountingOutcome(
        count=result.leader_output,
        output_round=result.rounds - 1,
        rounds=result.rounds,
        algorithm="degree-oracle",
    )
