"""Generative strategies: seeded random cases and the shrinker.

A *case* (:class:`Case`) is a fully self-describing, JSON-clean record
of one generated scenario: which suite it belongs to, which kind of
object it exercises (a dynamic-network family, a kernel round, a
protocol, a sweep workload), the parameters, and the seed every random
draw derives from.  Because a case is pure data, any failure is
replayable: persist the case, load it later, re-run the same property.

Three pieces live here:

* **Generators** -- :func:`generate_cases` draws ``count`` cases for a
  suite from a master seed.  Case ``i`` of suite ``s`` under seed ``S``
  is a pure function of ``(S, s, i)``, so two runs with the same seed
  fuzz the identical case list.
* **Builders** -- :func:`build_network` turns a network-shaped case into
  a live :class:`~repro.networks.DynamicGraph` (the oracles and
  differential drivers run on the built object).
* **The shrinker** -- :func:`shrink_candidates` proposes strictly
  smaller neighbours of a case (fewer nodes, fewer rounds, fewer edge
  changes, shorter workloads); :func:`shrink` walks greedily to a case
  that still fails but whose every neighbour passes -- a locally minimal
  counterexample, which the harness emits as a regression fixture.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

import networkx as nx
import numpy as np

from repro.networks.csr_native import DynamicGraph, precompile_schedule
from repro.networks.generators import (
    edge_markov_network,
    random_pd_network,
    t_interval_network,
)
from repro.networks.generators.random_dynamic import (
    random_connected_edges,
    random_connected_graph,
)

__all__ = [
    "COUNTING_KINDS",
    "Case",
    "MODEL_KINDS",
    "SUITES",
    "build_network",
    "generate_cases",
    "shrink",
    "shrink_candidates",
]

SUITES = ("model", "kernel", "backend", "runtime", "counting")
"""The five verification suites (see :mod:`repro.verify.harness`)."""

MODEL_KINDS = (
    "pd",
    "t-interval",
    "markov",
    "arbitrary",
    "precompiled",
    "explicit-hold",
    "explicit-cycle",
)
"""Dynamic-network families the model suite draws from."""

_BACKEND_FAMILIES = ("arbitrary", "markov", "t-interval", "precompiled")
_BACKEND_PROTOCOLS = ("flood", "token-ids", "dissemination")

COUNTING_KINDS = (
    "diluna-viglietta",
    "kowalski-mosteiro",
    "milani-mosteiro",
    "chakraborty-mm",
)
"""The algorithm zoo the counting suite fuzzes (``count == n``)."""

_COUNTING_FAMILIES = ("pd", "t-interval", "markov")

#: Cheap experiments the runtime suite composes into sweep workloads,
#: with per-experiment parameter draws (kept tiny: every workload runs
#: three times -- serial, parallel, resumed).
_RUNTIME_POOL: tuple[tuple[str, Callable[[random.Random], dict]], ...] = (
    ("fig1-pd2-example", lambda rng: {"rounds": rng.randint(3, 6)}),
    ("fig2-transformation", lambda rng: {}),
    ("fig3-indistinguishable-r0", lambda rng: {}),
    ("fig4-indistinguishable-r1", lambda rng: {}),
    (
        "tab-star-pd1",
        lambda rng: {"sizes": [rng.randint(2, 4), rng.randint(5, 9)]},
    ),
)


@dataclass(frozen=True)
class Case:
    """One generated verification scenario (pure, JSON-clean data).

    Attributes:
        suite: Owning suite (one of :data:`SUITES`).
        kind: Scenario family within the suite (e.g. ``"pd"``,
            ``"kernel-identities"``, ``"flood"``).
        seed: Seed every random draw inside the case derives from.
        params: JSON-clean parameters (sizes, rounds, probabilities).
    """

    suite: str
    kind: str
    seed: int
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def with_params(self, **updates: Any) -> "Case":
        """A copy of this case with some parameters replaced."""
        params = dict(self.params)
        params.update(updates)
        return Case(self.suite, self.kind, self.seed, params)

    def describe(self) -> str:
        """One-line human-readable description."""
        inner = ", ".join(
            f"{key}={value!r}" for key, value in sorted(self.params.items())
        )
        return f"{self.suite}/{self.kind}(seed={self.seed}, {inner})"

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (the fixture wire format)."""
        return {
            "suite": self.suite,
            "kind": self.kind,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Case":
        """Inverse of :meth:`to_dict` (tolerates extra fixture keys)."""
        return cls(
            suite=payload["suite"],
            kind=payload["kind"],
            seed=int(payload["seed"]),
            params=dict(payload.get("params", {})),
        )


# -- generators -------------------------------------------------------


def _case_rng(master_seed: int, suite: str, index: int) -> random.Random:
    # random.Random only seeds on scalars; fold the triple into a string
    # (the same trick RetryPolicy.delay_s uses) so each case gets an
    # independent, reproducible stream.
    return random.Random(f"verify:{master_seed}:{suite}:{index}")


def _model_case(rng: random.Random) -> Case:
    kind = rng.choice(MODEL_KINDS)
    seed = rng.randrange(2**31)
    rounds = rng.randint(1, 8)
    if kind == "pd":
        layers = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        params = {
            "layers": layers,
            "rounds": rounds,
            "extra_edge_p": rng.choice([0.0, 0.2, 0.5]),
            "intra_layer_p": rng.choice([0.0, 0.3]),
        }
    elif kind == "t-interval":
        t = rng.randint(1, 4)
        params = {
            "n": rng.randint(2, 12),
            "t": t,
            "rounds": max(rounds, t),
            "extra_edge_p": rng.choice([0.0, 0.15, 0.4]),
        }
    elif kind == "markov":
        params = {
            "n": rng.randint(2, 10),
            "rounds": rounds,
            "p_up": rng.choice([0.0, 0.05, 0.3]),
            "p_down": rng.choice([0.0, 0.3, 0.8]),
            "initial_p": rng.choice([0.0, 0.2, 0.6]),
        }
    elif kind == "arbitrary":
        params = {
            "n": rng.randint(1, 12),
            "rounds": rounds,
            "extra_edge_p": rng.choice([0.0, 0.1, 0.5]),
        }
    elif kind == "precompiled":
        params = {
            "n": rng.randint(1, 10),
            "prefix": rng.randint(1, 4),
            "rounds": rounds,
            "extend": rng.choice(["hold", "cycle"]),
            "extra_edge_p": rng.choice([0.0, 0.2]),
        }
    else:  # explicit-hold / explicit-cycle
        params = {
            "n": rng.randint(1, 8),
            "prefix": rng.randint(1, 4),
            "rounds": rounds,
            "extra_edge_p": rng.choice([0.0, 0.2]),
        }
    return Case("model", kind, seed, params)


def _kernel_case(rng: random.Random) -> Case:
    return Case(
        "kernel",
        "kernel-identities",
        rng.randrange(2**31),
        {"r": rng.randint(0, 5), "n": rng.randint(1, 40)},
    )


def _backend_case(rng: random.Random) -> Case:
    protocol = rng.choice(_BACKEND_PROTOCOLS)
    # Fuzzing the streaming chunk budget makes every backend case a
    # free chunked-vs-monolithic differential oracle: a tiny budget
    # forces multi-chunk execution, which must match the object engine
    # (and hence the unchunked fast path) exactly.
    budget = rng.randint(1, 12)
    return Case(
        "backend",
        protocol,
        rng.randrange(2**31),
        {
            "family": rng.choice(_BACKEND_FAMILIES),
            "n": rng.randint(2, 10),
            "lanes": rng.randint(1, 3),
            "max_lane_nodes": rng.choice([None, budget]),
        },
    )


def _runtime_case(rng: random.Random) -> Case:
    chosen = rng.sample(_RUNTIME_POOL, rng.randint(2, 3))
    workload = [[name, draw(rng)] for name, draw in chosen]
    return Case(
        "runtime",
        "sweep-equivalence",
        rng.randrange(2**31),
        {"workload": workload},
    )


def _counting_case(rng: random.Random) -> Case:
    kind = rng.choice(COUNTING_KINDS)
    family = rng.choice(_COUNTING_FAMILIES)
    params: dict[str, Any] = {"family": family}
    if family == "pd":
        # n = 1 + sum(layers), so every pd draw has n >= 2.
        params["layers"] = [
            rng.randint(1, 3) for _ in range(rng.randint(1, 2))
        ]
    else:
        params["n"] = rng.randint(2, 8)
    if kind == "kowalski-mosteiro":
        params["supervisors"] = rng.randint(1, 2)
    if kind in ("milani-mosteiro", "chakraborty-mm"):
        # The drain algorithms have a vectorized backend: fuzz the lane
        # count and the streaming chunk budget so every case doubles as
        # an object-vs-fast (and chunked-vs-monolithic) differential.
        params["lanes"] = rng.randint(1, 2)
        params["max_lane_nodes"] = rng.choice([None, rng.randint(1, 4)])
    return Case("counting", kind, rng.randrange(2**31), params)


_GENERATORS: dict[str, Callable[[random.Random], Case]] = {
    "model": _model_case,
    "kernel": _kernel_case,
    "backend": _backend_case,
    "runtime": _runtime_case,
    "counting": _counting_case,
}


def generate_cases(suite: str, count: int, master_seed: int) -> list[Case]:
    """Draw ``count`` cases for ``suite`` from ``master_seed``.

    Case ``i`` is a pure function of ``(master_seed, suite, i)``:
    re-running with the same seed reproduces the identical case list
    regardless of how many cases other suites drew.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    generator = _GENERATORS[suite]
    return [
        generator(_case_rng(master_seed, suite, index))
        for index in range(count)
    ]


# -- builders ---------------------------------------------------------


def _arbitrary_network(
    n: int, seed: int, extra_edge_p: float
) -> DynamicGraph:
    """A CSR-native memoryless random family keyed by ``(seed, round)``."""

    def provider(round_no: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([seed, round_no])
        return random_connected_edges(n, rng, extra_edge_p=extra_edge_p)

    return DynamicGraph(
        n, provider, name=f"verify-arbitrary(n={n}, seed={seed})"
    )


def _explicit_prefix(
    n: int, prefix: int, seed: int, extra_edge_p: float
) -> list[nx.Graph]:
    return [
        random_connected_graph(
            n,
            np.random.default_rng([seed, index]),
            extra_edge_p=extra_edge_p,
        )
        for index in range(prefix)
    ]


def build_network(case: Case) -> DynamicGraph:
    """Materialise a network-shaped case as a :class:`DynamicGraph`.

    Accepts model-suite cases and backend-suite cases (whose ``family``
    parameter names one of the model kinds).
    """
    params = dict(case.params)
    kind = params.pop("family", case.kind)
    seed = case.seed
    if kind == "pd":
        network, _layers = random_pd_network(
            list(params["layers"]),
            seed=seed,
            extra_edge_p=params.get("extra_edge_p", 0.0),
            intra_layer_p=params.get("intra_layer_p", 0.0),
        )
        return network
    if kind == "t-interval":
        return t_interval_network(
            params["n"],
            params.get("t", 1 + seed % 3),
            seed=seed,
            extra_edge_p=params.get("extra_edge_p", 0.15),
        )
    if kind == "markov":
        return edge_markov_network(
            params["n"],
            seed=seed,
            p_up=params.get("p_up", 0.05),
            p_down=params.get("p_down", 0.3),
            initial_p=params.get("initial_p", 0.2),
        )
    if kind == "arbitrary":
        return _arbitrary_network(
            params["n"], seed, params.get("extra_edge_p", 0.1)
        )
    if kind == "precompiled":
        source = _arbitrary_network(
            params["n"], seed, params.get("extra_edge_p", 0.1)
        )
        return precompile_schedule(
            source,
            params.get("prefix", 2),
            extend=params.get("extend", "hold"),
            name=f"verify-precompiled(n={params['n']}, seed={seed})",
        )
    if kind in ("explicit-hold", "explicit-cycle"):
        graphs = _explicit_prefix(
            params["n"],
            params.get("prefix", 2),
            seed,
            params.get("extra_edge_p", 0.0),
        )
        return DynamicGraph.from_graphs(
            graphs,
            extend="hold" if kind == "explicit-hold" else "cycle",
            name=f"verify-{kind}(n={params['n']}, seed={seed})",
        )
    raise ValueError(f"cannot build a network for case kind {kind!r}")


# -- the shrinker -----------------------------------------------------

#: Lower bounds for integer parameters, by name.  Kind-specific bounds
#: (``(kind, name)`` keys) override the generic ``(None, name)`` ones.
_INT_MINS: dict[tuple[str | None, str], int] = {
    (None, "rounds"): 1,
    (None, "n"): 1,
    ("t-interval", "n"): 2,
    ("markov", "n"): 2,
    # Counting cases may carry any family in params, including the
    # two-node-minimum markov family, so n never shrinks below 2.
    ("diluna-viglietta", "n"): 2,
    ("kowalski-mosteiro", "n"): 2,
    ("milani-mosteiro", "n"): 2,
    ("chakraborty-mm", "n"): 2,
    (None, "t"): 1,
    (None, "prefix"): 1,
    (None, "r"): 0,
    (None, "lanes"): 1,
    (None, "max_lane_nodes"): 1,
    (None, "supervisors"): 1,
}


def _int_min(kind: str, name: str) -> int | None:
    if (kind, name) in _INT_MINS:
        return _INT_MINS[(kind, name)]
    return _INT_MINS.get((None, name))


def _clamp(case: Case) -> Case:
    """Re-establish cross-parameter invariants after a shrink step."""
    params = case.params
    if case.kind == "t-interval" and params.get("rounds", 1) < params.get(
        "t", 1
    ):
        # A T-interval window needs at least T rounds to be checkable.
        return case.with_params(rounds=params["t"])
    if case.kind == "kowalski-mosteiro" and "supervisors" in params:
        # Supervisors are node indices, so there can be at most n.
        n = params.get("n", 1 + sum(params.get("layers", [])))
        if params["supervisors"] > n:
            return case.with_params(supervisors=n)
    return case


def shrink_candidates(case: Case) -> Iterator[Case]:
    """Strictly smaller neighbours of ``case``, most aggressive first.

    Integer parameters step toward their lower bound (jump to the
    bound, halve the distance, decrement); float probabilities drop to
    0; integer lists (layer sizes, star sizes) lose their last element
    and decrement entries; workloads lose their last experiment.  A
    case whose every parameter sits at its bound yields nothing -- the
    fixed point the greedy :func:`shrink` loop terminates on.
    """
    emitted: set[str] = set()

    def emit(candidate: Case) -> Iterator[Case]:
        candidate = _clamp(candidate)
        key = json.dumps(candidate.params, sort_keys=True)
        if candidate.params != case.params and key not in emitted:
            emitted.add(key)
            yield candidate

    for name, value in sorted(case.params.items()):
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            lo = _int_min(case.kind, name)
            if lo is None or value <= lo:
                continue
            for target in (lo, lo + (value - lo) // 2, value - 1):
                if lo <= target < value:
                    yield from emit(case.with_params(**{name: target}))
        elif isinstance(value, float):
            if value > 0.0:
                yield from emit(case.with_params(**{name: 0.0}))
        elif isinstance(value, list) and value:
            if name == "workload":
                if len(value) > 1:
                    yield from emit(case.with_params(workload=value[:-1]))
                continue
            if len(value) > 1:
                yield from emit(case.with_params(**{name: value[:-1]}))
            if all(isinstance(item, int) for item in value):
                for index, item in enumerate(value):
                    if item > 1:
                        smaller = list(value)
                        smaller[index] = item - 1
                        yield from emit(case.with_params(**{name: smaller}))


def shrink(
    case: Case,
    fails: Callable[[Case], bool],
    *,
    max_attempts: int = 500,
) -> Case:
    """Greedily minimise a failing case while it keeps failing.

    Args:
        case: A case for which ``fails(case)`` is true.
        fails: The property under test (true = still a counterexample).
        max_attempts: Budget of candidate evaluations (a safety net; the
            parameter lattice is shallow, so real shrinks finish in tens
            of steps).

    Returns:
        A locally minimal failing case: every candidate produced by
        :func:`shrink_candidates` for it passes (or the budget ran out).
    """
    attempts = 0
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in shrink_candidates(case):
            attempts += 1
            if fails(candidate):
                case = candidate
                progressed = True
                break
            if attempts >= max_attempts:
                break
    return case
