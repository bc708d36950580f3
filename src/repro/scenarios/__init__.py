"""Declarative scenarios: runs as data (see ``docs/SCENARIOS.md``).

* :mod:`~repro.scenarios.schema` -- the versioned, strictly-validated
  JSON/TOML scenario schema; :class:`Scenario` compiles
  deterministically into typed
  :class:`~repro.analysis.registry.ExperimentRequest` values with
  cache/journal identity byte-identical to hand-built requests.
* :mod:`~repro.scenarios.options` -- :class:`ExecutionOptions`, the
  single execution-option surface shared by the CLI flag group, the
  scenario schema, and ``repro serve``.
* :mod:`~repro.scenarios.runner` -- :func:`run_requests`, the one
  place execution options become a running sweep, and
  :func:`run_scenario`, the bridge from a scenario onto it.
"""

from repro.scenarios.options import (
    EXECUTION_FIELDS,
    ExecutionOptions,
    add_execution_arguments,
    schema_fields,
)
from repro.scenarios.runner import run_requests, run_scenario
from repro.scenarios.schema import (
    SCHEMA_VERSION,
    Scenario,
    ScenarioError,
    load_scenario,
)

__all__ = [
    "EXECUTION_FIELDS",
    "ExecutionOptions",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioError",
    "add_execution_arguments",
    "load_scenario",
    "run_requests",
    "run_scenario",
    "schema_fields",
]
