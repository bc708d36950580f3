"""The one execution-option surface shared by CLI, scenarios, and service.

``run`` / ``all`` / ``report`` / ``scenario run`` / ``repro serve`` and
the declarative scenario schema all execute sweeps with the same knobs:
backend, jobs, seed, timeouts, retries, failure budgets, sharding,
telemetry, lane budgets.  Before this module each surface wired
its own copy of those options and they drifted (the CLI had no
``--seed``; ``--telemetry`` lived in a different group than the rest).

:class:`ExecutionOptions` is now the single definition.  Each field is
described once in :data:`EXECUTION_FIELDS` -- name, CLI flag, argparse
configuration, scenario-schema visibility -- and everything else is
derived from that table:

* :func:`add_execution_arguments` builds the CLI flag group,
* :meth:`ExecutionOptions.from_namespace` reads parsed CLI args,
* :meth:`ExecutionOptions.from_dict` validates a scenario file's
  ``execution`` section (unknown keys rejected by name),
* :func:`schema_fields` names the fields a scenario may set,

so a test can assert CLI flags and schema fields are the *same set*
(``tests/scenarios/test_options.py``) and they can never drift again.
The options are read in one place too:
:func:`repro.scenarios.runner.run_requests` turns an
:class:`ExecutionOptions` into a running sweep for every surface.

The CLI-only flags ``--cache-dir`` / ``--inject-fault`` ride in the
same group but are not execution options: where results live and which
fault to inject are properties of one invocation, not of a scenario.
``repro scenario run`` adds exactly these two entries (the ones marked
``schema=False``) to its own flags.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Mapping

from repro.analysis.runtime.journal import parse_shard
from repro.analysis.runtime.retry import RetryPolicy
from repro.obs.telemetry import parse_every

__all__ = [
    "EXECUTION_FIELDS",
    "ExecutionOptions",
    "add_execution_arguments",
    "schema_fields",
]


@dataclass(frozen=True)
class FieldSpec:
    """One execution option: its CLI flag and its schema visibility."""

    name: str
    flag: str
    kwargs: Mapping[str, Any]
    #: ``False`` for per-invocation flags (``--cache-dir``,
    #: ``--inject-fault``) that a scenario file must not set.
    schema: bool = True


#: The single source of truth for the execution-option surface.
EXECUTION_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec(
        "backend",
        "--backend",
        {
            "choices": ["object", "fast"],
            "default": "object",
            "help": (
                "simulation backend: 'object' drives one process object "
                "per node, 'fast' the vectorized batch engine; applied "
                "to the experiments that declare support for it "
                "(default: object)"
            ),
        },
    ),
    FieldSpec(
        "jobs",
        "--jobs",
        {
            "type": int,
            "default": 1,
            "metavar": "N",
            "help": (
                "worker processes (default: serial); for `run` this is "
                "granted to the experiment's internal sweeps"
            ),
        },
    ),
    FieldSpec(
        "seed",
        "--seed",
        {
            "type": int,
            "default": None,
            "metavar": "S",
            "help": (
                "randomness seed, applied to the experiments that "
                "declare support for it (default: each experiment's own "
                "default)"
            ),
        },
    ),
    FieldSpec(
        "cache_dir",
        "--cache-dir",
        {
            "default": None,
            "metavar": "PATH",
            "help": (
                "cache results as JSON under PATH, keyed by "
                "(experiment, params), and keep the checkpoint journal "
                "there (a scenario's is keyed by its digest); cached "
                "experiments are not re-run"
            ),
        },
        schema=False,
    ),
    FieldSpec(
        "resume",
        "--resume",
        {
            "action": "store_true",
            "help": (
                "replay the checkpoint journal: skip completed tasks, "
                "re-queue in-flight ones (requires --cache-dir)"
            ),
        },
    ),
    FieldSpec(
        "timeout",
        "--timeout",
        {
            "type": float,
            "default": None,
            "metavar": "S",
            "help": (
                "wall-clock budget per task attempt in seconds; hung "
                "workers are terminated and retried (needs --jobs >= 2)"
            ),
        },
    ),
    FieldSpec(
        "retries",
        "--retries",
        {
            "type": int,
            "default": 2,
            "metavar": "N",
            "help": (
                "extra attempts per task after a transient failure "
                "(worker crash, timeout, I/O); deterministic bugs never "
                "retry (default: 2)"
            ),
        },
    ),
    FieldSpec(
        "max_failures",
        "--max-failures",
        {
            "type": int,
            "default": 0,
            "metavar": "N",
            "help": (
                "fatally-failed tasks tolerated before the sweep "
                "aborts; tolerated failures appear as failing results "
                "in the output (default: 0, fail fast)"
            ),
        },
    ),
    FieldSpec(
        "inject_fault",
        "--inject-fault",
        {
            "default": None,
            "metavar": "KIND@K",
            "help": (
                "testing: deterministically inject a fault "
                "(raise|fatal|hang|kill) into the K-th pending task's "
                "first attempt"
            ),
        },
        schema=False,
    ),
    FieldSpec(
        "max_lane_nodes",
        "--max-lane-nodes",
        {
            "type": int,
            "default": None,
            "metavar": "N",
            "help": (
                "fast backend: stream lane batches in chunks of at most "
                "N stacked nodes instead of materialising one "
                "block-diagonal stack (results are identical; peak "
                "memory is bounded by the chunk, see "
                "docs/PERFORMANCE.md)"
            ),
        },
    ),
    FieldSpec(
        "shard",
        "--shard",
        {
            "default": None,
            "metavar": "I/N",
            "help": (
                "run only the sweep tasks shard I of N owns "
                "(deterministic journal-key hash partition, stable "
                "across machines); merge the per-shard journals with "
                "`repro merge-journals` and --resume to fold shards "
                "back together"
            ),
        },
    ),
    FieldSpec(
        "telemetry",
        "--telemetry",
        {
            "nargs": "?",
            "const": "1",
            "default": None,
            "metavar": "EVERY",
            "help": (
                "emit per-round engine telemetry events every EVERY "
                "rounds ('K' or 'every=K'; bare flag samples every "
                "round); pair with --log-json to capture them"
            ),
        },
    ),
)


def schema_fields() -> frozenset[str]:
    """The execution-option names a scenario file may set."""
    return frozenset(spec.name for spec in EXECUTION_FIELDS if spec.schema)


def add_execution_arguments(
    parser: argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """Attach the shared execution flag group to ``parser``; returns it."""
    group = parser.add_argument_group("execution")
    for spec in EXECUTION_FIELDS:
        group.add_argument(spec.flag, **dict(spec.kwargs))
    return parser


def _default(name: str) -> Any:
    for spec in EXECUTION_FIELDS:
        if spec.name == name:
            return spec.kwargs.get("default", False)
    raise KeyError(name)


@dataclass(frozen=True)
class ExecutionOptions:
    """Validated execution options for one sweep (see module docstring).

    Attributes mirror the CLI flags one-to-one; string-shaped values
    (``shard``, ``telemetry``) keep their surface syntax so a scenario
    file and a command line read identically, and are parsed on demand
    by :meth:`shard_tuple` / :meth:`telemetry_every`.
    """

    backend: str = "object"
    jobs: int = 1
    seed: int | None = None
    resume: bool = False
    timeout: float | None = None
    retries: int = 2
    max_failures: int = 0
    max_lane_nodes: int | None = None
    shard: str | None = None
    telemetry: int | str | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("object", "fast"):
            raise ValueError(
                f"backend must be 'object' or 'fast', got {self.backend!r}"
            )
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool):
            raise ValueError(f"jobs must be an integer, got {self.jobs!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed is not None and (
            not isinstance(self.seed, int) or isinstance(self.seed, bool)
        ):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.resume, bool):
            raise ValueError(f"resume must be a boolean, got {self.resume!r}")
        if self.max_lane_nodes is not None and (
            not isinstance(self.max_lane_nodes, int)
            or isinstance(self.max_lane_nodes, bool)
            or self.max_lane_nodes < 1
        ):
            raise ValueError(
                f"max_lane_nodes must be a positive integer, got "
                f"{self.max_lane_nodes!r}"
            )
        # Delegated validators: the same parsers the runtime uses, so
        # error text (and accepted syntax) cannot diverge.
        self.retry_policy()
        self.shard_tuple()
        self.telemetry_every()

    # -- derived runtime values -------------------------------------------

    def retry_policy(self) -> RetryPolicy:
        """The :class:`RetryPolicy` these options resolve to."""
        return RetryPolicy(
            retries=self.retries,
            timeout_s=self.timeout,
            max_failures=self.max_failures,
        )

    def shard_tuple(self) -> tuple[int, int] | None:
        """Parsed ``(index, count)`` shard selector, or ``None``."""
        return parse_shard(self.shard) if self.shard is not None else None

    def telemetry_every(self) -> int | None:
        """Telemetry sampling period, or ``None`` when disabled."""
        if self.telemetry is None:
            return None
        return parse_every(str(self.telemetry))

    def request_backend(self) -> str | None:
        """The backend an :class:`ExperimentRequest` should carry.

        ``"object"`` (the engine default) normalises to ``None`` so
        cache keys stay identical to pre-``--backend`` runs.
        """
        return self.backend if self.backend != "object" else None

    # -- construction / serialisation -------------------------------------

    @classmethod
    def from_namespace(cls, args: argparse.Namespace) -> "ExecutionOptions":
        """Build from parsed CLI arguments (the shared flag group)."""
        return cls(
            **{
                name: getattr(args, name)
                for name in cls.field_names()
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecutionOptions":
        """Build from a scenario file's ``execution`` section.

        Raises:
            ValueError: ``payload`` is not a mapping, names an unknown
                option (the message names the offending key and lists
                the valid ones), or sets an invalid value.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"execution must be a table/object of options, got "
                f"{type(payload).__name__}"
            )
        allowed = schema_fields()
        for key in payload:
            if key not in allowed:
                raise ValueError(
                    f"unknown execution option {key!r}; valid options: "
                    f"{', '.join(sorted(allowed))}"
                )
        return cls(**dict(payload))

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The dataclass field names (== the schema-visible options)."""
        return tuple(f.name for f in dataclass_fields(cls))

    def to_dict(self) -> dict[str, Any]:
        """Non-default options as a JSON/TOML-ready dict.

        Inverse of :meth:`from_dict`:
        ``from_dict(options.to_dict()) == options``.
        """
        return {
            name: getattr(self, name)
            for name in self.field_names()
            if getattr(self, name) != _default(name)
        }
