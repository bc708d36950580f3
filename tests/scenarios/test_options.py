"""The consolidated execution-option surface: one table drives the CLI
flag group and the scenario schema, and this file pins the equivalence
(satellite: "a test asserts the CLI flags and schema fields stay in
lock-step")."""

from __future__ import annotations

import argparse

import pytest

from repro.analysis.runtime.retry import RetryPolicy
from repro.scenarios import (
    EXECUTION_FIELDS,
    ExecutionOptions,
    add_execution_arguments,
    schema_fields,
)

#: The flags that ride in the CLI group but are per-invocation, not
#: scenario properties.
CLI_ONLY = {"cache_dir", "inject_fault"}


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    add_execution_arguments(parser)
    return parser.parse_args(argv)


class TestCliSchemaEquivalence:
    def test_cli_flags_equal_schema_fields_plus_cli_only(self):
        cli_dests = {spec.name for spec in EXECUTION_FIELDS}
        assert cli_dests == schema_fields() | CLI_ONLY

    def test_schema_fields_equal_dataclass_fields(self):
        assert schema_fields() == set(ExecutionOptions.field_names())

    def test_argparse_dests_match_the_table(self):
        parser = argparse.ArgumentParser()
        add_execution_arguments(parser)
        dests = {
            action.dest
            for action in parser._actions
            if action.dest != "help"
        }
        assert dests == {spec.name for spec in EXECUTION_FIELDS}

    def test_cli_defaults_equal_dataclass_defaults(self):
        args = parse([])
        options = ExecutionOptions.from_namespace(args)
        assert options == ExecutionOptions()

    def test_cli_parse_round_trips_through_options(self):
        args = parse(
            [
                "--backend",
                "fast",
                "--jobs",
                "4",
                "--seed",
                "7",
                "--timeout",
                "30",
                "--retries",
                "1",
                "--max-failures",
                "2",
                "--shard",
                "0/2",
                "--telemetry",
                "every=10",
                "--max-lane-nodes",
                "1000",
                "--resume",
            ]
        )
        options = ExecutionOptions.from_namespace(args)
        # The same document validates through the schema path and lands
        # on the same value: CLI and scenario files are one surface.
        assert ExecutionOptions.from_dict(options.to_dict()) == options
        assert options.backend == "fast"
        assert options.seed == 7
        assert options.shard_tuple() == (0, 2)
        assert options.telemetry_every() == 10

    def test_repro_run_parser_carries_the_shared_group(self):
        # End-to-end through the real CLI parser: every schema field is
        # an attribute of a parsed `repro run` namespace.
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["run", "tab-star-pd1"])
        for name in ExecutionOptions.field_names():
            assert hasattr(args, name), name


class TestExecutionOptionsValidation:
    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="'threads'"):
            ExecutionOptions.from_dict({"threads": 4})

    def test_removed_jit_key_is_unknown(self):
        with pytest.raises(ValueError, match="unknown execution option 'jit'"):
            ExecutionOptions.from_dict({"jit": "off"})

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionOptions(backend="warp")

    def test_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ExecutionOptions(jobs=0)

    def test_bad_shard_uses_runtime_parser_message(self):
        with pytest.raises(ValueError, match="shard"):
            ExecutionOptions(shard="2/2")

    def test_bad_telemetry_uses_runtime_parser_message(self):
        with pytest.raises(ValueError):
            ExecutionOptions(telemetry="every=zero")
        # Regression: a scenario's "foo=3" read as every=3.
        with pytest.raises(ValueError, match="expects K or every=K"):
            ExecutionOptions.from_dict({"telemetry": "foo=3"})

    def test_retry_policy_delegation(self):
        options = ExecutionOptions(retries=3, timeout=1.5, max_failures=2)
        assert options.retry_policy() == RetryPolicy(
            retries=3, timeout_s=1.5, max_failures=2
        )

    def test_request_backend_normalises_object_to_none(self):
        assert ExecutionOptions().request_backend() is None
        assert ExecutionOptions(backend="fast").request_backend() == "fast"

    def test_to_dict_omits_defaults(self):
        assert ExecutionOptions().to_dict() == {}
        assert ExecutionOptions(jobs=2).to_dict() == {"jobs": 2}
