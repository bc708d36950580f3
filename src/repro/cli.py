"""Command-line interface: run any registered experiment.

Usage::

    python -m repro list
    python -m repro run tab-kernel-structure
    python -m repro run fig-counting-rounds-vs-n --param max_n=200
    python -m repro run tab-star-pd1 --backend fast
    python -m repro all
    python -m repro all --jobs 4 --cache-dir .repro-cache
    python -m repro all --jobs 4 --cache-dir .repro-cache --resume
    python -m repro all --backend fast --timeout 600 --retries 3
    python -m repro all --backend fast --max-lane-nodes 200000
    python -m repro report out/report.md --jobs 4
    python -m repro all --cache-dir shard-a --shard 0/2
    python -m repro merge-journals merged.jsonl shard-*/journal.jsonl
    python -m repro run tab-kernel-structure --metrics-out m.json
    python -m repro all --log-level debug --log-json events.jsonl
    python -m repro run tab-star-pd1 --telemetry every=10 --log-json e.jsonl
    python -m repro stats m.json worker-*.json
    python -m repro trace events.jsonl
    python -m repro trace events.jsonl --flame > folded.txt
    python -m repro tail .repro-cache/journal.jsonl events.jsonl --follow
    python -m repro bench-report parent/.perfbench-out .perfbench-out
    python -m repro verify --fuzz 200 --seed 0
    python -m repro verify --suite kernel --suite backend
    python -m repro verify --self-test
    python -m repro verify --replay .repro-verify/kernel-...json
    python -m repro scenario validate scenarios/*.toml
    python -m repro scenario run scenarios/smoke.json --cache-dir .repro-cache
    python -m repro serve --port 8765 --state-dir .repro-service
    python -m repro submit scenarios/smoke.json --url http://127.0.0.1:8765

Parameters given as ``--param name=value`` are parsed as Python literals
and forwarded to the experiment function.  ``run`` / ``all`` / ``report``
read their execution flags into one
:class:`~repro.scenarios.options.ExecutionOptions`, build typed
:class:`~repro.analysis.registry.ExperimentRequest` values, and execute
them through :func:`repro.scenarios.runner.run_requests` -- the same
call ``scenario run`` and ``repro serve`` reach through
:func:`~repro.scenarios.runner.run_scenario`, so a command line and the
equivalent scenario file run one sweep the same way on the
fault-tolerant runtime (:func:`repro.analysis.runtime.run_sweep`).
An unknown experiment id exits with the list of valid ids before
anything runs.

Execution options (``run`` / ``all`` / ``report`` share one group, built
from :data:`repro.scenarios.options.EXECUTION_FIELDS` -- the same table
that defines a scenario file's ``execution`` section, so CLI flags and
schema fields cannot drift):

* ``--backend {object,fast}`` -- simulation backend, applied to the
  experiments that declare support for it.
* ``--jobs N`` -- worker processes (``run``: granted to the
  experiment's internal sweeps; ``all``/``report``: across
  experiments).
* ``--seed S`` -- randomness seed, applied to the experiments that
  declare support for it.
* ``--cache-dir PATH`` -- JSON result cache *and* the checkpoint
  journal (``PATH/journal.jsonl``; ``scenario run`` keeps
  ``PATH/scenario-<digest>.journal.jsonl``).
* ``--resume`` -- replay the journal: skip completed tasks, re-queue
  in-flight ones (requires ``--cache-dir``).
* ``--timeout S`` / ``--retries N`` / ``--max-failures N`` -- per-task
  wall-clock budget, retry budget for transient failures, and the
  number of fatally-failed tasks tolerated before aborting.
* ``--inject-fault KIND@K`` -- deterministic fault injection for
  testing the above (see ``docs/ROBUSTNESS.md``).
* ``--max-lane-nodes N`` -- stream the fast backend's lane batches in
  chunks of at most ``N`` stacked nodes (memory-bounded mega-scale
  runs; see ``docs/PERFORMANCE.md``).
* ``--shard I/N`` -- run only the tasks this shard owns (deterministic
  journal-key hash partition); fold the per-shard journals back with
  ``repro merge-journals OUT IN...`` and ``--resume``.
* ``--telemetry [EVERY]`` -- emit one ``kind: "telemetry"`` event per
  sampled engine round (informed/terminated counts, traffic, graph
  size) to the JSONL sinks; ``EVERY`` is ``K`` or ``every=K``.

Scenarios and the experiment service (see ``docs/SCENARIOS.md``):

* ``repro scenario validate FILE...`` -- strict-validate scenario
  files, print their digests and compiled task counts.
* ``repro scenario run FILE`` -- compile a scenario and execute it on
  the sweep runtime locally (``--cache-dir`` / ``--resume`` /
  ``--inject-fault`` stay CLI-side; everything else comes from the
  file's ``execution`` section).
* ``repro serve`` -- the stdlib HTTP experiment service; accepts
  scenario submissions, streams JSONL progress, serves repeat
  submissions from the result cache with zero engine work.
* ``repro submit FILE`` -- send a scenario to a running service and
  (by default) wait for and render the results.

Observability (same commands):

* ``--log-level LEVEL`` -- human-readable ``repro.*`` logs on stderr.
* ``--log-json PATH`` -- append every log record *and* span event to a
  JSONL file (one JSON object per line).
* ``--metrics-out PATH`` -- write the command's metrics snapshot
  (counters, gauges, histograms) as JSON.
* ``--profile`` / ``--profile-mem`` -- cProfile / tracemalloc report on
  stderr when the command finishes.

``repro stats PATH...`` summarises the artifacts back into tables
(several paths/globs merge into one report).  ``repro trace PATH...``
stitches JSONL event files -- including a multi-process sweep's -- into
span trees (``--flame`` emits folded stacks for flamegraph tooling).
``repro tail`` renders a sweep's journal and event files as one
human-readable feed (``--follow`` keeps polling).  ``repro
bench-report PARENT CHANGE`` compares two directories of ``perfbench``
records against the bounds in ``BENCHMARK.json`` (see
:mod:`repro.obs.bench`).

``repro verify`` fuzzes the property-based verification suites of
:mod:`repro.verify` (model invariants, the paper's kernel identities,
object-vs-fast backend equivalence, sweep-runtime equivalence); failing
cases are shrunk and persisted as replayable fixtures.  See
``docs/VERIFICATION.md``.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.analysis.registry import available_experiments
from repro.analysis.runtime import FaultPlan, Journal, ResultCache, SweepOutcome
from repro.scenarios.options import EXECUTION_FIELDS, add_execution_arguments

__all__ = ["main"]

_LOG_LEVELS = ["debug", "info", "warning", "error", "critical"]


def _parse_params(params: list[str]) -> dict[str, Any]:
    parsed: dict[str, Any] = {}
    for param in params:
        name, sep, raw = param.partition("=")
        if not sep:
            raise SystemExit(f"--param expects name=value, got {param!r}")
        try:
            parsed[name] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            parsed[name] = raw
    return parsed


def _observability_options() -> argparse.ArgumentParser:
    """Shared ``--log-*`` / ``--metrics-out`` / ``--profile*`` options."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default=None,
        help="print repro.* logs at this level to stderr",
    )
    group.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="append log records and span events to PATH as JSON lines",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics snapshot (JSON) to PATH",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top functions to stderr",
    )
    group.add_argument(
        "--profile-mem",
        action="store_true",
        help="run under tracemalloc and print top allocation sites to stderr",
    )
    return parent


def _execution_options() -> argparse.ArgumentParser:
    """Shared backend/jobs/cache/fault-tolerance options.

    Built from :data:`repro.scenarios.options.EXECUTION_FIELDS` -- the
    same table the scenario schema validates against -- so ``run`` /
    ``all`` / ``report`` flags and a scenario file's ``execution``
    section are one surface and cannot drift.
    """
    parent = argparse.ArgumentParser(add_help=False)
    add_execution_arguments(parent)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'Investigating the Cost of "
            "Anonymity on Dynamic Networks' (PODC 2015)"
        ),
    )
    obs_options = _observability_options()
    exec_options = _execution_options()
    shared = [obs_options, exec_options]
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list available experiments")
    run = commands.add_parser("run", parents=shared, help="run one experiment")
    run.add_argument("experiment", help="experiment id (see `repro list`)")
    run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override an experiment parameter (repeatable)",
    )
    commands.add_parser("all", parents=shared, help="run every experiment")
    report = commands.add_parser(
        "report",
        parents=shared,
        help="run every experiment and write a Markdown report",
    )
    report.add_argument("path", help="output file (e.g. report.md)")
    report.add_argument(
        "--experiment",
        action="append",
        default=None,
        help="restrict to specific experiment ids (repeatable)",
    )
    stats = commands.add_parser(
        "stats",
        help="summarise --metrics-out snapshots / --log-json event files",
    )
    stats.add_argument(
        "path",
        nargs="+",
        help=(
            "metrics JSON or JSONL event files (paths or globs); "
            "several merge into one report"
        ),
    )
    trace = commands.add_parser(
        "trace",
        help="stitch JSONL event file(s) into span trees",
    )
    trace.add_argument(
        "paths",
        nargs="+",
        help="JSONL event files or globs (--log-json outputs)",
    )
    trace.add_argument(
        "--flame",
        action="store_true",
        help="emit folded stacks (span self-time) for flamegraph tooling",
    )
    tail = commands.add_parser(
        "tail",
        help="render a sweep's journal/event JSONL files as one feed",
    )
    tail.add_argument(
        "paths",
        nargs="+",
        help="journal.jsonl and/or --log-json event files",
    )
    tail.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for appended lines (interrupt to stop)",
    )
    merge = commands.add_parser(
        "merge-journals",
        help="merge per-shard checkpoint journals into one resumable file",
    )
    merge.add_argument("out", help="merged journal to write")
    merge.add_argument(
        "sources",
        nargs="+",
        help="shard journal files (e.g. shard-*/journal.jsonl)",
    )
    bench_report = commands.add_parser(
        "bench-report",
        help="compare a change's perfbench records against its parent's",
    )
    bench_report.add_argument(
        "parent", help="the parent's perfbench records (e.g. its .perfbench-out/)"
    )
    bench_report.add_argument("change", help="the change's perfbench records")
    verify = commands.add_parser(
        "verify",
        parents=[obs_options],
        help="fuzz the property-based verification suites",
    )
    verify.add_argument(
        "--fuzz",
        type=int,
        default=50,
        metavar="N",
        help=(
            "cases per suite (the runtime suite draws N/40: each of its "
            "cases runs a workload three full times; default: 50)"
        ),
    )
    verify.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="master seed; the generated case list is a pure function "
        "of it (default: 0)",
    )
    verify.add_argument(
        "--suite",
        action="append",
        default=None,
        choices=["model", "kernel", "backend", "runtime", "counting"],
        help="restrict to specific suites (repeatable; default: all)",
    )
    verify.add_argument(
        "--fixtures-dir",
        default=".repro-verify",
        metavar="PATH",
        help="persist shrunk counterexamples as replayable JSON "
        "fixtures under PATH (default: .repro-verify)",
    )
    verify.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing cases as generated, without minimising",
    )
    verify.add_argument(
        "--self-test",
        action="store_true",
        help=(
            "arm each seeded mutant and prove the harness detects the "
            "injected violation, shrinks it to the minimum, and emits "
            "a replayable fixture (runs instead of the fuzz suites)"
        ),
    )
    verify.add_argument(
        "--replay",
        default=None,
        metavar="FIXTURE",
        help="re-run one persisted fixture instead of fuzzing",
    )
    scenario = commands.add_parser(
        "scenario",
        help="validate / run declarative scenario files",
    )
    scenario_sub = scenario.add_subparsers(
        dest="scenario_command", required=True
    )
    validate = scenario_sub.add_parser(
        "validate",
        help="strict-validate scenario files and print their digests",
    )
    validate.add_argument(
        "paths",
        nargs="+",
        help="scenario files (.json or .toml)",
    )
    scenario_run = scenario_sub.add_parser(
        "run",
        parents=[obs_options],
        help="compile a scenario file and run it on the sweep runtime",
    )
    scenario_run.add_argument(
        "path", help="scenario file (.json or .toml)"
    )
    scenario_run.add_argument(
        "--resume",
        action="store_true",
        default=None,
        help=(
            "override the scenario's execution.resume and replay the "
            "checkpoint journal (requires --cache-dir)"
        ),
    )
    for spec in EXECUTION_FIELDS:
        if not spec.schema:
            scenario_run.add_argument(spec.flag, **dict(spec.kwargs))
    serve = commands.add_parser(
        "serve",
        parents=[obs_options],
        help="run the HTTP experiment service",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: %(default)s)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 picks an ephemeral one (default: %(default)s)",
    )
    serve.add_argument(
        "--state-dir",
        default=".repro-service",
        metavar="PATH",
        help=(
            "result cache, per-scenario journals, and job event "
            "streams live here (default: %(default)s)"
        ),
    )
    submit = commands.add_parser(
        "submit",
        parents=[obs_options],
        help="submit a scenario file to a running service",
    )
    submit.add_argument(
        "scenario", help="scenario file (.json or .toml)"
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="service base URL (default: %(default)s)",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="return right after submission instead of waiting for results",
    )
    submit.add_argument(
        "--events",
        action="store_true",
        help="stream the job's JSONL progress events to stdout while waiting",
    )
    return parser


def _sweep_store(
    args: argparse.Namespace, journal_name: str, resume: bool
) -> dict[str, Any]:
    """The cache, journal and fault plan of one sweep, from its flags."""
    if resume and not args.cache_dir:
        raise SystemExit(
            "--resume requires --cache-dir: the checkpoint journal and "
            "the completed results live there"
        )
    try:
        faults = (
            FaultPlan.parse(args.inject_fault) if args.inject_fault else None
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if not args.cache_dir:
        return {"faults": faults}
    return {
        "cache": ResultCache(args.cache_dir),
        "journal": Journal(Path(args.cache_dir) / journal_name),
        "faults": faults,
    }


def _print_outcome(outcome: SweepOutcome, end: str = "\n\n") -> int:
    """Print a sweep's results and provenance; returns the exit code."""
    for result in outcome.results:
        print(result.render(), end=end)
    for line in outcome.provenance:
        print(f"provenance: {line}")
    return 0 if outcome.passed else 1


def _execute_verify(args: argparse.Namespace) -> int:
    """Run the ``verify`` command (fuzz, self-test, or fixture replay)."""
    from repro.verify import replay_fixture, run_self_test, run_verify

    if args.replay:
        violations = replay_fixture(args.replay)
        if violations:
            print(f"fixture {args.replay} still fails:")
            for message in violations:
                print(f"  {message}")
            return 1
        print(
            f"fixture {args.replay} passes -- the bug it captured is "
            f"fixed; promote it to a regression test"
        )
        return 0
    if args.self_test:
        problems = run_self_test(
            seed=args.seed, fixtures_dir=args.fixtures_dir
        )
        if problems:
            print("self-test FAILED:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(
            "self-test passed: every seeded mutant was detected, "
            "shrunk to a minimal case, and replayed from its fixture"
        )
        return 0
    report = run_verify(
        fuzz=args.fuzz,
        seed=args.seed,
        suites=args.suite,
        fixtures_dir=args.fixtures_dir,
        do_shrink=not args.no_shrink,
    )
    print(report.render())
    return 0 if report.passed else 1


def _print_wire_results(results: list[dict[str, Any]]) -> int:
    """Render service wire-format results; exit code from their checks."""
    from repro.analysis.registry import ExperimentResult

    parsed = [ExperimentResult.from_dict(payload) for payload in results]
    for result in parsed:
        print(result.render())
        print()
    return 0 if all(result.passed for result in parsed) else 1


def _execute_scenario_validate(args: argparse.Namespace) -> int:
    """``repro scenario validate``: strict-check files, print digests."""
    from repro.scenarios import ScenarioError, load_scenario

    status = 0
    for path in args.paths:
        try:
            scenario = load_scenario(path)
            tasks = scenario.task_keys()
        except (OSError, ScenarioError, TypeError) as exc:
            print(f"{path}: INVALID: {exc}")
            status = 1
            continue
        print(
            f"{path}: ok -- scenario {scenario.name!r} "
            f"({scenario.experiment}), {len(tasks)} task(s), "
            f"digest {scenario.digest()}"
        )
    return status


def _execute_scenario_run(args: argparse.Namespace) -> int:
    """``repro scenario run``: execute a scenario file locally."""
    from repro.scenarios import ScenarioError, load_scenario, run_scenario

    try:
        scenario = load_scenario(args.path)
    except (OSError, ScenarioError) as exc:
        raise SystemExit(str(exc)) from exc
    resume = (
        scenario.execution.resume if args.resume is None else args.resume
    )
    store = _sweep_store(
        args, f"scenario-{scenario.digest()}.journal.jsonl", resume
    )
    try:
        outcome = run_scenario(scenario, resume=resume, **store)
    except (ScenarioError, TypeError) as exc:
        raise SystemExit(str(exc)) from exc
    return _print_outcome(outcome)


def _execute_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the HTTP experiment service until killed."""
    from repro.service.server import serve as serve_service

    serve_service(args.state_dir, host=args.host, port=args.port)
    return 0


def _execute_submit(args: argparse.Namespace) -> int:
    """``repro submit``: send a scenario to a running service."""
    from repro.scenarios import ScenarioError, load_scenario
    from repro.service.client import ServiceClient, ServiceError

    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ScenarioError) as exc:
        raise SystemExit(str(exc)) from exc
    client = ServiceClient(args.url)
    try:
        submission = client.submit(scenario.to_dict())
    except ServiceError as exc:
        raise SystemExit(str(exc)) from exc
    if submission["state"] == "cached":
        print(
            f"served from cache: {len(submission['results'])} result(s), "
            f"zero engine work (digest {submission['scenario_digest']})"
        )
        return _print_wire_results(submission["results"])
    job_id = submission["job"]
    print(
        f"queued as {job_id} "
        f"(scenario digest {submission['scenario_digest']})"
    )
    if args.no_wait:
        print(f"poll with: curl {args.url}/jobs/{job_id}")
        return 0
    try:
        if args.events:
            for event in client.stream_events(job_id):
                print(json.dumps(event))
        final = client.wait(job_id)
        if final["state"] == "failed":
            print(f"job {job_id} failed: {final.get('error')}")
            return 1
        return _print_wire_results(client.result(job_id)["results"])
    except (ServiceError, TimeoutError) as exc:
        raise SystemExit(str(exc)) from exc


def _execute(args: argparse.Namespace) -> int:
    """Run the instrumented command (``run`` / ``all`` / ``report``)."""
    if args.command == "verify":
        return _execute_verify(args)
    if args.command == "scenario":
        return _execute_scenario_run(args)
    if args.command == "serve":
        return _execute_serve(args)
    if args.command == "submit":
        return _execute_submit(args)

    from repro.analysis.registry import (
        ExperimentRequest,
        experiment_options,
        get_spec,
    )
    from repro.scenarios import ExecutionOptions, run_requests

    try:
        options = ExecutionOptions.from_namespace(args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.command == "run":
        names = [args.experiment]
    elif args.command == "report" and args.experiment:
        names = args.experiment
    else:
        names = available_experiments()
    for name in names:
        try:
            get_spec(name)
        except KeyError as exc:
            raise SystemExit(exc.args[0]) from exc
    store = _sweep_store(args, "journal.jsonl", options.resume)
    backend = options.request_backend()
    if args.command == "run":
        params = _parse_params(args.param)
        if backend is not None and "backend" not in experiment_options(
            args.experiment
        ):
            raise SystemExit(
                f"experiment {args.experiment!r} does not support "
                f"--backend {args.backend} (it never touches the "
                "simulation engine)"
            )
        request = ExperimentRequest(
            experiment=args.experiment,
            params=params,
            backend=backend,
            jobs=args.jobs if args.jobs > 1 else None,
            seed=options.seed,
        )
        outcome = run_requests([request], replace(options, jobs=1), **store)
        if not outcome.results:  # the task belongs to another shard
            print(
                f"experiment {args.experiment!r} is not owned by "
                f"--shard {args.shard}; nothing ran"
            )
        return _print_outcome(outcome, end="\n")
    requests = [
        ExperimentRequest(experiment=name, backend=backend, seed=options.seed)
        for name in names
    ]
    outcome = run_requests(requests, options, **store)
    if args.command == "report":
        from repro.analysis.reporting import write_report

        path = write_report(args.path, outcome)
        print(f"report written to {path}")
        return 0
    return _print_outcome(outcome)


def _execute_trace(args: argparse.Namespace) -> int:
    """Run the ``trace`` command: stitch JSONL files into span trees."""
    from repro.obs.trace import (
        folded_stacks,
        read_events,
        render_trace,
        stitch,
    )

    try:
        events, bad = read_events(args.paths)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from exc
    traces = stitch(events)
    if not traces:
        print("no events")
        return 1
    if args.flame:
        for trace in traces:
            for line in folded_stacks(trace):
                print(line)
    else:
        print("\n\n".join(render_trace(trace) for trace in traces))
    if bad:
        print(f"({bad} unparseable line(s) skipped)", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment in available_experiments():
            print(experiment)
        return 0
    if args.command == "stats":
        from repro.obs.stats import summarize_stats_files

        try:
            print(summarize_stats_files(args.path))
        except FileNotFoundError as exc:
            raise SystemExit(str(exc)) from exc
        return 0
    if args.command == "trace":
        return _execute_trace(args)
    if args.command == "tail":
        from repro.obs.tail import tail as tail_files

        try:
            tail_files(args.paths, follow=args.follow, stream=sys.stdout)
        except FileNotFoundError as exc:
            raise SystemExit(str(exc)) from exc
        except (KeyboardInterrupt, BrokenPipeError):
            pass  # interrupted follow / output piped into `head`
        return 0
    if args.command == "merge-journals":
        from repro.analysis.runtime import merge_journals

        try:
            lines = merge_journals(args.out, args.sources)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
        print(
            f"merged {len(args.sources)} journal(s), {lines} line(s), "
            f"into {args.out}"
        )
        return 0
    if args.command == "scenario" and args.scenario_command == "validate":
        return _execute_scenario_validate(args)
    if args.command == "bench-report":
        from repro.obs.bench import load_metrics, render_report

        text, status = render_report(args.parent, args.change, load_metrics())
        print(text)
        return status

    from repro.obs.logger import configure_logging, teardown_logging
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.profiling import memory_profiled, profiled

    handlers = configure_logging(args.log_level, json_path=args.log_json)
    try:
        with use_registry(MetricsRegistry()) as registry, ExitStack() as stack:
            if args.profile:
                stack.enter_context(profiled())
            if args.profile_mem:
                stack.enter_context(memory_profiled())
            try:
                return _execute(args)
            finally:
                if args.metrics_out:
                    with open(args.metrics_out, "w", encoding="utf-8") as out:
                        json.dump(registry.snapshot(), out, indent=1)
                        out.write("\n")
    finally:
        teardown_logging(handlers)


if __name__ == "__main__":
    sys.exit(main())
