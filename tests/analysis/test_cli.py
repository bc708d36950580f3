"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main, _parse_params


class TestParamParsing:
    def test_literals(self):
        assert _parse_params(["max_n=50", "sizes=(1, 2)"]) == {
            "max_n": 50,
            "sizes": (1, 2),
        }

    def test_strings_pass_through(self):
        assert _parse_params(["name=hello"]) == {"name": "hello"}

    def test_missing_equals(self):
        with pytest.raises(SystemExit):
            _parse_params(["oops"])


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tab-kernel-structure" in out

    def test_run_small_experiment(self, capsys):
        code = main(
            [
                "run",
                "tab-star-pd1",
                "--param",
                "sizes=(2, 5)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment 'tab-nope'"):
            main(["run", "tab-nope"])

    def test_all_accepts_jobs_and_cache(self, tmp_path, capsys, monkeypatch):
        # Shrink the registry to keep `all` fast; exercise both the
        # parallel dispatch and the cache round-trip.
        import repro.cli as cli_mod

        monkeypatch.setattr(
            cli_mod,
            "available_experiments",
            lambda: ["tab-star-pd1"],
        )
        cache_dir = tmp_path / "cache"
        assert main(["all", "--jobs", "2", "--cache-dir", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert "PASS" in first
        assert list(cache_dir.glob("tab-star-pd1-*.json"))
        assert main(["all", "--jobs", "2", "--cache-dir", str(cache_dir)]) == 0
        second = capsys.readouterr().out
        assert "cache: hit" in second

    def test_report_command(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        code = main(["report", str(path), "--experiment", "tab-star-pd1"])
        assert code == 0
        assert "tab-star-pd1" in path.read_text()
        assert "report written" in capsys.readouterr().out

    def test_report_accepts_jobs_and_cache(self, tmp_path, capsys):
        """Satellite: reports run through the parallel runner + cache."""
        cache_dir = tmp_path / "cache"
        args = [
            "report",
            str(tmp_path / "report.md"),
            "--experiment",
            "tab-star-pd1",
            "--experiment",
            "tab-kernel-structure",
            "--jobs",
            "2",
            "--cache-dir",
            str(cache_dir),
        ]
        assert main(args) == 0
        assert list(cache_dir.glob("tab-star-pd1-*.json"))
        capsys.readouterr()
        # Second report is served from the cache and says so.
        assert main(args) == 0
        report = (tmp_path / "report.md").read_text()
        assert "cache: hit" in report
        assert "all experiments passed" in report

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliObservability:
    RUN = ["run", "tab-star-pd1", "--param", "sizes=(2, 5)"]

    def test_metrics_out_snapshot(self, tmp_path, capsys):
        """Acceptance: --metrics-out writes a parseable snapshot."""
        import json

        path = tmp_path / "metrics.json"
        assert main([*self.RUN, "--metrics-out", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["experiments.run"] == 1
        assert snapshot["counters"]["engine.rounds"] >= 2
        assert "span.experiment.run.s" in snapshot["histograms"]
        capsys.readouterr()
        # `repro stats` renders the same file as tables.
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.rounds" in out
        assert "Counters" in out

    def test_log_json_event_stream(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        assert (
            main([*self.RUN, "--log-json", str(path), "--log-level", "debug"])
            == 0
        )
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert {"log", "span"} <= {event["kind"] for event in events}
        assert any(
            event.get("name") == "experiment.run" for event in events
        )
        assert any(
            event.get("msg") == "round executed" for event in events
        )
        err = capsys.readouterr().err
        assert "round executed" in err  # --log-level debug on stderr
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "experiment.run" in out
        assert "Log records" in out

    def test_metrics_out_written_even_on_failure(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment 'tab-nope'"):
            main(
                [
                    "run",
                    "tab-nope",
                    "--metrics-out",
                    str(tmp_path / "metrics.json"),
                ]
            )
        assert (tmp_path / "metrics.json").exists()

    def test_profile_flags(self, tmp_path, capsys):
        assert main([*self.RUN, "--profile", "--profile-mem"]) == 0
        err = capsys.readouterr().err
        assert "cProfile" in err
        assert "tracemalloc" in err

    def test_all_jobs_metrics_match_serial(self, tmp_path, monkeypatch, capsys):
        """Acceptance: --jobs N aggregates the same counters as serial."""
        import json

        import repro.cli as cli_mod

        monkeypatch.setattr(
            cli_mod,
            "available_experiments",
            lambda: ["tab-star-pd1", "tab-kernel-structure"],
        )
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["all", "--metrics-out", str(serial_path)]) == 0
        assert (
            main(
                ["all", "--jobs", "2", "--metrics-out", str(parallel_path)]
            )
            == 0
        )
        capsys.readouterr()
        serial = json.loads(serial_path.read_text())["counters"]
        parallel = json.loads(parallel_path.read_text())["counters"]
        assert serial == parallel
        assert serial["engine.rounds"] > 0
        assert serial["experiments.run"] == 2


class TestCliTelemetry:
    RUN = ["run", "tab-star-pd1", "--param", "sizes=(2, 5)"]

    def test_telemetry_events_in_log_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        assert (
            main([*self.RUN, "--telemetry", "--log-json", str(path)]) == 0
        )
        capsys.readouterr()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        telemetry = [e for e in events if e["kind"] == "telemetry"]
        assert telemetry
        for event in telemetry:
            assert {"round", "informed", "terminated", "pid", "seq"} <= (
                event.keys()
            )

    def test_telemetry_every_syntax(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        code = main(
            [*self.RUN, "--telemetry", "every=2", "--log-json", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        rounds = [e["round"] for e in events if e["kind"] == "telemetry"]
        assert rounds and all(r % 2 == 0 for r in rounds)

    def test_telemetry_disabled_after_command(self, tmp_path):
        from repro.obs.telemetry import active

        assert main([*self.RUN, "--telemetry"]) == 0
        assert active() is None

    def test_bad_telemetry_argument(self):
        with pytest.raises(SystemExit):
            main([*self.RUN, "--telemetry", "every=nope"])


class TestCliStatsMultiPath:
    def test_merges_snapshots_and_events(self, tmp_path, capsys):
        import json

        run = ["run", "tab-star-pd1", "--param", "sizes=(2, 5)"]
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        events = tmp_path / "events.jsonl"
        assert main([*run, "--metrics-out", str(first)]) == 0
        assert (
            main([*run, "--metrics-out", str(second), "--log-json", str(events)])
            == 0
        )
        capsys.readouterr()
        assert main(["stats", str(first), str(second), str(events)]) == 0
        out = capsys.readouterr().out
        assert "merged from 3 file(s)" in out
        # Counters doubled across the two snapshots.
        merged = [
            line for line in out.splitlines() if "experiments.run" in line
        ]
        assert merged and "2" in merged[0]

    def test_glob_pattern(self, tmp_path, capsys):
        run = ["run", "tab-star-pd1", "--param", "sizes=(2,)"]
        assert main([*run, "--metrics-out", str(tmp_path / "w1.json")]) == 0
        assert main([*run, "--metrics-out", str(tmp_path / "w2.json")]) == 0
        capsys.readouterr()
        assert main(["stats", str(tmp_path / "w*.json")]) == 0
        assert "merged from 2 file(s)" in capsys.readouterr().out

    def test_missing_path_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path / "absent.json")])


class TestCliTrace:
    def _sweep(self, tmp_path, capsys) -> str:
        path = tmp_path / "events.jsonl"
        code = main(
            [
                "report",
                str(tmp_path / "report.md"),
                "--experiment",
                "tab-star-pd1",
                "--experiment",
                "tab-kernel-structure",
                "--jobs",
                "2",
                "--log-json",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return str(path)

    def test_trace_renders_single_root_tree(self, tmp_path, capsys):
        """Acceptance: a --jobs 2 sweep stitches to one span tree."""
        events = self._sweep(tmp_path, capsys)
        assert main(["trace", events]) == 0
        out = capsys.readouterr().out
        assert "1 root(s)" in out
        assert "sweep.run" in out
        assert "experiment.run" in out

    def test_trace_flame_output(self, tmp_path, capsys):
        events = self._sweep(tmp_path, capsys)
        assert main(["trace", events, "--flame"]) == 0
        out = capsys.readouterr().out
        assert "sweep.run;experiment.run" in out

    def test_trace_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", str(tmp_path / "absent.jsonl")])


class TestCliTail:
    def test_tail_renders_journal_and_events(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        events = tmp_path / "events.jsonl"
        code = main(
            [
                "run",
                "tab-star-pd1",
                "--param",
                "sizes=(2, 5)",
                "--cache-dir",
                str(cache_dir),
                "--telemetry",
                "--log-json",
                str(events),
            ]
        )
        assert code == 0
        capsys.readouterr()
        journal = cache_dir / "journal.jsonl"
        assert main(["tail", str(journal), str(events)]) == 0
        out = capsys.readouterr().out
        assert "journal completed" in out
        assert "telemetry object" in out
        assert "span experiment.run" in out

    def test_tail_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["tail", str(tmp_path / "absent.jsonl")])


class TestCliBenchReport:
    def test_compares_record_dirs(self, tmp_path, monkeypatch, capsys):
        import json
        from pathlib import Path

        for side, wall_s in (("parent", 1.0), ("change", 2.0)):
            (tmp_path / side).mkdir()
            for seed in (1, 2):
                record = {
                    "workload": "flood-fresh",
                    "seed": seed,
                    "trace": 0,
                    "end_to_end": {
                        "setup_s": 1e-5,
                        "wall_s": wall_s,
                        "throughput_mnr_s": 1.0,
                        "peak_rss_mib": 100.0,
                    },
                    "failed_ratio": 0.0,
                }
                (tmp_path / side / f"{seed}.json").write_text(json.dumps(record))
        monkeypatch.chdir(Path(__file__).resolve().parents[2])
        args = ["bench-report", str(tmp_path / "parent"), str(tmp_path / "change")]
        assert main(args) == 1
        assert "1 worse" in capsys.readouterr().out


class TestSerialTimeoutWarning:
    def test_hang_fault_in_serial_mode_prints_provenance(self, capsys):
        code = main(
            [
                "run",
                "tab-kernel-structure",
                "--inject-fault",
                "hang",
                "--timeout",
                "5",
                "--retries",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "timeout 5s not enforced" in out
        assert "in-process (serial)" in out


class TestVerifyCommand:
    def test_fuzz_smoke(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--fuzz",
                "5",
                "--seed",
                "0",
                "--fixtures-dir",
                str(tmp_path / "fixtures"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "suite model" in out
        assert "suite kernel" in out
        assert "suite backend" in out
        assert "suite runtime" in out
        assert "0 violations -- PASS" in out

    def test_suite_selection(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--fuzz",
                "3",
                "--suite",
                "kernel",
                "--fixtures-dir",
                str(tmp_path / "fixtures"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "suite kernel" in out
        assert "suite model" not in out

    def test_self_test_and_replay(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        code = main(
            [
                "verify",
                "--self-test",
                "--fixtures-dir",
                str(fixtures),
            ]
        )
        assert code == 0
        assert "self-test passed" in capsys.readouterr().out
        # The self-test leaves shrunk fixtures behind; each must replay
        # clean now that no mutant is armed.
        fixture_files = sorted(fixtures.glob("*.json"))
        assert fixture_files
        code = main(["verify", "--replay", str(fixture_files[0])])
        assert code == 0
        assert "passes" in capsys.readouterr().out

    def test_metrics_integration(self, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "verify",
                "--fuzz",
                "3",
                "--suite",
                "kernel",
                "--fixtures-dir",
                str(tmp_path / "fixtures"),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["verify.cases"] == 3


class TestCliSharding:
    def test_run_not_owned_is_clean_exit(self, capsys):
        # Exactly one of the two shards owns the task; the other must
        # say so and exit 0 rather than pretend it ran.
        argv = ["run", "tab-star-pd1", "--param", "sizes=(2,)"]
        outputs = []
        for index in range(2):
            assert main(argv + ["--shard", f"{index}/2"]) == 0
            outputs.append(capsys.readouterr().out)
        owned = [out for out in outputs if "PASS" in out]
        skipped = [out for out in outputs if "is not owned by" in out]
        assert len(owned) == 1 and len(skipped) == 1
        assert "nothing ran" in skipped[0]

    def test_bad_shard_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "tab-star-pd1", "--shard", "two"])

    def test_merge_journals_command(self, tmp_path, capsys):
        import json

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(json.dumps({"event": "x", "ts": 2.0}) + "\n")
        b.write_text(json.dumps({"event": "y", "ts": 1.0}) + "\n")
        out = tmp_path / "merged.jsonl"
        assert main(["merge-journals", str(out), str(a), str(b)]) == 0
        text = capsys.readouterr().out
        assert "merged 2 journal(s), 2 line(s)" in text
        assert len(out.read_text().splitlines()) == 2

    def test_merge_journals_missing_source_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "merge-journals",
                    str(tmp_path / "out.jsonl"),
                    str(tmp_path / "nope.jsonl"),
                ]
            )


class TestCliLaneBudgetAndJit:
    def test_max_lane_nodes_flag_runs(self, capsys):
        code = main(
            [
                "run",
                "tab-star-pd1",
                "--param",
                "sizes=(2, 5)",
                "--backend",
                "fast",
                "--max-lane-nodes",
                "3",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_invalid_budget_exits(self):
        with pytest.raises(SystemExit, match="max_lane_nodes"):
            main(
                [
                    "run",
                    "tab-star-pd1",
                    "--backend",
                    "fast",
                    "--max-lane-nodes",
                    "0",
                ]
            )


class TestCliAndScenarioShareOnePath:
    """``repro run`` and ``repro scenario run`` apply one execution the
    same way: the lane budget and telemetry reach the engine on both."""

    BUDGET, EVERY = 8, 2

    @staticmethod
    def _measure(argv: list[str], tmp_path, name: str) -> tuple[dict, int]:
        import json

        metrics = tmp_path / f"{name}-metrics.json"
        log = tmp_path / f"{name}-events.jsonl"
        code = main(
            [*argv, "--metrics-out", str(metrics), "--log-json", str(log)]
        )
        assert code == 0
        counters = {
            key: value
            for key, value in json.loads(metrics.read_text())[
                "counters"
            ].items()
            if key.startswith(("engine.", "adjacency."))
        }
        records = sum(
            json.loads(line).get("kind") == "telemetry"
            for line in log.read_text().splitlines()
        )
        return counters, records

    def test_same_counters_and_telemetry(self, tmp_path, capsys):
        import json

        run = ["run", "upper-vs-lower", "--param", "sizes=(3, 5)"]
        budget = [
            "--backend",
            "fast",
            "--max-lane-nodes",
            str(self.BUDGET),
            "--telemetry",
            str(self.EVERY),
        ]
        scenario = tmp_path / "upper-vs-lower.json"
        scenario.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "name": "one-path",
                    "experiment": "upper-vs-lower",
                    "params": {"sizes": [3, 5]},
                    "execution": {
                        "backend": "fast",
                        "max_lane_nodes": self.BUDGET,
                        "telemetry": self.EVERY,
                    },
                }
            )
        )
        cli, cli_records = self._measure([*run, *budget], tmp_path, "cli")
        file, file_records = self._measure(
            ["scenario", "run", str(scenario)], tmp_path, "scenario"
        )
        whole, whole_records = self._measure(
            [*run, "--backend", "fast"], tmp_path, "whole"
        )
        assert cli == file
        assert cli_records == file_records > 0
        assert whole_records == 0
        assert cli["adjacency.stack_builds"] != whole["adjacency.stack_builds"]
