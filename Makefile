# Standard targets for the repro project.

PYTHON ?= python

.PHONY: install test check bench bench-smoke bench-dynamic-smoke bench-scale-smoke perfbench-smoke shard-smoke trace-smoke verify-smoke zoo-smoke serve-smoke experiments report examples all

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Experiments exercised by the fault/resume smoke (small, fast ones).
SMOKE_EXPERIMENTS = --experiment tab-star-pd1 --experiment tab-kernel-structure \
	--experiment fig1-pd2-example --experiment fig2-transformation

# Tier-1 gate: lint, the full test suite, plus CLI smoke runs
# exercising the sparse backend, the parallel experiment runner, the
# observability layer (metrics snapshot must parse), and the
# fault-tolerant runtime (injected faults, checkpoint resume).
check:
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks; \
	else echo "ruff not installed; skipping lint"; fi
	$(PYTHON) -m pytest -x -q tests/
	$(PYTHON) -m repro run tab-kernel-structure --metrics-out .check-metrics.json
	$(PYTHON) -c "import json; s = json.load(open('.check-metrics.json')); \
	assert s['counters']['experiments.run'] == 1, s"
	@rm -f .check-metrics.json
	$(PYTHON) -m repro all --jobs 2
	# Fault-tolerance smoke: a transient fault is retried away; a killed
	# worker aborts the sweep; --resume finishes it from the journal
	# without re-running completed tasks (see docs/ROBUSTNESS.md).
	$(PYTHON) -m repro run tab-kernel-structure --inject-fault raise@0 --retries 2
	@rm -rf .check-cache .check-report.md
	! $(PYTHON) -m repro report .check-report.md $(SMOKE_EXPERIMENTS) \
		--jobs 2 --cache-dir .check-cache --inject-fault kill@2 --retries 0 \
		2> /dev/null
	test -s .check-cache/journal.jsonl
	$(PYTHON) -m repro report .check-report.md $(SMOKE_EXPERIMENTS) \
		--jobs 2 --cache-dir .check-cache --resume
	grep -q "all experiments passed" .check-report.md
	@rm -rf .check-cache .check-report.md

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fast-backend regression gate: object vs vectorized engine on a small
# sweep, asserting the speedup floor recorded in BENCH_engine.json.
bench-smoke:
	$(PYTHON) benchmarks/bench_engine.py --quick

# Dynamic-topology regression gate: just the fresh-graph-per-round
# workload (the CSR-native pipeline's raison d'etre), floor-checked in
# quick mode.  Results land in benchmarks/results/engine-backend-only.*.
bench-dynamic-smoke:
	$(PYTHON) benchmarks/bench_engine.py --quick --only "fresh graph"

# Streaming-scale gate: the quick grid plus the tracemalloc proof that
# a chunked run's peak allocation tracks --max-lane-nodes, not the
# grid ("Scaling past one machine" in docs/PERFORMANCE.md).
bench-scale-smoke:
	$(PYTHON) benchmarks/bench_scale.py --quick

# Benchmark self-check: the perfbench unit tests, then short untraced
# runs of the two fresh-topology workloads, which exit 1 on any failed
# output check (flood rounds == reference, drain counts == n, exact
# counters repeating across operations).
perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/tests
	$(PYTHON) perfbench/run.py --workload flood-fresh --seed 1 --seconds 3 --trace 0
	$(PYTHON) perfbench/run.py --workload drain-lanes --seed 1 --seconds 3 --trace 0

# Sharded-sweep smoke: the same report split as two disjoint shards
# with separate caches, journals folded by `repro merge-journals`,
# then a combined --resume that must re-execute nothing.
shard-smoke:
	@rm -rf .shard-a .shard-b .shard-merged .shard-report.md .shard-metrics.json
	$(PYTHON) -m repro report .shard-report.md $(SMOKE_EXPERIMENTS) \
		--cache-dir .shard-a --shard 0/2
	$(PYTHON) -m repro report .shard-report.md $(SMOKE_EXPERIMENTS) \
		--cache-dir .shard-b --shard 1/2
	@mkdir -p .shard-merged
	@cp .shard-a/*.json .shard-merged/ 2>/dev/null; \
	cp .shard-b/*.json .shard-merged/ 2>/dev/null; true
	$(PYTHON) -m repro merge-journals .shard-merged/journal.jsonl \
		.shard-a/journal.jsonl .shard-b/journal.jsonl
	$(PYTHON) -m repro report .shard-report.md $(SMOKE_EXPERIMENTS) \
		--cache-dir .shard-merged --resume --metrics-out .shard-metrics.json
	grep -q "all experiments passed" .shard-report.md
	$(PYTHON) -c "import json; c = json.load(open('.shard-metrics.json'))['counters']; \
	assert c['runtime.resume.skipped'] == 4, c; \
	assert 'experiments.run' not in c, c"
	@rm -rf .shard-a .shard-b .shard-merged .shard-report.md .shard-metrics.json

# Observability smoke: a --jobs 2 sweep with an injected crash, round
# telemetry, and a shared JSONL event log must stitch into a single
# span tree (`repro trace`), render as a feed (`repro tail`), and merge
# with the metrics snapshot (`repro stats`).  Artifacts stay in
# .trace-smoke/ for CI to upload.
trace-smoke:
	@rm -rf .trace-smoke && mkdir -p .trace-smoke
	$(PYTHON) -m repro report .trace-smoke/report.md $(SMOKE_EXPERIMENTS) \
		--jobs 2 --retries 2 --inject-fault kill@1 --telemetry every=2 \
		--log-json .trace-smoke/events.jsonl \
		--metrics-out .trace-smoke/metrics.json
	$(PYTHON) -m repro trace .trace-smoke/events.jsonl \
		> .trace-smoke/trace.txt
	grep -q "1 root(s)" .trace-smoke/trace.txt
	grep -q "sweep.run" .trace-smoke/trace.txt
	$(PYTHON) -m repro trace .trace-smoke/events.jsonl --flame \
		> .trace-smoke/folded.txt
	test -s .trace-smoke/folded.txt
	$(PYTHON) -m repro tail .trace-smoke/events.jsonl > .trace-smoke/feed.txt
	grep -q "telemetry" .trace-smoke/feed.txt
	$(PYTHON) -m repro stats .trace-smoke/metrics.json \
		.trace-smoke/events.jsonl > /dev/null

# Property-based verification gate: fixed-seed fuzz over all five
# suites, then the seeded-mutant self-test proving the harness detects,
# shrinks, and replays injected violations (docs/VERIFICATION.md).
# Shrunk counterexamples land in .repro-verify/ for CI to archive.
verify-smoke:
	$(PYTHON) -m repro verify --fuzz 50 --seed 0 --fixtures-dir .repro-verify
	$(PYTHON) -m repro verify --self-test --fixtures-dir .repro-verify-selftest
	@rm -rf .repro-verify-selftest

# Algorithm-zoo gate: a small upper-vs-lower sweep on both backends
# (every check must pass: count == n exactly, never below the
# Theorem 1 horizon) plus a fixed-seed run of the counting suite
# (correctness + object-vs-fast drain differentials).  Counterexample
# fixtures land in .repro-zoo-verify/ for CI to archive on failure.
zoo-smoke:
	@rm -rf .repro-zoo-verify .zoo-smoke.out
	$(PYTHON) -m repro run upper-vs-lower --param "sizes=(3,5)" \
		| tee .zoo-smoke.out
	grep -q "memoryless_random_dv_exact: PASS" .zoo-smoke.out
	! grep -q "FAIL" .zoo-smoke.out
	$(PYTHON) -m repro run upper-vs-lower --param "sizes=(3,5)" \
		--backend fast > /dev/null
	$(PYTHON) -m repro verify --suite counting --fuzz 40 --seed 0 \
		--fixtures-dir .repro-zoo-verify
	@rm -f .zoo-smoke.out

# Experiment-service smoke: validate the example scenarios, start the
# HTTP service, submit the same scenario twice, and prove the second
# submission is served from the result cache with zero engine work
# (engine.*/runtime.* counters byte-equal) while the first job's
# streamed JSONL stitches to a single service.job trace root.
# Artifacts stay in .serve-smoke/ for CI to upload on failure.
serve-smoke:
	@rm -rf .serve-smoke
	$(PYTHON) benchmarks/serve_smoke.py scenarios/star-smoke.json

experiments:
	$(PYTHON) -m repro all

report:
	$(PYTHON) -m repro report experiment-report.md

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null && echo OK || exit 1; \
	done

all: test bench experiments examples
