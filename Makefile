# Standard targets for the repro project.

PYTHON ?= python

.PHONY: install test check smoke bench bench-smoke bench-dynamic-smoke bench-scale-smoke perfbench-smoke shard-smoke trace-smoke verify-smoke zoo-smoke history-smoke serve-smoke experiments report examples all

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Experiments exercised by the fault/resume smoke (small, fast ones).
SMOKE_EXPERIMENTS = --experiment tab-star-pd1 --experiment tab-kernel-structure \
	--experiment fig1-pd2-example --experiment fig2-transformation

# Tier-1 gate: lint, the full test suite, the docstring examples in
# src/, then the CLI smoke runs.
check:
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks; \
	else echo "ruff not installed; skipping lint"; fi
	$(PYTHON) -m pytest -x -q tests/
	$(PYTHON) -m pytest -q --doctest-modules src/repro
	$(MAKE) smoke

# CLI smoke runs exercising the sparse backend (metrics snapshot must
# parse and show sparse builds and the experiment span), the parallel
# experiment runner on both backends, and the fault-tolerant runtime:
# a transient fault is retried away; a killed worker aborts the sweep;
# --resume finishes it from the journal without re-running completed
# tasks (see docs/ROBUSTNESS.md).
smoke:
	$(PYTHON) -m repro run tab-kernel-structure --metrics-out .check-metrics.json
	$(PYTHON) -c "import json; s = json.load(open('.check-metrics.json')); \
	assert s['counters']['experiments.run'] == 1, s; \
	assert s['counters']['sparse.builds'] > 0, s; \
	assert 'span.experiment.run.s' in s['histograms'], s"
	@rm -f .check-metrics.json
	$(PYTHON) -m repro all --jobs 2
	@rm -f .check-events.jsonl .check-fast-metrics.json
	$(PYTHON) -m repro all --backend fast --jobs 2 --max-lane-nodes 50 \
		--telemetry 5 --log-json .check-events.jsonl \
		--metrics-out .check-fast-metrics.json
	$(PYTHON) -c "import json; \
	t = [e for e in map(json.loads, open('.check-events.jsonl')) if e.get('kind') == 'telemetry']; \
	c = json.load(open('.check-fast-metrics.json'))['counters']; \
	assert len({e['pid'] for e in t}) >= 2, 'telemetry from fewer than 2 worker pids'; \
	assert c['telemetry.records'] == len(t), (c['telemetry.records'], len(t))"
	@rm -f .check-events.jsonl .check-fast-metrics.json
	$(PYTHON) -m repro run tab-kernel-structure --inject-fault raise@0 --retries 2
	@rm -rf .check-cache .check-report.md .check-resume-metrics.json
	! $(PYTHON) -m repro report .check-report.md $(SMOKE_EXPERIMENTS) \
		--jobs 2 --cache-dir .check-cache --inject-fault kill@2 --retries 0 \
		2> /dev/null
	test -s .check-cache/journal.jsonl
	$(PYTHON) -m repro report .check-report.md $(SMOKE_EXPERIMENTS) \
		--jobs 2 --cache-dir .check-cache --resume \
		--metrics-out .check-resume-metrics.json
	grep -q "all experiments passed" .check-report.md
	$(PYTHON) -c "import json; c = json.load(open('.check-resume-metrics.json'))['counters']; \
	assert c.get('runtime.resume.skipped', 0) + c['experiments.run'] == 4, c"
	@rm -rf .check-cache .check-report.md .check-resume-metrics.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fast-backend regression gate: object vs vectorized engine on a small
# sweep, asserting the speedup floor recorded in BENCH_engine.json.
bench-smoke:
	$(PYTHON) benchmarks/bench_engine.py --quick

# Dynamic-topology regression gate: just the fresh-graph-per-round
# workload (the CSR-native pipeline's raison d'etre), floor-checked in
# quick mode.  Like every bench smoke it prints only and writes no file.
bench-dynamic-smoke:
	$(PYTHON) benchmarks/bench_engine.py --quick --only "fresh graph"

# Streaming-scale gate: the quick grid plus the tracemalloc proof that
# a chunked run's peak allocation tracks --max-lane-nodes, not the
# grid ("Scaling past one machine" in docs/PERFORMANCE.md).
bench-scale-smoke:
	$(PYTHON) benchmarks/bench_scale.py --quick

# Benchmark self-check: short untraced runs of the two fresh-topology
# workloads and of gossip-held, which exit 1 on any failed output check
# (flood rounds == reference, drain counts == n, push-sum curves on the
# held stack, whose products run in parallel row blocks, == the streamed
# one-lane-per-chunk reference, exact counters repeating across
# operations), then the perfbench unit tests.  The runs come first so a
# failing unit test cannot keep them from running.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload flood-fresh --seed 1 --seconds 3 --trace 0
	$(PYTHON) perfbench/run.py --workload drain-lanes --seed 1 --seconds 3 --trace 0
	$(PYTHON) perfbench/run.py --workload gossip-held --seed 1 --seconds 3 --trace 0
	$(PYTHON) -m pytest -q perfbench/tests

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
# with the metrics snapshot (`repro stats`).  A copy of the event log
# with a torn line and a non-object line appended must still be read
# by all three, with both lines counted as unparseable.  Artifacts
# stay in .trace-smoke/ for CI to upload.
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
	cp .trace-smoke/events.jsonl .trace-smoke/damaged.jsonl
	printf '{"kind": "log", "msg": "tor\n5\n' >> .trace-smoke/damaged.jsonl
	$(PYTHON) -m repro trace .trace-smoke/damaged.jsonl > /dev/null
	$(PYTHON) -m repro tail .trace-smoke/damaged.jsonl > /dev/null
	$(PYTHON) -m repro stats .trace-smoke/damaged.jsonl \
		> .trace-smoke/damaged-stats.txt
	grep -qF "(2 unparseable line(s) skipped)" .trace-smoke/damaged-stats.txt

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
# Theorem 1 horizon; the fast run's table and checks must equal the
# object run's, timing note aside, so a fused-batch divergence fails
# here; sizes 4 and 5 cover both orders in which MM and CMM finish)
# plus a fixed-seed run of the counting suite (correctness +
# object-vs-fast drain differentials; seed 0 at 60 units draws three
# mixed-kind drain cases).  Counterexample fixtures land in
# .repro-zoo-verify/ for CI to archive on failure.
zoo-smoke:
	@rm -rf .repro-zoo-verify .zoo-smoke.out .zoo-smoke-fast.out .zoo-smoke-object.txt
	$(PYTHON) -m repro run upper-vs-lower --param "sizes=(3,4,5)" \
		| tee .zoo-smoke.out
	grep -q "memoryless_random_dv_exact: PASS" .zoo-smoke.out
	! grep -q "FAIL" .zoo-smoke.out
	$(PYTHON) -m repro run upper-vs-lower --param "sizes=(3,4,5)" \
		--backend fast > .zoo-smoke-fast.out
	grep -v "^note: timing:" .zoo-smoke.out > .zoo-smoke-object.txt
	grep -v "^note: timing:" .zoo-smoke-fast.out | diff .zoo-smoke-object.txt -
	$(PYTHON) -m repro verify --suite counting --fuzz 60 --seed 0 \
		--fixtures-dir .repro-zoo-verify
	@rm -f .zoo-smoke.out .zoo-smoke-fast.out .zoo-smoke-object.txt

# History-counter ceiling gate: DV and KM (two supervisors) at n = 64
# and 128, each under a 60 s wall-clock limit, must finish with the
# exact count.  It prints only and writes no file.
history-smoke:
	$(PYTHON) benchmarks/history_ceiling.py --sizes 64 128 --timeout 60 \
		| $(PYTHON) -c "import json, sys; records = json.load(sys.stdin); \
	assert len(records) == 4, records; \
	assert all(r.get('count') == r['n'] for r in records), records"

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
