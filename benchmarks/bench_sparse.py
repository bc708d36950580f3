"""Benchmarks for the sparse M_r backend and the parallel runner.

Records the two headline wins of the performance layer into
``benchmarks/results/``:

* ``sparse-backend.txt`` -- dense vs sparse construction/certification
  times where both exist, and sparse-only times past the dense cap.
* ``parallel-runner.txt`` -- serial vs 2-job wall clock for a bundle of
  registry experiments, with the outputs asserted identical.
"""

from __future__ import annotations

import os
import time

from conftest import run_and_record

from repro.analysis.runtime import run_sweep
from repro.core.lowerbound.kernel import nullspace_dimension
from repro.core.lowerbound.matrices import build_matrix
from repro.core.lowerbound.sparse import (
    build_sparse_matrix,
    sparse_nullspace_dimension,
)

PARALLEL_BUNDLE = [
    "tab-ambiguity-horizon",
    "fig-counting-rounds-vs-n",
    "tab-kernel-structure",
    "tab-corollary1-diameter",
]


def test_kernel_structure_sparse_rounds(results_dir):
    # Acceptance: the kernel-structure experiment at r >= 8, which the
    # dense-only seed could not run at all.
    run_and_record(
        results_dir, "tab-kernel-structure", max_round=5, sparse_max_round=8
    )


def test_sparse_vs_dense_construction(results_dir):
    lines = ["sparse M_r backend vs dense (seconds)", ""]
    for r in (4, 5, 6):
        start = time.perf_counter()
        build_matrix(r)
        dense_build = time.perf_counter() - start
        start = time.perf_counter()
        build_sparse_matrix(r)
        sparse_build = time.perf_counter() - start
        start = time.perf_counter()
        assert nullspace_dimension(r) == 1
        dense_nullity = time.perf_counter() - start
        start = time.perf_counter()
        assert sparse_nullspace_dimension(r) == 1
        sparse_nullity = time.perf_counter() - start
        lines.append(
            f"r={r}: build dense {dense_build:.4f}s vs sparse "
            f"{sparse_build:.4f}s; nullity dense {dense_nullity:.4f}s vs "
            f"sparse {sparse_nullity:.4f}s"
        )
    for r in (8, 10):  # past MAX_DENSE_ROUND: sparse-only regime
        start = time.perf_counter()
        matrix = build_sparse_matrix(r)
        sparse_build = time.perf_counter() - start
        start = time.perf_counter()
        assert sparse_nullspace_dimension(r) == 1
        sparse_nullity = time.perf_counter() - start
        lines.append(
            f"r={r}: dense impossible; sparse build {sparse_build:.4f}s "
            f"({matrix.nnz} nnz), nullity certificate {sparse_nullity:.4f}s"
        )
    (results_dir / "sparse-backend.txt").write_text("\n".join(lines) + "\n")


def test_sparse_build_benchmark(benchmark):
    matrix = benchmark(build_sparse_matrix, 8)
    assert matrix.shape == (19682, 19683)


def test_sparse_nullity_benchmark(benchmark):
    assert benchmark(sparse_nullspace_dimension, 8) == 1


def test_parallel_vs_serial_runner(results_dir):
    start = time.perf_counter()
    serial = run_sweep(PARALLEL_BUNDLE, jobs=1).results
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sweep(PARALLEL_BUNDLE, jobs=2).results
    parallel_wall = time.perf_counter() - start
    for a, b in zip(serial, parallel):
        assert a.rows == b.rows, a.experiment
        assert a.checks == b.checks, a.experiment
        assert a.passed, f"{a.experiment}: {a.failed_checks()}"
    # Speedup needs real cores: record the measurement with its context
    # rather than asserting it (CI runners and laptops differ).
    (results_dir / "parallel-runner.txt").write_text(
        f"experiments: {', '.join(PARALLEL_BUNDLE)}\n"
        f"cpu cores available: {os.cpu_count()}\n"
        f"serial (--jobs 1): {serial_wall:.3f}s wall\n"
        f"parallel (--jobs 2): {parallel_wall:.3f}s wall\n"
        f"speedup: {serial_wall / parallel_wall:.2f}x\n"
    )
