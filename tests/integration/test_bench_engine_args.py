"""``benchmarks/bench_engine.py`` rejects bad option sets before any work."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    return {
        str(path): (path.stat().st_mtime_ns, path.stat().st_size)
        for path in directory.rglob("*")
        if path.is_file()
    }


def test_only_with_update_baseline_is_rejected_before_running():
    before = _snapshot(ROOT / "benchmarks")
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1"
    )
    proc = subprocess.run(
        [
            sys.executable,
            "benchmarks/bench_engine.py",
            "--quick",
            "--only",
            "fresh graph",
            "--update-baseline",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "object engine vs fast backend" not in proc.stdout
    assert _snapshot(ROOT / "benchmarks") == before
