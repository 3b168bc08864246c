"""Smoke test of the benchmark harness itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py    # from the repository root

Every workload runs untraced and traced; the test asserts that each
metric BENCHMARK.json names is reported with its unit, that each
workload's own named metrics are printed, and that no operation failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOAD_NAMES, END_TO_END, PER_LAYER = metrics.load()

NAMED = {
    "carrier-scan": ("verdict_s.sparse", "verdict_s.dense"),
    "word-stream": ("lstd_letters_per_s", "nf_words_per_s"),
    "star-algebra": ("triples_per_s", "conversions_per_s"),
    "random-pool": ("tables_per_s", "verdict_p50_ms", "verdict_p95_ms"),
}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_reports_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m[0] for m in expected]
    for name, unit in expected:
        value = result["metrics"][name]
        assert value["unit"] == unit
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0, name
    text = "\n".join(lines)
    assert "failed_ratio = 0 " in text
    if not trace:
        for name in NAMED[workload]:
            assert f"  {name} = " in text, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "word-stream", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
