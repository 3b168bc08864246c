"""The scripts under scripts/ run, and one tiny benchmark pass is correct."""

import os
import subprocess
import sys
from pathlib import Path

import parmon

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _snapshot(directory):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(directory.iterdir())}


def test_scripts_run():
    # the package this test imported, first on the child's path
    env = dict(os.environ)
    src = str(Path(parmon.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    before = _snapshot(FIXTURES)
    argv = ["scripts/make_fixtures.py", "--check"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)
    # --check only reads
    assert _snapshot(FIXTURES) == before


def test_benchmark_tiny_pass_is_correct(tmp_path, monkeypatch):
    # one in-process pass of each workload against its known answers, so
    # a change the import check cannot see, like a field becoming a
    # property, still shows
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import NullTracer
    from workloads import SCALES, WORKLOADS
    for name, workload in WORKLOADS.items():
        tr = NullTracer()
        workdir = tmp_path / name
        workdir.mkdir()
        result = workload(3, SCALES["tiny"], tr, workdir).run(tr)
        assert result["attempted"] >= 1, name
        assert result["failed"] == 0, name
