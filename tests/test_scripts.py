"""The scripts under scripts/ run cleanly against the package under test."""

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
    for argv in (["scripts/fixture_tour.py"],
                 ["scripts/make_fixtures.py", "--check"]):
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)
    # --check only reads
    assert _snapshot(FIXTURES) == before
