"""The benchmark's workloads and metrics, as BENCHMARK.json at the repository root lists them.

End-to-end metrics are reported by every workload from untraced passes.
Per-layer metrics come from one traced pass; a layer a workload does not
call reads 0.  README.md says which end-to-end metric each per-layer
metric should move, on which workload.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load() -> tuple[tuple, tuple, tuple]:
    """(workload names, end-to-end (name, unit), per-layer (name, unit))."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return (tuple(w["name"] for w in spec["workloads"]),
            tuple((m["name"], m["unit"]) for m in spec["end_to_end"]),
            tuple((m["name"], m["unit"]) for m in spec["per_layer"]))
