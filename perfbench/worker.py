"""One fresh interpreter: set up one workload, then run at most one pass.

    python3 perfbench/worker.py WORKLOAD SEED SCALE MODE SPAWN_NS CALIBRATION_S

MODE is "setup" (set up only), "pass" (one untraced pass) or "trace"
(one traced pass; spans go to .perfbench-out/).  SPAWN_NS is the
parent's time.monotonic_ns() just before it started this process, so
setup_s covers interpreter start, imports and input generation; it is
scaled to reference seconds (clock.py) by the mean of CALIBRATION_S,
timed by the parent just before, and a calibration timed here.  Prints
one JSON object on its last line.  Run from the repository root with
src/ on PYTHONPATH; run.py does both.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from clock import REFERENCE_CALIBRATION_S, calibration
import metrics
from tracer import NullTracer, Tracer
from workloads import SCALES, WORKLOADS

OUT_DIR = Path(".perfbench-out")


def layer_metrics(workload, tr: Tracer) -> tuple[dict, dict]:
    """Every per-layer metric but the tracing overhead, which needs two passes."""
    self_s = tr.self_seconds()
    counters, absent = workload.counters(tr)
    values = {}
    for name, _ in metrics.load()[2]:
        if name in counters:
            values[name] = counters[name]
        elif name.endswith(".s"):
            values[name] = self_s.get(name[:-2], 0.0)
        elif name != "trace.overhead_s":
            values[name] = 0
    return values, absent


def main(argv: list[str]) -> int:
    name, seed, scale, mode, spawn_ns, parent_calibration = argv
    tr = Tracer() if mode == "trace" else NullTracer()
    with tempfile.TemporaryDirectory(dir=".", prefix=".perfbench-tmp-") as workdir:
        workload = WORKLOADS[name](int(seed), SCALES[scale], tr, Path(workdir))
        setup_wall = (time.monotonic_ns() - int(spawn_ns)) / 1e9
        speed = (float(parent_calibration) + calibration()) / 2
        out = {"setup_s": setup_wall * REFERENCE_CALIBRATION_S / speed,
               "setup_wall_s": setup_wall}
        if mode != "setup":
            t = time.perf_counter()
            out.update(workload.run(tr))
            out["pass_wall_s"] = time.perf_counter() - t
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "trace":
        out["layers"], out["absent"] = layer_metrics(workload, tr)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{name}-seed{seed}-spans.jsonl"
        tr.write(spans)
        out["spans_file"] = str(spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
