"""parmon benchmark: one workload, timed in fresh interpreters.

    python3 perfbench/run.py --workload carrier-scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each pass runs in a new interpreter, so
parmon's module-level caches start cold; passes run one at a time, a
closed loop with one caller.  Passes repeat while the next one should
still end within --seconds (at least MIN_PASSES), and every end-to-end
metric is the median over passes; setup_s is the median over every
interpreter started.

With --trace 1 the run alternates TRACE_PAIRS untraced and traced
passes and reports the per-layer metrics of the last traced pass, and
the tracing overhead: the mean timed parts of the traced passes minus
those of the untraced ones, in reference seconds (clock.py).  The probe
calls a traced pass adds run outside its timed parts.

Human-readable lines come first; the last line of standard output is
one JSON object with correct, attempted, failed and metrics.  Exits 1
when the program is missing or a pass does not complete.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402
from clock import calibration  # noqa: E402

MIN_PASSES = 3
MIN_SETUPS = 9
TRACE_PAIRS = 2
RUN_LIMIT_S = 170  # a run must finish well inside the caller's 180 s


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, scale: str, mode: str, deadline: float) -> dict:
    """Run worker.py in a new interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    speed = calibration()
    cmd = [sys.executable, "perfbench/worker.py", workload, str(seed), scale, mode,
           str(time.monotonic_ns()), repr(speed)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def untraced(args, deadline: float, end_to_end) -> tuple[dict, list[str], int, int]:
    start = time.monotonic()
    passes = []
    while (len(passes) < MIN_PASSES
           or time.monotonic() - start + passes[-1]["pass_wall_s"] <= args.seconds):
        passes.append(spawn(args.workload, args.seed, args.scale, "pass", deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(args.workload, args.seed, args.scale, "setup",
                            deadline)["setup_s"])

    values = {"setup_s": statistics.median(setups)}
    for name in ("part_a_s", "part_b_s", "peak_rss_mb"):
        values[name] = statistics.median(p[name] for p in passes)
    results = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    lines = [f"{args.workload}: {len(passes)} passes, {len(setups)} set-ups, seed {args.seed}"]
    lines += [f"  {name} = {values[name]:.6g} {unit}" for name, unit in end_to_end]
    for name in ("setup_wall_s", "wall_a_s", "wall_b_s"):
        samples = [p[name] for p in passes]
        lines.append(f"  {name} = {statistics.median(samples):.6g} s (wall, median of passes)")
    for name in passes[0]["named"]:
        lines.append(f"  {name} = {statistics.median(p['named'][name] for p in passes):.6g}")
    lines.append(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    return results, lines, attempted, failed


def traced(args, deadline: float, per_layer) -> tuple[dict, list[str], int, int]:
    runs = {"pass": [], "trace": []}
    for _ in range(TRACE_PAIRS):
        for mode in runs:
            runs[mode].append(spawn(args.workload, args.seed, args.scale, mode, deadline))
    trace = runs["trace"][-1]
    layers = dict(trace["layers"])
    timed = [statistics.mean(p["part_a_s"] + p["part_b_s"] for p in runs[mode])
             for mode in ("pass", "trace")]
    layers["trace.overhead_s"] = timed[1] - timed[0]
    results = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer}
    done = runs["pass"] + runs["trace"]
    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)

    lines = [f"{args.workload}: {TRACE_PAIRS} untraced and {TRACE_PAIRS} traced passes, "
             f"seed {args.seed}, spans in {trace['spans_file']}",
             f"  mean timed parts: untraced {timed[0]:.6g} s, traced {timed[1]:.6g} s"]
    lines += [f"  {name} = {layers[name]:.6g} {unit}" for name, unit in per_layer]
    lines += [f"  absent: {name}: {why}" for name, why in trace["absent"].items()]
    lines.append(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    return results, lines, attempted, failed


def main(argv=None) -> int:
    try:
        workload_names, end_to_end, per_layer = metrics.load()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {metrics.SPEC_PATH}: {exc}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a pass of about a second, for the smoke test")
    args = parser.parse_args(argv)

    if not Path("src/parmon/__init__.py").is_file():
        print("error: src/parmon not found; run from the repository root",
              file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_LIMIT_S
    if not compileall.compile_dir("src/parmon", quiet=1):
        print("error: src/parmon does not compile", file=sys.stderr)
        return 1
    try:
        if args.trace:
            results, lines, attempted, failed = traced(args, deadline, per_layer)
        else:
            results, lines, attempted, failed = untraced(args, deadline, end_to_end)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
