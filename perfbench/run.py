"""Benchmark of matchgame: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of that checkout and nowhere else.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for what each workload and
metric is for.

Each workload runs in a child process (child.py) with a fixed hash
seed, so set and dict layout does not change between runs.  Set-up
time is taken over several process starts and the median reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "solve_subset", "solve_iso", "store")
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_STARTS = 9  # process starts per run, the work process included
CHILD_TIMEOUT_S = 150


def run_child(args, role: str) -> tuple[dict, float]:
    """Start child.py, wait for it, return its JSON result and set-up time."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"error: {args.workload} {role} process exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["ready"] - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.trace:
        result, _ = run_child(args, "work")
        metrics = result["metrics"]
        units = dict(PER_LAYER)
    else:
        # set-up processes before and after the work process, so that the
        # median does not rest on one stretch of the host's speed
        setups = [run_child(args, "setup")[1] for _ in range(SETUP_STARTS // 2)]
        result, setup = run_child(args, "work")
        setups += [run_child(args, "setup")[1] for _ in range(SETUP_STARTS - 1 - len(setups))]
        metrics = dict(result["metrics"], setup_s=statistics.median(setups + [setup]))
        units = END_TO_END_UNITS
        print(f"# item_tail_ms is the median over {result['rounds']} rounds of p{result['tail_percentile']} "
              f"of each round's {result['attempted'] // result['rounds']} items; "
              f"setup_s is the median of {SETUP_STARTS} process starts")
        print("# round seconds: " + " ".join(f"{t:.3f}" for t in result["round_s"]))
    print(f"# {args.workload}: {result['rounds']} rounds, {result['attempted']} items, "
          f"{result['failed']} failed")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
