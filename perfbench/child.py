"""One workload in one process; started by run.py, prints one JSON line.

``--role setup`` stops when the inputs are ready, so run.py can time
interpreter start, ``import matchgame`` and input generation on their
own.  ``--role work`` then runs whole rounds for about ``--seconds``,
checks every output and reports.  With ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer figures instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_INPUTS = 40  # per round, so the tail percentile has ten items beyond it


def load_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "matchgame", "__init__.py")):
        sys.exit(f"error: no matchgame package under {src}")
    sys.path.insert(0, src)
    import matchgame

    if os.path.dirname(os.path.dirname(os.path.abspath(matchgame.__file__))) != src:
        sys.exit(f"error: matchgame imported from {matchgame.__file__}, not {src}")
    return matchgame


def percentile(sorted_values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    k = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[k - 1]


def run_rounds(workload, seconds: float):
    """Whole rounds, as many as bring the timed phase nearest to ``seconds``.

    Another round starts while it is expected to end less than half a
    round past ``seconds``.
    """
    times, latencies, outputs = [], [], []
    while not times or sum(times) + statistics.fmean(times) / 2 <= seconds:
        elapsed, lat, out = workload.run_round()
        times.append(elapsed)
        latencies.append(lat)
        outputs.append(out)
    return times, latencies, outputs


def end_to_end(workload, seconds: float) -> dict:
    times, latencies, outputs = run_rounds(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = workload.check(outputs)
    inputs = len(latencies[0])
    if inputs < MIN_INPUTS:
        sys.exit(f"error: {workload.name} has {inputs} inputs per round, fewer than {MIN_INPUTS}")
    lat = sorted(x for round_lat in latencies for x in round_lat)
    # The highest percentile with ten items beyond it in one round, taken in
    # each round and then the median over rounds: the slowest items of a
    # round that the host ran slowly would otherwise make the whole tail.
    # The median item is taken over the items of all rounds.
    tail_p = 100 * (inputs - 10) // inputs
    tail = statistics.median(percentile(sorted(round_lat), tail_p) for round_lat in latencies)
    return {
        "attempted": len(lat),
        "failed": failed,
        "problems": problems,
        "rounds": len(times),
        "round_s": times,
        "metrics": {
            "items_per_s": len(lat) / sum(times),
            "item_p50_ms": 1e3 * statistics.median(lat),
            "item_tail_ms": 1e3 * tail,
            "peak_rss_mb": peak_rss_mb,
        },
        "tail_percentile": tail_p,
    }


def traced(workload, package, seconds: float, seed: int) -> dict:
    """Per-layer figures, averaged over the traced rounds.

    Untraced and traced rounds alternate, so the tracing overhead is the
    median difference of neighbouring rounds rather than of two stretches
    of time that the host may run at different speeds.
    """
    import tracemalloc

    import oracles
    import tracer as tracing
    from workloads import OUT_DIR

    positions_of: dict = {}

    def positions(g) -> int:
        key = (g.n, g.adj)
        if key not in positions_of:
            positions_of[key] = oracles.subset_positions(oracles.neighbour_masks(g.n, g.edges()))
        return positions_of[key]

    tr = tracing.Tracer()

    def traced_round():
        tr.new_round()
        tr.install(package)
        try:
            return workload.run_round()
        finally:
            tr.close()

    pairs, summaries, latencies, outputs = [], [], [], []
    while not pairs or (len(pairs) + 1) * statistics.fmean(map(sum, pairs)) <= seconds:
        # the traced round goes first in every other pair, so that an
        # effect of order does not show as overhead
        if len(pairs) % 2:
            traced_ = traced_round()
            plain = workload.run_round()
        else:
            plain = workload.run_round()
            traced_ = traced_round()
        for _, lat, out in (plain, traced_):
            latencies += lat
            outputs.append(out)
        pairs.append((plain[0], traced_[0]))
        summaries.append(tr.summarise_round(positions))
    failed, problems = workload.check(outputs)
    metrics = {name: statistics.fmean(s[name] for s in summaries) for name in summaries[0]}
    metrics["graph.popcount.ns_per_call"], metrics["graph.bits.ns_per_bit"] = (
        tracing.bit_helper_costs(package.graph, seed))
    subset = [g for _, _, g, mode in tr.solves if mode == "subset"]
    metrics["solver.subset.memo_bytes_per_position"] = 0.0
    if subset:
        g = max(subset, key=positions)
        tracemalloc.start()
        package.solve(g, package.Player.MAX, mode="subset")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        metrics["solver.subset.memo_bytes_per_position"] = peak / positions(g)
    metrics["trace.overhead_s"] = statistics.median(t - p for p, t in pairs)
    tr.write_spans(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.tsv.gz"))
    return {
        "attempted": len(latencies),
        "failed": failed,
        "problems": problems,
        "rounds": 2 * len(pairs),
        "metrics": {name: metrics[name] for name, _ in tracing.PER_LAYER},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "work"), default="work")
    args = parser.parse_args()

    package = load_package()
    import workloads

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.role == "setup":
        result = {}
    elif args.trace:
        result = traced(workload, package, args.seconds, args.seed)
    else:
        result = end_to_end(workload, args.seconds)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
