"""Spans at the module boundaries of matchgame, and the per-layer metrics.

Each public function is wrapped under every name that another module
of the package binds it to (``from .canon import canonical_certificate``
binds it separately in solver, corpus, verify and cli), so every call
across a module boundary is recorded.  Functions that callers reach
through their module (``graph6.emit``, ``cli.main``) are wrapped in
that module, and ``Graph.__post_init__`` on the class.  A span is
(name, parent span, start ns, end ns), kept in flat arrays in memory;
the spans of the last traced round are written out at the end.
"""

from __future__ import annotations

import gzip
import random
import statistics
import sys
import time
from array import array
from collections import defaultdict

import oracles

# (defining module, function) -> wrapped in the defining module too,
# because callers reach it as an attribute of that module
TARGETS = {
    ("corpus", "corpus_from_spec"): False,
    ("canon", "canonical_certificate"): False,
    ("graph", "subgraph_mask"): False,
    ("graph6", "emit"): True,
    ("matching", "matching_number"): False,
    ("matching", "min_maximal_number"): False,
    ("matching", "compatibility_witness"): False,
    ("solver", "solve"): False,
    ("solver", "play"): False,
    ("verify", "run_check"): False,
    ("cache", "cache_get"): False,
    ("cache", "cache_put"): False,
    ("cli", "main"): True,
}

PER_LAYER = (
    ("corpus.build_s", "s"),
    ("corpus.candidates", "count"),
    ("corpus.classes_per_candidate", "ratio"),
    ("canon.ir.calls", "count"),
    ("canon.ir.us_per_call", "us"),
    ("canon.forest.calls", "count"),
    ("canon.forest.us_per_call", "us"),
    ("canon.distinct_per_call", "ratio"),
    ("graph.graph_init.calls", "count"),
    ("graph.graph_init.us_per_call", "us"),
    ("graph.subgraph_mask.calls", "count"),
    ("graph.subgraph_mask.us_per_call", "us"),
    ("graph.popcount.ns_per_call", "ns"),
    ("graph.bits.ns_per_bit", "ns"),
    ("graph6.emit.calls", "count"),
    ("graph6.emit.us_per_call", "us"),
    ("matching.matching_number.calls", "count"),
    ("matching.matching_number.us_per_call", "us"),
    ("matching.min_maximal_number.calls", "count"),
    ("matching.min_maximal_number.us_per_call", "us"),
    ("matching.compatibility_witness.busy_s", "s"),
    ("solver.solve.calls", "count"),
    ("solver.solve.busy_s", "s"),
    ("solver.subset.positions", "count"),
    ("solver.subset.positions_per_s", "1/s"),
    ("solver.subset.memo_bytes_per_position", "B"),
    ("solver.iso.canon_calls_per_class", "ratio"),
    ("solver.play.busy_s", "s"),
    ("strategies.exact.solves_per_game", "count"),
    ("verify.run_check.busy_s", "s"),
    ("verify.self_s", "s"),
    ("cache.get.calls", "count"),
    ("cache.get.us_per_call", "us"),
    ("cache.get.rchar_per_call", "B"),
    ("cache.put.calls", "count"),
    ("cache.put.us_per_call", "us"),
    ("cache.put.wchar_per_call", "B"),
    ("cache.hit_ratio", "ratio"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _proc_io() -> tuple[int, int, int]:
    """(rchar, wchar, bytes this read added to rchar) from /proc/self/io."""
    with open("/proc/self/io", "rb") as fh:
        raw = fh.read()
    fields = dict(line.split(b": ") for line in raw.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(raw)


class Tracer:
    """Installs span-recording wrappers; ``close`` puts the originals back."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [-1]
        self._clock = time.perf_counter_ns
        self.new_round()

    def new_round(self) -> None:
        # one row per span: name id, parent row, start ns, end ns
        self.spans = array("q")
        self.canon: list[tuple[int, str, str, bytes]] = []  # row, caller, route, certificate
        self.solves: list[tuple[int, str, object, str]] = []  # row, caller, graph, mode
        self.corpus_items = 0
        self.io: dict[str, list[int]] = defaultdict(list)
        self.hits = 0

    # -- installing -----------------------------------------------------

    def install(self, package) -> None:
        modules = {
            name.rpartition(".")[2] if name != package.__name__ else "bench": mod
            for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        }
        for (home, attr), via_module in TARGETS.items():
            fn = getattr(modules[home], attr)
            for caller, mod in modules.items():
                if caller == home and not via_module:
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, bound, self._wrap(fn, f"{home}.{attr}", caller, attr))
        graph_cls = modules["graph"].Graph
        self._patch(graph_cls, "__post_init__",
                    self._wrap(graph_cls.__post_init__, "graph.graph_init", "any", "__post_init__"))

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, layer_fn: str, caller: str, attr: str):
        nid = self._name_id(f"{layer_fn}@{caller}")
        stack, clock = self._stack, self._clock
        post = getattr(self, f"_post_{attr}", None)
        io_key = {"cache_get": "get", "cache_put": "put"}.get(attr)

        def traced(*args, **kwargs):
            spans = self.spans
            row = len(spans) // 4
            spans.extend((nid, stack[-1], 0, 0))
            if io_key:
                before = _proc_io()
            stack.append(row)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[4 * row + 2] = t0
                spans[4 * row + 3] = t1
            if io_key:
                after = _proc_io()
                self.io[io_key + ".r"].append(after[0] - before[0] - before[2])
                self.io[io_key + ".w"].append(after[1] - before[1])
            if post is not None:
                post(row, caller, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-call records -------------------------------------------------

    def _post_canonical_certificate(self, row, caller, args, kwargs, result) -> None:
        route = "forest" if oracles.is_forest(args[0].adj) else "ir"
        self.canon.append((row, caller, route, result))

    def _post_solve(self, row, caller, args, kwargs, result) -> None:
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "subset")
        self.solves.append((row, caller, args[0], mode))

    def _post_corpus_from_spec(self, row, caller, args, kwargs, result) -> None:
        self.corpus_items += len(result)

    def _post_cache_get(self, row, caller, args, kwargs, result) -> None:
        self.hits += result is not None

    # -- per-round summary ------------------------------------------------

    def summarise_round(self, positions) -> dict[str, float]:
        """Per-layer figures of the round just traced.

        ``positions(graph)`` gives the subset memo entry count of a solve.
        """
        spans = self.spans
        rows = len(spans) // 4
        total = defaultdict(int)
        calls = defaultdict(int)
        child = defaultdict(int)
        self_time = defaultdict(int)
        for r in range(rows):
            dur = spans[4 * r + 3] - spans[4 * r + 2]
            parent = spans[4 * r + 1]
            name = self.names[spans[4 * r]]
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
        for r in range(rows):
            name = self.names[spans[4 * r]].partition("@")[0]
            if name in ("verify.run_check", "cli.main"):
                self_time[name] += spans[4 * r + 3] - spans[4 * r + 2] - child[r]

        def agg(layer_fn: str, caller: str | None = None) -> tuple[int, float]:
            keys = [k for k in calls if k.partition("@")[0] == layer_fn
                    and (caller is None or k.partition("@")[2] == caller)]
            return sum(calls[k] for k in keys), sum(total[k] for k in keys) / 1e9

        out: dict[str, float] = {}
        _, out["corpus.build_s"] = agg("corpus.corpus_from_spec")
        out["corpus.candidates"], _ = agg("canon.canonical_certificate", "corpus")
        out["corpus.classes_per_candidate"] = (
            self.corpus_items / out["corpus.candidates"] if out["corpus.candidates"] else 0.0
        )

        for route in ("ir", "forest"):
            durs = [spans[4 * r + 3] - spans[4 * r + 2]
                    for r, _, rt, _ in self.canon if rt == route]
            out[f"canon.{route}.calls"] = len(durs)
            out[f"canon.{route}.us_per_call"] = sum(durs) / len(durs) / 1e3 if durs else 0.0
        certs = [c for _, _, _, c in self.canon]
        out["canon.distinct_per_call"] = len(set(certs)) / len(certs) if certs else 0.0

        for layer_fn in ("graph.graph_init", "graph.subgraph_mask", "graph6.emit",
                         "matching.matching_number", "matching.min_maximal_number"):
            n, s = agg(layer_fn)
            out[f"{layer_fn}.calls"] = n
            out[f"{layer_fn}.us_per_call"] = 1e6 * s / n if n else 0.0
        _, out["matching.compatibility_witness.busy_s"] = agg("matching.compatibility_witness")

        out["solver.solve.calls"], out["solver.solve.busy_s"] = agg("solver.solve")
        pos = 0
        subset_ns = 0
        for r, _, g, mode in self.solves:
            if mode == "subset":
                pos += positions(g)
                subset_ns += spans[4 * r + 3] - spans[4 * r + 2]
        out["solver.subset.positions"] = pos
        out["solver.subset.positions_per_s"] = pos / (subset_ns / 1e9) if subset_ns else 0.0
        from_solver = [c for _, caller, _, c in self.canon if caller == "solver"]
        out["solver.iso.canon_calls_per_class"] = (
            len(from_solver) / len(set(from_solver)) if from_solver else 0.0
        )
        games, out["solver.play.busy_s"] = agg("solver.play")
        exact_solves, _ = agg("solver.solve", "strategies")
        out["strategies.exact.solves_per_game"] = exact_solves / games if games else 0.0

        _, out["verify.run_check.busy_s"] = agg("verify.run_check")
        out["verify.self_s"] = self_time["verify.run_check"] / 1e9

        for op, io in (("get", "r"), ("put", "w")):
            n, s = agg(f"cache.cache_{op}")
            out[f"cache.{op}.calls"] = n
            out[f"cache.{op}.us_per_call"] = 1e6 * s / n if n else 0.0
            moved = self.io[f"{op}.{io}"]
            out[f"cache.{op}.{io}char_per_call"] = sum(moved) / len(moved) if moved else 0.0
        gets = out["cache.get.calls"]
        out["cache.hit_ratio"] = self.hits / gets if gets else 0.0
        out["cli.main.self_s"] = self_time["cli.main"] / 1e9
        return out

    def write_spans(self, path: str) -> None:
        """Write the last traced round's spans as gzipped TSV."""
        spans = self.spans
        rows = len(spans) // 4
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tcaller\tstart_ns\tend_ns\n")
            for r in range(rows):
                name, _, caller = self.names[spans[4 * r]].partition("@")
                fh.write(f"{r}\t{spans[4 * r + 1]}\t{name}\t{caller}\t"
                         f"{spans[4 * r + 2]}\t{spans[4 * r + 3]}\n")


def bit_helper_costs(graph_module, seed: int, count: int = 200_000) -> tuple[float, float]:
    """(ns per popcount call, ns per bit yielded by bits) on seeded 20-bit masks."""
    rng = random.Random(seed)
    masks = [rng.getrandbits(20) for _ in range(count)]
    popcount, bits = graph_module.popcount, graph_module.bits
    samples_pop, samples_bits = [], []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for m in masks:
            popcount(m)
        samples_pop.append((time.perf_counter_ns() - t0) / count)
        t0 = time.perf_counter_ns()
        yielded = 0
        for m in masks:
            for _b in bits(m):
                yielded += 1
        samples_bits.append((time.perf_counter_ns() - t0) / yielded)
    return statistics.median(samples_pop), statistics.median(samples_bits)
