"""The four workloads.

A workload builds its inputs from the seed once, then runs identical
rounds.  Every round starts cold: the package's ``lru_cache``s are
cleared (they live for the whole process otherwise) and the store
workload starts from an empty store file.  ``run_round`` returns the
round's wall time, one latency per item and the outputs; ``check``
compares all rounds' outputs with the reference computations in
``oracles`` and returns the number of failed items and any problem
that no single item owns.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import gc
import io
import os
import random
import sys
import time

import matchgame as mg
import matchgame.cli  # noqa: F401  (the store workload calls matchgame.cli.main)

import oracles

clock = time.perf_counter
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
MAX, MIN = mg.Player.MAX, mg.Player.MIN


def start_cold() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "matchgame" or name.startswith("matchgame."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def adjacency(g) -> tuple[int, ...]:
    """The benchmark's own copy of a graph's neighbour masks."""
    return oracles.neighbour_masks(g.n, g.edges())


def relabelled(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return mg.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class Sweep:
    """corpus_from_spec plus run_check, as ``matchgame verify`` runs them."""

    name = "sweep"
    SPECS = ("exhaustive:0..7", "cubic:4..10")
    CHECKS = (
        "diff_le_one", "trivial_bounds", "lower_two_thirds", "upper_mu",
        "monotone_delete", "delete_drop_le2",  # the six value invariants
        "matching_lemmas", "compat_equality", "regular_lower",
    )
    # graphs on n vertices, n = 0..7 (OEIS A000088)
    GRAPHS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    # connected cubic graphs on n vertices (OEIS A002851)
    CUBIC = {4: 1, 6: 2, 8: 5, 10: 19}
    SAMPLE = 48

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def run_round(self):
        start_cold()
        t0 = clock()
        parts = [mg.corpus_from_spec(spec) for spec in self.SPECS]
        latencies, violations = [], []
        for item in (item for part in parts for item in part):
            s = clock()
            reports = [mg.run_check(check, [item]) for check in self.CHECKS]
            latencies.append(clock() - s)
            violations.append(sum(len(r.violations) + (r.instances != 1) for r in reports))
        return clock() - t0, latencies, (parts, violations)

    def check(self, rounds):
        problems = []
        first = None
        for parts, _ in rounds:
            exhaustive, cubic = ([it.graph for it in part] for part in parts)
            counts = {n: sum(g.n == n for g in exhaustive) for n in self.GRAPHS}
            if counts != self.GRAPHS:
                problems.append(f"exhaustive class counts {counts}, published {self.GRAPHS}")
            counts = {n: sum(g.n == n for g in cubic) for n in self.CUBIC}
            if counts != self.CUBIC:
                problems.append(f"cubic class counts {counts}, published {self.CUBIC}")
            if not all(all(bin(a).count("1") == 3 for a in adjacency(g)) for g in cubic):
                problems.append("cubic corpus holds a graph that is not 3-regular")
            labels = [mg.emit_graph6(g) for g in exhaustive + cubic]
            if first is None:
                first = labels
            elif labels != first:
                problems.append("corpus differs between rounds")
        graphs = [it.graph for part in rounds[-1][0] for it in part]
        # a sampled class whose values are wrong fails in every round
        wrong = {
            i for i in self.rng.sample(range(len(graphs)), self.SAMPLE)
            if tuple(mg.game_values(graphs[i])) != oracles.minimax(adjacency(graphs[i]))
        }
        failed = sum(
            len(wrong | {i for i, v in enumerate(violations) if v})
            for _, violations in rounds
        )
        return failed, problems


class SolveSubset:
    """Subset-mode solves for both players, then one exact-vs-exact game."""

    name = "solve_subset"
    # many small graphs rather than a few large ones: the median item is
    # then a median of many seeded draws, and the seed moves it little
    N, M, RANDOM = 11, 24, 100
    RELABEL = 3

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        pairs = [(u, v) for v in range(self.N) for u in range(v)]
        self.graphs = [mg.from_edges(self.N, rng.sample(pairs, self.M)) for _ in range(self.RANDOM)]
        self.graphs.append(mg.build_family("gadget_H", ()))
        self.gadget = len(self.graphs) - 1
        self.rng = rng

    def run_round(self):
        start_cold()
        t0 = clock()
        latencies, outputs = [], []
        for g in self.graphs:
            s = clock()
            mx = mg.solve(g, MAX, mode="subset").value
            mn = mg.solve(g, MIN, mode="subset").value
            game = mg.play(g, MAX, mg.make_strategy("exact"), mg.make_strategy("exact"))
            latencies.append(clock() - s)
            outputs.append((mx, mn, game.moves))
        return clock() - t0, latencies, outputs

    def check(self, rounds):
        bad = set()
        for i, g in enumerate(self.graphs):
            adj = adjacency(g)
            alpha, mu = oracles.matching_number(adj), oracles.min_maximal_number(adj)
            for outputs in rounds:
                mx, mn, moves = outputs[i]
                ok = (
                    mu <= mn and mu <= mx and mx <= alpha and mn <= alpha
                    and abs(mx - mn) <= 1
                    and 3 * mx >= 2 * alpha
                    and (i != self.gadget or (mx, mn) == (6, 6))
                    and len(moves) == mx
                    and oracles.is_maximal_matching(adj, moves)
                    and outputs[i][:2] == rounds[0][i][:2]
                )
                if not ok:
                    bad.add(i)
        for i in self.rng.sample(range(len(self.graphs)), self.RELABEL):
            if tuple(mg.game_values(relabelled(self.graphs[i], self.rng))) != rounds[0][i][:2]:
                bad.add(i)
        return len(rounds) * len(bad), []


class SolveIso:
    """Iso-mode solves for both players, as ``table --gen path --mode iso``."""

    name = "solve_iso"
    SIZES = range(8, 18)
    # many trees, so the median item is a median of many seeded draws and
    # the seed moves it little; the largest paths and cycles, which are
    # the same for every seed, make the tail
    TREES, TREE_SIZES = 60, (9, 9)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.graphs = [mg.build_family("path", (n,)) for n in self.SIZES]
        self.paths = len(self.graphs)
        self.graphs += [mg.build_family("cycle", (n,)) for n in self.SIZES]
        for _ in range(self.TREES):
            n = rng.randint(*self.TREE_SIZES)
            self.graphs.append(mg.from_edges(n, oracles.prufer_tree(n, [rng.randrange(n) for _ in range(n - 2)])))

    def run_round(self):
        start_cold()
        t0 = clock()
        latencies, outputs = [], []
        for g in self.graphs:
            s = clock()
            mx = mg.solve(g, MAX, mode="iso").value
            mn = mg.solve(g, MIN, mode="iso").value
            latencies.append(clock() - s)
            outputs.append((mx, mn))
        return clock() - t0, latencies, outputs

    def check(self, rounds):
        bad = set()
        for i, g in enumerate(self.graphs):
            subset = tuple(mg.game_values(g, mode="subset"))
            adj = adjacency(g)
            forest = oracles.is_forest(adj)
            alpha = oracles.matching_number(adj)
            lo, hi = oracles.path_max_bounds(g.n)
            for outputs in rounds:
                mx, mn = outputs[i]
                ok = (
                    (mx, mn) == subset
                    and (i >= self.paths or lo <= mx <= hi)
                    and (not forest or 4 * mx >= 3 * alpha)
                )
                if not ok:
                    bad.add(i)
        return len(rounds) * len(bad), []


class Store:
    """``matchgame solve --cache`` calls, made in-process through cli.main."""

    name = "store"
    # two hits per miss keeps the median item inside the hits, away from
    # the gap between hit and miss latencies
    FRESH, REPEATS = 150, 300
    SIZES = (6, 9)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.path = os.path.join(OUT_DIR, f"store-{os.getpid()}.txt")
        self.classes = []  # (adjacency, player)
        seen = set()
        while len(self.classes) < self.FRESH:
            n = rng.randint(*self.SIZES)
            pairs = [(u, v) for v in range(n) for u in range(v)]
            adj = oracles.neighbour_masks(n, rng.sample(pairs, rng.randint(n, 2 * n)))
            sig = oracles.invariant_signature(adj)
            # no isolated vertices (certificates ignore them), no class twice
            if all(adj) and sig not in seen:
                seen.add(sig)
                self.classes.append((adj, rng.choice(("max", "min"))))
        kinds = ["repeat"] * self.REPEATS + ["fresh"] * (self.FRESH - 1)
        rng.shuffle(kinds)
        self.stream = []  # (graph6, player, class index, planted repeat)
        fresh = 0
        for kind in ["fresh"] + kinds:
            if kind == "fresh":
                cls, edges = fresh, oracles.edge_list(self.classes[fresh][0])
                fresh += 1
            else:
                cls = rng.randrange(fresh)
                edges = oracles.edge_list(self.classes[cls][0])
                perm = list(range(len(self.classes[cls][0])))
                rng.shuffle(perm)
                edges = [(perm[u], perm[v]) for u, v in edges]
            g = mg.from_edges(len(self.classes[cls][0]), edges)
            self.stream.append((mg.emit_graph6(g), self.classes[cls][1], cls, kind == "repeat"))

    def _reset(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)

    def run_round(self):
        start_cold()
        self._reset()
        t0 = clock()
        latencies, outputs = [], []
        for g6, player, _, _ in self.stream:
            buf = io.StringIO()
            s = clock()
            with contextlib.redirect_stdout(buf):
                code = mg.cli.main(["solve", "--g6", g6, "--player", player, "--cache", self.path])
            latencies.append(clock() - s)
            outputs.append((code, buf.getvalue()))
        elapsed = clock() - t0
        with open(self.path, "r", encoding="ascii") as fh:
            stored = fh.read().splitlines()
        self._reset()
        return elapsed, latencies, (outputs, stored)

    def check(self, rounds):
        refs = [(oracles.matching_number(adj), oracles.min_maximal_number(adj)) for adj, _ in self.classes]
        problems = []
        failed = 0
        for outputs, stored in rounds:
            miss_value = {}
            hits = 0
            for (code, text), (_, player, cls, repeat) in zip(outputs, self.stream):
                fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
                state = fields.get("player", "").rpartition("cache=")[2]
                value = int(fields.get("value", -1))
                alpha, mu = refs[cls]
                ok = (
                    code == 0
                    and int(fields.get("alpha_prime", -1)) == alpha
                    and int(fields.get("mu", -1)) == mu
                    and mu <= value <= alpha
                    and state == ("hit" if repeat else "miss")
                )
                if repeat:
                    hits += state == "hit"
                    ok = ok and value == miss_value.get(cls)
                else:
                    miss_value[cls] = value
                failed += not ok
            if hits != self.REPEATS:
                problems.append(f"{hits} store hits, {self.REPEATS} planted")
            problems += self._check_store(stored, miss_value, refs)
        return failed, problems

    def _check_store(self, lines, miss_value, refs):
        """One valid entry per class, in miss order, holding the miss's value."""
        if len(lines) != self.FRESH:
            return [f"store holds {len(lines)} lines for {self.FRESH} classes"]
        certs = set()
        for cls, line in enumerate(lines):
            fields = line.split()
            try:
                cert = base64.b64decode(fields[0], validate=True)
                mx, mn = int(fields[1]), int(fields[2])
            except (IndexError, ValueError, binascii.Error):
                return [f"store line {cls + 1} unreadable: {line!r}"]
            alpha, mu = refs[cls]
            value = mx if self.classes[cls][1] == "max" else mn
            if (len(fields) != 4 or cert in certs or value != miss_value.get(cls)
                    or not (mu <= mn <= alpha and mu <= mx <= alpha and abs(mx - mn) <= 1)):
                return [f"store line {cls + 1} wrong: {line!r}"]
            certs.add(cert)
        return []


WORKLOADS = {w.name: w for w in (Sweep, SolveSubset, SolveIso, Store)}
