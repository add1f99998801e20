"""Playable strategies for either seat of the matching game.

A strategy is an object with a ``name``, a ``reset(root)`` hook that
initialises any per-game memory from the root graph, and a
``choose(state)`` that answers with one of ``state.moves``: an edge of
the root whose ends no played edge covers, in root labels.  A strategy
that runs a graph algorithm on the position runs it on
``state.residual`` and maps its answer back with ``state.to_root``.
Wherever a rule says "any" the lexicographically least eligible edge is
played so every strategy is deterministic (the seeded random strategy
included).
"""

from __future__ import annotations

import random

from .families import G_k, gk_block_copies
from .graph import (
    Edge,
    Graph,
    GraphError,
    bits,
    components,
    delete_edge,
    is_forest,
    is_star,
    longest_path_in_forest,
    popcount,
    split_partition,
)
from .matching import (
    edge_in_maximum_matching,
    matching_number,
    min_maximal_matching,
)
from .solver import DEFAULT_BUDGET, GameState, Player, _table


class Strategy:
    name = "strategy"

    def reset(self, root: Graph) -> None:
        self.root = root

    def choose(self, state: GameState) -> Edge:  # pragma: no cover - interface
        raise NotImplementedError


class ExactStrategy(Strategy):
    """Plays the least optimal move of the position.

    The exact table of the root serves the whole game and both seats,
    in either mode: every position is a mask of the root, valued on
    demand, and ``solve`` on the same root reads the same table.
    """

    name = "exact"

    def __init__(self, mode: str = "subset") -> None:
        self.mode = mode

    def reset(self, root: Graph) -> None:
        super().reset(root)
        self.value = _table(root, self.mode, DEFAULT_BUDGET)

    def choose(self, state: GameState) -> Edge:
        mask = state.mask
        pick = max if state.to_move is Player.MAX else min
        after = state.to_move.other
        # max and min return the first best edge, and moves is sorted
        return pick(state.moves, key=lambda e: self.value(mask & ~(1 << e[0] | 1 << e[1]), after))


class RandomStrategy(Strategy):
    """Uniform legal move from a seeded generator, reseeded per game."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def reset(self, root: Graph) -> None:
        super().reset(root)
        self.rng = random.Random(self.seed)

    def choose(self, state: GameState) -> Edge:
        return self.rng.choice(state.moves)


class GreedyFirstStrategy(Strategy):
    name = "greedy_first"

    def choose(self, state: GameState) -> Edge:
        return state.moves[0]


class MaxGreedyMatchingStrategy(Strategy):
    """Least legal edge that lies in some maximum matching of the residual."""

    name = "max_greedy_matching"

    def choose(self, state: GameState) -> Edge:
        g = state.residual
        alpha = matching_number(g)
        for e in g.edges():
            if edge_in_maximum_matching(g, e, alpha):
                return state.to_root(e)
        raise GraphError("no edge of any maximum matching found")  # unreachable


class MinSmallMaximalStrategy(Strategy):
    """Commits to one minimum maximal matching of the root.

    Plays the least still-playable edge of that matching, and only when
    none is playable the least legal edge.
    """

    name = "min_small_maximal"

    def reset(self, root: Graph) -> None:
        super().reset(root)
        self.fixed = sorted(min_maximal_matching(root))

    def choose(self, state: GameState) -> Edge:
        for e in self.fixed:
            if e in state.moves:
                return e
        return state.moves[0]


class MinSplitStrategy(Strategy):
    """On a split root graph, prefers edges inside the clique side."""

    name = "min_split"

    def reset(self, root: Graph) -> None:
        super().reset(root)
        part = split_partition(root)
        if part is None:
            raise GraphError("min_split needs a split root graph")
        self.clique = part[1]

    def choose(self, state: GameState) -> Edge:
        for a, b in state.moves:
            if a in self.clique and b in self.clique:
                return (a, b)
        return state.moves[0]


class MaxForestStrategy(Strategy):
    """Forest rule for the maximiser.

    With a non-star component present, take the longest path x,w,v,...
    and play the least edge at v lying in some maximum matching of the
    forest with the edge wv removed.  Once every component is a star,
    play the least edge of a largest star.
    """

    name = "max_forest"

    def choose(self, state: GameState) -> Edge:
        g = state.residual
        if not is_forest(g):
            raise GraphError("max_forest needs a forest residual")
        comps = components(g)
        if all(is_star(g, c) for c in comps):
            best = max(len(c) for c in comps if len(c) >= 2)
            eligible = set()
            for c in comps:
                if len(c) == best:
                    eligible |= set(c)
            for u, v in g.edges():
                if u in eligible:
                    return state.to_root((u, v))
            raise GraphError("star components without edges")  # unreachable
        path = longest_path_in_forest(g)
        w, v = path[1], path[2]
        pruned = delete_edge(g, (min(w, v), max(w, v)))
        alpha = matching_number(pruned)
        at_v = sorted((min(v, u), max(v, u)) for u in bits(pruned.adj[v]))
        for e in at_v:
            if edge_in_maximum_matching(pruned, e, alpha):
                return state.to_root(e)
        raise GraphError("no maximum matching covers the path vertex")  # unreachable


def _p4_cover(g: Graph) -> list[tuple[int, int, int, int]]:
    """Partition of the vertices into paths on 4 vertices, or an error.

    Backtracking over the least uncovered vertex; candidate paths are
    tried in sorted order so the cover found is deterministic.
    """
    if g.n % 4:
        raise GraphError("vertex count not divisible by 4")

    def paths_through(v: int, free: int) -> list[tuple[int, int, int, int]]:
        found = set()
        # directed walks a-b-c-d inside free, v on them, stored a < d
        def walk(seq: list[int], used: int) -> None:
            if len(seq) == 4:
                if v in seq:
                    a, b, c, d = seq
                    found.add((a, b, c, d) if a < d else (d, c, b, a))
                return
            for u in bits(g.adj[seq[-1]] & free & ~used):
                walk(seq + [u], used | 1 << u)

        for start in bits(free):
            walk([start], 1 << start)
        return sorted(found)

    def rec(free: int) -> list[tuple[int, int, int, int]] | None:
        if not free:
            return []
        v = (free & -free).bit_length() - 1
        for cand in paths_through(v, free):
            used = 0
            for x in cand:
                used |= 1 << x
            rest = rec(free & ~used)
            if rest is not None:
                return [cand] + rest
        return None

    cover = rec(g.vertex_mask)
    if cover is None:
        raise GraphError("no disjoint P4 cover exists")
    return sorted(cover)


class MinCombStrategy(Strategy):
    """Response rule for the minimiser on forests covered by P4 copies.

    The root is partitioned into paths on 4 vertices at reset.  If the
    opponent just played inside one copy, answer with the central edge
    of another untouched copy; if the move joined two copies, answer
    with an edge at a root leaf of those copies.  Failing either,
    play the least edge inside an untouched copy, then any least edge.
    """

    name = "min_comb"

    def reset(self, root: Graph) -> None:
        super().reset(root)
        self.copies = _p4_cover(root)
        self.leaves = frozenset(v for v in range(root.n) if root.degree(v) == 1)

    def _copy_of(self, vertex: int) -> int:
        for i, c in enumerate(self.copies):
            if vertex in c:
                return i
        raise GraphError(f"vertex {vertex} outside the P4 cover")  # unreachable

    def _fallback(self, state: GameState, alive: set[int]) -> Edge:
        untouched = [
            c for c in self.copies if all(x in alive for x in c)
        ]
        inside = {x for c in untouched for x in c}
        for a, b in state.moves:
            if a in inside and b in inside and self._copy_of(a) == self._copy_of(b):
                return (a, b)
        return state.moves[0]

    def choose(self, state: GameState) -> Edge:
        alive = set(bits(state.mask))
        if not state.history:
            return self._fallback(state, alive)
        last, _ = state.history[-1]
        ci, cj = self._copy_of(last[0]), self._copy_of(last[1])
        if ci == cj:
            # answer with the central edge of another untouched copy
            for j, c in enumerate(self.copies):
                if j == ci or any(x not in alive for x in c):
                    continue
                return (min(c[1], c[2]), max(c[1], c[2]))
            return self._fallback(state, alive)
        # the move joined two copies: an edge at a surviving root leaf there
        targets = {
            x for x in self.copies[ci] + self.copies[cj]
            if x in self.leaves and x in alive
        }
        for a, b in state.moves:
            if a in targets or b in targets:
                return (a, b)
        return self._fallback(state, alive)


class MinPathStrategy(Strategy):
    """Second edge of a longest remaining path (linear forests)."""

    name = "min_path"

    def choose(self, state: GameState) -> Edge:
        path = longest_path_in_forest(state.residual)
        if len(path) >= 3:
            a, b = path[1], path[2]
            return state.to_root((min(a, b), max(a, b)))
        return state.moves[0]


class MaxPathStrategy(Strategy):
    """Third edge of a longest path, else its least edge (linear forests)."""

    name = "max_path"

    def choose(self, state: GameState) -> Edge:
        path = longest_path_in_forest(state.residual)
        if len(path) >= 4:
            a, b = path[2], path[3]
            return state.to_root((min(a, b), max(a, b)))
        pairs = [
            (min(a, b), max(a, b)) for a, b in zip(path, path[1:])
        ]
        return state.to_root(min(pairs))


class MaxMinDegStrategy(Strategy):
    """Any first edge, then edges at a vertex of least nonzero degree."""

    name = "max_mindeg"

    def choose(self, state: GameState) -> Edge:
        if not state.history:
            return state.moves[0]
        adj, mask = state.root.adj, state.mask
        degs = {v: popcount(adj[v] & mask) for v in bits(mask)}
        low = min(d for d in degs.values() if d > 0)
        for u, v in state.moves:
            if degs[u] == low or degs[v] == low:
                return (u, v)
        raise GraphError("no edges left")  # unreachable


class MinGkStrategy(Strategy):
    """Block rule for the minimiser on the G_k family.

    Each glued block carries three edges lying in no perfect matching
    of the block.  Reply inside the block the opponent just opened,
    else open a fresh block with such an edge, else play anything.
    """

    name = "min_gk"

    def reset(self, root: Graph) -> None:
        super().reset(root)
        k = 0
        while 18 * 2**k - 2 < root.n:
            k += 1
        if G_k(k) != root:
            raise GraphError("min_gk needs the labelled G_k root graph")
        self.copies = gk_block_copies(k)

    def choose(self, state: GameState) -> Edge:
        played = [e for e, _ in state.history]
        per_copy = [sum(1 for e in played if e in c.edges) for c in self.copies]
        if state.history:
            last = played[-1]
            for i, c in enumerate(self.copies):
                if last in c.edges and per_copy[i] == 1:
                    for f in c.f_edges:
                        if f in state.moves:
                            return f
        for i, c in enumerate(self.copies):
            if per_copy[i] == 0:
                for f in c.f_edges:
                    if f in state.moves:
                        return f
        return state.moves[0]


STRATEGIES: dict[str, type[Strategy]] = {
    cls.name: cls
    for cls in (
        ExactStrategy,
        RandomStrategy,
        GreedyFirstStrategy,
        MaxGreedyMatchingStrategy,
        MinSmallMaximalStrategy,
        MinSplitStrategy,
        MaxForestStrategy,
        MinCombStrategy,
        MinPathStrategy,
        MaxPathStrategy,
        MaxMinDegStrategy,
        MinGkStrategy,
    )
}


def make_strategy(name: str, seed: int = 0, mode: str = "subset") -> Strategy:
    """A fresh strategy; ``seed`` reaches only random, ``mode`` only exact."""
    if name not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise GraphError(f"unknown strategy {name!r}; available: {known}")
    if name == "random":
        return RandomStrategy(seed)
    if name == "exact":
        return ExactStrategy(mode)
    return STRATEGIES[name]()
