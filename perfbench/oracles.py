"""Reference computations the benchmark checks the package against.

Everything here works on plain edge lists and neighbour bit masks built
by the benchmark itself; nothing calls into matchgame, so a fault in
the package cannot hide by agreeing with itself.
"""

from __future__ import annotations

from functools import lru_cache


def neighbour_masks(n: int, edges) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def edge_list(adj: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]


def _mask_edges(adj, mask):
    out = []
    rest = mask
    while rest:
        u = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        nb = adj[u] & rest
        while nb:
            v = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            out.append((u, v))
    return out


def minimax(adj: tuple[int, ...]) -> tuple[int, int]:
    """(Max, Min) by plain game-tree search: no memo, no pruning."""
    full = (1 << len(adj)) - 1

    def value(mask: int, maximising: bool) -> int:
        moves = _mask_edges(adj, mask)
        if not moves:
            return 0
        vals = [1 + value(mask & ~(1 << u | 1 << v), not maximising) for u, v in moves]
        return max(vals) if maximising else min(vals)

    return value(full, True), value(full, False)


def matching_number(adj: tuple[int, ...]) -> int:
    """alpha': the lowest live vertex is either unmatched or matched to a neighbour."""

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        out = best(rest)
        nb = adj[v] & rest
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            out = max(out, 1 + best(rest & ~(1 << u)))
        return out

    return best((1 << len(adj)) - 1)


def min_maximal_number(adj: tuple[int, ...]) -> int:
    """mu: a matching covering S is maximal iff the rest is independent,
    so take the least |S|/2 over independent complements I for which
    G - I has a perfect matching."""
    n = len(adj)
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def perfect(mask: int) -> bool:
        if not mask:
            return True
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        nb = adj[v] & rest
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if perfect(rest & ~(1 << u)):
                return True
        return False

    best = n

    def independents(v: int, chosen: int, banned: int) -> None:
        nonlocal best
        if v == n:
            covered = full & ~chosen
            if popcount(covered) // 2 < best and perfect(covered):
                best = popcount(covered) // 2
            return
        independents(v + 1, chosen, banned)
        if not banned >> v & 1:
            independents(v + 1, chosen | 1 << v, banned | adj[v])

    independents(0, 0, 0)
    return best


def popcount(x: int) -> int:
    return bin(x).count("1")


def subset_positions(adj: tuple[int, ...]) -> int:
    """Distinct vertex sets covered by nonempty matchings.

    A subset-mode solve stores one memo entry per such set (the vertex
    mask left after playing the matching), so this is its entry count.
    """
    edges = edge_list(adj)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for covered in frontier:
            for u, v in edges:
                if not covered & (1 << u | 1 << v):
                    s = covered | 1 << u | 1 << v
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
        frontier = nxt
    return len(seen) - 1


def is_maximal_matching(adj: tuple[int, ...], moves) -> bool:
    covered = 0
    for u, v in moves:
        if not adj[u] >> v & 1 or covered & (1 << u | 1 << v):
            return False
        covered |= 1 << u | 1 << v
    return not _mask_edges(adj, ((1 << len(adj)) - 1) & ~covered)


def is_forest(adj: tuple[int, ...]) -> bool:
    """Acyclic test on the graph with isolated vertices dropped."""
    live = [v for v in range(len(adj)) if adj[v]]
    edges = sum(popcount(adj[v]) for v in live) // 2
    parent = list(range(len(adj)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = len(live)
    for u, v in edge_list(adj):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return edges == len(live) - comps


def invariant_signature(adj: tuple[int, ...]) -> tuple:
    """Isomorphism invariant: graphs with different signatures are not
    isomorphic.  Used to plant a known number of repeats in a stream."""
    n = len(adj)
    degs = [popcount(a) for a in adj]
    per_vertex = sorted(
        (degs[v], tuple(sorted(degs[u] for u in range(n) if adj[v] >> u & 1)),
         sum(popcount(adj[v] & adj[u]) for u in range(n) if adj[v] >> u & 1))
        for v in range(n)
    )
    return n, tuple(per_vertex)


def path_max_bounds(n: int) -> tuple[int, int]:
    """3*floor(n/7) <= Max(P_n) <= 3*ceil(n/7); both equal 3n/7 when 7 | n."""
    return 3 * (n // 7), 3 * (-(-n // 7))


def prufer_tree(n: int, seq: list[int]) -> list[tuple[int, int]]:
    """Edges of the labelled tree with the given Pruefer sequence (n >= 2)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, w = (v for v in range(n) if degree[v] == 1)
    edges.append((u, w))
    return edges
