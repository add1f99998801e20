"""Exact matching computations.

Maximum matchings come from the standard blossom-contraction
augmenting-path search (polynomial, fine up to the 62-vertex cap).  The
search runs on a host graph and a vertex mask, so a question about a
vertex subset (edge and vertex coverage, the witness search's pruning
bound) is answered on g[keep] in g's own labels, with no copy.
Minimum maximal matchings are NP-hard in general; here an exact
memoised branch search over (free vertices, forced vertices) states
handles desk-scale inputs.  All returned matchings are deterministic
functions of the input labelling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph, GraphError, bits, popcount

Matching = frozenset[Edge]

_INF = 1 << 30


def covered_vertices(m: Matching) -> frozenset[int]:
    return frozenset(v for e in m for v in e)


def is_maximal(g: Graph, m: Matching) -> bool:
    """No edge of g has both endpoints uncovered by m."""
    covered = 0
    for u, v in m:
        covered |= 1 << u | 1 << v
    return all(g.adj[v] & ~covered == 0 for v in bits(g.vertex_mask & ~covered))


# -- maximum matching ----------------------------------------------------


def _blossom_match(g: Graph, keep: int) -> Matching:
    """A maximum matching of g[keep] in g's labels, by blossom contraction."""
    n = g.n
    adj = [list(bits(m & keep)) for m in g.adj]
    match = [-1] * n

    def find_path(root: int) -> bool:
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = [root]
        qi = 0

        def lca(a: int, b: int) -> int:
            mark = [False] * n
            while True:
                a = base[a]
                mark[a] = True
                if match[a] == -1:
                    break
                a = p[match[a]]
            while True:
                b = base[b]
                if mark[b]:
                    return b
                b = p[match[b]]

        def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        while to != -1:
                            prev = p[to]
                            nxt = match[prev]
                            match[prev] = to
                            match[to] = prev
                            to = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in bits(keep):
        if match[v] == -1:
            find_path(v)
    return frozenset((v, match[v]) for v in range(n) if match[v] > v)


def maximum_matching(g: Graph) -> Matching:
    return _blossom_match(g, g.vertex_mask)


def matching_number(g: Graph) -> int:
    """alpha'(g), the maximum matching size."""
    return len(maximum_matching(g))


def edge_in_maximum_matching(g: Graph, e: Edge, alpha: int | None = None) -> bool:
    """Whether e lies in at least one maximum matching of g."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    if alpha is None:
        alpha = matching_number(g)
    return len(_blossom_match(g, g.vertex_mask & ~(1 << u | 1 << v))) == alpha - 1


def covering_max_matching(g: Graph, v: int, alpha: int | None = None) -> Matching:
    """A maximum matching containing an edge at v, least such edge first.

    Every non-isolated vertex of a graph is covered by some maximum
    matching, so this fails only on isolated vertices.  ``alpha``, if
    given, is alpha'(g), so a caller asking about every vertex computes
    it once.
    """
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} not in graph")
    if not g.adj[v]:
        raise GraphError(f"vertex {v} is isolated")
    if alpha is None:
        alpha = matching_number(g)
    for u in bits(g.adj[v]):
        rest = _blossom_match(g, g.vertex_mask & ~(1 << u | 1 << v))
        if len(rest) == alpha - 1:
            return rest | {(min(u, v), max(u, v))}
    raise GraphError(f"no maximum matching covers vertex {v}")  # unreachable


# -- minimum maximal matching --------------------------------------------


def min_maximal_matching(g: Graph) -> Matching:
    """A smallest maximal matching, exact and deterministic.

    State: (free, must) vertex masks.  ``free`` = vertices not yet
    covered and not declared permanently uncovered; ``must`` = free
    vertices that already have an uncovered neighbour, so they have to
    be covered for the final matching to be maximal.
    """
    adj = g.adj
    memo: dict[tuple[int, int], int] = {}

    def pick(free: int, must: int) -> int:
        if must:
            # most constrained first; any must vertex has to be matched
            return min(bits(must), key=lambda v: (popcount(adj[v] & free), v))
        live = [v for v in bits(free) if adj[v] & free]
        if not live:
            return -1
        return min(live, key=lambda v: (popcount(adj[v] & free), v))

    def rec(free: int, must: int) -> int:
        v = pick(free, must)
        if v < 0:
            return 0
        key = (free, must)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = _INF
        nbrs = adj[v] & free
        for u in bits(nbrs):
            drop = ~(1 << v | 1 << u)
            sub = rec(free & drop, must & drop)
            if sub + 1 < best:
                best = sub + 1
        if not must >> v & 1:
            # leave v uncovered: all its free neighbours become forced
            sub = rec(free & ~(1 << v), must | nbrs)
            if sub < best:
                best = sub
        memo[key] = best
        return best

    def rebuild(free: int, must: int) -> list[Edge]:
        v = pick(free, must)
        if v < 0:
            return []
        total = rec(free, must)
        nbrs = adj[v] & free
        for u in bits(nbrs):
            drop = ~(1 << v | 1 << u)
            if rec(free & drop, must & drop) + 1 == total:
                return [(min(u, v), max(u, v))] + rebuild(free & drop, must & drop)
        return rebuild(free & ~(1 << v), must | nbrs)

    size = rec(g.vertex_mask, 0)
    if size >= _INF:  # pragma: no cover - cannot happen on a simple graph
        raise GraphError("no maximal matching found")
    out = frozenset(rebuild(g.vertex_mask, 0))
    assert len(out) == size and is_maximal(g, out)
    return out


def min_maximal_number(g: Graph) -> int:
    """mu(g), the minimum maximal matching size."""
    return len(min_maximal_matching(g))


# -- compatibility witness -------------------------------------------------


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of the compatible-matching search.

    status is "found" (with the witness matching), "absent" (complete
    search found none) or "inconclusive" (search node cap hit).
    """

    status: str
    matching: Matching | None = None


def compatibility_witness(g: Graph, cap: int = 10**6, alpha: int | None = None) -> WitnessResult:
    """Search maximum matchings M with the partner-closure property:

    whenever uu' and vv' are in M and uv is an edge, u'v' is an edge
    too.  The property is a condition on each pair of edges of M, so an
    edge is rejected as soon as it breaks it with an edge already
    chosen, and no compatible matching is lost.  Matchings are searched
    in lexicographic edge order, so the witness is the lexicographically
    first compatible maximum matching.  At most ``cap`` search nodes
    (partial matchings) are visited before the answer is "inconclusive".
    ``alpha``, if given, is alpha'(g), which a caller may already have.
    """
    if alpha is None:
        alpha = matching_number(g)
    if alpha == 0:
        return WitnessResult("found", frozenset())
    adj = g.adj
    edges = list(g.edges())
    seen = 0

    def closed(u: int, v: int, chosen: list[Edge]) -> bool:
        # for each chosen ab: u~a => v~b, v~b => u~a, u~b => v~a, v~a => u~b
        for a, b in chosen:
            if (adj[u] >> a ^ adj[v] >> b) & 1 or (adj[u] >> b ^ adj[v] >> a) & 1:
                return False
        return True

    def extend(i: int, chosen: list[Edge], covered: int) -> WitnessResult | None:
        nonlocal seen
        seen += 1
        if seen > cap:
            return WitnessResult("inconclusive")
        if len(chosen) == alpha:
            return WitnessResult("found", frozenset(chosen))
        need = alpha - len(chosen)
        if len(_blossom_match(g, g.vertex_mask & ~covered)) < need:
            return None
        for j in range(i, len(edges)):
            u, v = edges[j]
            if covered & (1 << u | 1 << v) or not closed(u, v, chosen):
                continue
            chosen.append((u, v))
            res = extend(j + 1, chosen, covered | 1 << u | 1 << v)
            chosen.pop()
            if res is not None:
                return res
        return None

    res = extend(0, [], 0)
    return res if res is not None else WitnessResult("absent")
