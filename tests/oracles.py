"""Independent brute-force oracles the tests freeze expectations against.

Everything here is deliberately dumb: plain enumeration over edge
subsets, permutations, or move sequences.  No algorithm under test is
reused, only the Graph container and the solver's result types, with
these exceptions: ``labeled_class_count`` dedups labelled graphs by
``canonical_certificate``, to recount what the corpus grows by vertex
extension, and ``exhaustive_classes`` and ``connected_cubic_classes``
are the corpus generators as they were before orbit pruning (every
candidate canonicalised), kept as the reference the pruned generators
must reproduce exactly; ``compatibility_witness_reference`` and
``refine_reference`` are the compatible-matching search and the
refinement as they were before pruning, kept for the same reason (the
first still bounds its search with the package's blossom matching);
``tree_code_reference`` is the tree code as it was before the forest
route coded trees from breadth-first layer masks: centres by leaf
stripping, codes by recursion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from matchgame.canon import canonical_certificate
from matchgame.corpus import CUBIC_LIMIT, EXHAUSTIVE_LIMIT, _partitions_min3
from matchgame.graph import Graph, GraphError, bits, from_edges, is_connected, popcount, residual
from matchgame.matching import WitnessResult, _blossom_match, matching_number
from matchgame.solver import Player, SolveResult


def all_matchings(g: Graph):
    """Every matching (as a frozenset of edges), by subset recursion."""
    edges = list(g.edges())

    def rec(i: int, used: int, acc: tuple):
        yield frozenset(acc)
        for j in range(i, len(edges)):
            u, v = edges[j]
            if used >> u & 1 or used >> v & 1:
                continue
            yield from rec(j + 1, used | 1 << u | 1 << v, acc + ((u, v),))

    yield from rec(0, 0, ())


def validate_matching(g: Graph, m: frozenset) -> None:
    """Raise GraphError unless m is a set of pairwise disjoint edges of g."""
    seen = 0
    for u, v in m:
        if not g.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge of the host graph")
        if seen & (1 << u | 1 << v):
            raise GraphError(f"({u}, {v}) shares a vertex with another edge")
        seen |= 1 << u | 1 << v


def brute_matching_number(g: Graph) -> int:
    return max(len(m) for m in all_matchings(g))


def is_maximal_in(g: Graph, m: frozenset) -> bool:
    used = 0
    for u, v in m:
        used |= 1 << u | 1 << v
    return all(used >> u & 1 or used >> v & 1 for u, v in g.edges())


def brute_maximal_matchings(g: Graph):
    return [m for m in all_matchings(g) if is_maximal_in(g, m)]


def brute_min_maximal_number(g: Graph) -> int:
    return min(len(m) for m in brute_maximal_matchings(g))


def brute_component_masks(g: Graph, keep: int) -> list[int]:
    """Components of g[keep] as vertex masks, ordered by least vertex.

    Union-find over the edges with both ends in ``keep``.
    """
    parent = {v: v for v in range(g.n) if keep >> v & 1}

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges():
        if u in parent and v in parent:
            parent[find(u)] = find(v)
    comps: dict[int, int] = {}
    for v in parent:
        comps[find(v)] = comps.get(find(v), 0) | 1 << v
    return sorted(comps.values(), key=lambda m: m & -m)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation search with a degree-sequence prefilter."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    gd = sorted(g.degree(v) for v in range(g.n))
    hd = sorted(h.degree(v) for v in range(h.n))
    if gd != hd:
        return False
    g_edges = set(g.edges())
    for perm in permutations(range(g.n)):
        if all(h.degree(perm[v]) == g.degree(v) for v in range(g.n)):
            if all(h.has_edge(perm[u], perm[v]) for u, v in g_edges):
                return True
    return False


def brute_longest_paths(g: Graph):
    """All maximum-length simple paths as vertex tuples (both directions)."""
    best: list[tuple[int, ...]] = [()]
    for start in range(g.n):
        stack = [(start, (start,), 1 << start)]
        while stack:
            v, seq, seen = stack.pop()
            if len(seq) > len(best[0]):
                best = [seq]
            elif len(seq) == len(best[0]) and seq not in best:
                best.append(seq)
            for w in range(g.n):
                if g.has_edge(v, w) and not seen >> w & 1:
                    stack.append((w, seq + (w,), seen | 1 << w))
    return best


def brute_game_value(g: Graph, maximizing: bool) -> int:
    """Minimax by direct recursion on residual graphs."""
    edges = list(g.edges())
    if not edges:
        return 0
    vals = [1 + brute_game_value(residual(g, e), not maximizing) for e in edges]
    return max(vals) if maximizing else min(vals)


def solve_naive(g: Graph, first: Player) -> SolveResult:
    """Memo-free minimax over vertex masks; exponential, keep n small."""
    n, adj = g.n, g.adj

    def value(mask: int, maximising: bool) -> int:
        vals = [
            1 + value(mask & ~(1 << u | 1 << v), not maximising)
            for u in range(n) if mask >> u & 1
            for v in range(u + 1, n) if mask >> v & 1 and adj[u] >> v & 1
        ]
        if not vals:
            return 0
        return max(vals) if maximising else min(vals)

    values = {
        (u, v): 1 + value(g.vertex_mask & ~(1 << u | 1 << v), first is Player.MIN)
        for u, v in g.edges()
    }
    if not values:
        return SolveResult(0, ())
    opt = max(values.values()) if first is Player.MAX else min(values.values())
    return SolveResult(opt, tuple(sorted(e for e, v in values.items() if v == opt)))


def labeled_class_count(n: int) -> int:
    """Independent recount: certificate dedup of all labelled graphs."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    certs = set()
    for code in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if code >> i & 1]
        certs.add(canonical_certificate(from_edges(n, edges)))
    return len(certs)


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return from_edges(n, edges)


def permuted(g: Graph, perm) -> Graph:
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@lru_cache(maxsize=None)
def exhaustive_classes(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class on exactly n vertices.

    Representatives on n vertices are built by attaching a new vertex
    to every subset of every (n-1)-vertex representative; every class
    arises this way because deleting any vertex of any n-vertex graph
    leaves an (n-1)-vertex graph.  Certificates dedup the candidates
    (certificates ignore isolated vertices, which is sound here since
    all candidates share the same order).
    """
    if not 0 <= n <= EXHAUSTIVE_LIMIT:
        raise GraphError(f"exhaustive corpus built-in only for n <= {EXHAUSTIVE_LIMIT}")
    if n == 0:
        return (Graph(0, ()),)
    reps: dict[bytes, Graph] = {}
    for g in exhaustive_classes(n - 1):
        for sub in range(1 << (n - 1)):
            adj = [m | ((sub >> v & 1) << (n - 1)) for v, m in enumerate(g.adj)]
            adj.append(sub)
            cand = Graph(n, tuple(adj))
            cert = canonical_certificate(cand)
            if cert not in reps:
                reps[cert] = cand
    return tuple(reps[c] for c in sorted(reps))


@lru_cache(maxsize=None)
def connected_cubic_classes(n: int) -> tuple[Graph, ...]:
    """All connected 3-regular classes on n vertices, n even, n <= 14.

    Every cubic graph on at most 14 vertices has a perfect matching
    (a cubic graph without one needs three odd pieces of at least five
    vertices hanging off a cut vertex, so 16 vertices at least), hence
    decomposes into a 2-factor plus a perfect matching.  Laying the
    2-factor out canonically as consecutive cycles and enumerating the
    compatible perfect matchings therefore reaches every class.
    """
    if n % 2 or not 4 <= n <= CUBIC_LIMIT:
        raise GraphError(f"connected cubic corpus needs even 4 <= n <= {CUBIC_LIMIT}")
    reps: dict[bytes, Graph] = {}
    for parts in _partitions_min3(n):
        cycle_adj = [0] * n
        banned = set()
        start = 0
        for length in parts:
            for i in range(length):
                a = start + i
                b = start + (i + 1) % length
                cycle_adj[a] |= 1 << b
                cycle_adj[b] |= 1 << a
                banned.add((min(a, b), max(a, b)))
            start += length

        def matchings(covered: int, acc: list[tuple[int, int]]):
            if covered == (1 << n) - 1:
                yield acc
                return
            v = 0
            while covered >> v & 1:
                v += 1
            for u in range(v + 1, n):
                if covered >> u & 1 or (v, u) in banned:
                    continue
                acc.append((v, u))
                yield from matchings(covered | 1 << v | 1 << u, acc)
                acc.pop()

        for pm in matchings(0, []):
            adj = list(cycle_adj)
            for u, v in pm:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            cand = Graph(n, tuple(adj))
            if not is_connected(cand):
                continue
            cert = canonical_certificate(cand)
            if cert not in reps:
                reps[cert] = cand
    return tuple(reps[c] for c in sorted(reps))


def _partner_compatible(g: Graph, partner: dict[int, int]) -> bool:
    for u, v in g.edges():
        pu = partner.get(u)
        pv = partner.get(v)
        if pu is None or pv is None or pu == v:
            continue
        if not g.has_edge(pu, pv):
            return False
    return True


def compatibility_witness_reference(g: Graph, cap: int = 10**6) -> WitnessResult:
    """Enumerate maximum matchings in lexicographic edge order and test
    the partner-closure property on each whole matching; at most ``cap``
    maximum matchings are examined.
    """
    alpha = matching_number(g)
    if alpha == 0:
        return WitnessResult("found", frozenset())
    edges = list(g.edges())
    seen = 0

    def extend(i: int, chosen: list, covered: int):
        nonlocal seen
        if len(chosen) == alpha:
            seen += 1
            partner = {}
            for a, b in chosen:
                partner[a] = b
                partner[b] = a
            if _partner_compatible(g, partner):
                return WitnessResult("found", frozenset(chosen))
            if seen >= cap:
                return WitnessResult("inconclusive")
            return None
        need = alpha - len(chosen)
        if len(_blossom_match(g, g.vertex_mask & ~covered)) < need:
            return None
        for j in range(i, len(edges)):
            u, v = edges[j]
            if covered & (1 << u | 1 << v):
                continue
            chosen.append((u, v))
            res = extend(j + 1, chosen, covered | 1 << u | 1 << v)
            chosen.pop()
            if res is not None:
                return res
        return None

    res = extend(0, [], 0)
    return res if res is not None else WitnessResult("absent")


def refine_reference(adj: tuple[int, ...], partition: list[int]) -> list[int]:
    """Coarsest stable refinement: every cell counted against every
    splitter, fragments ordered by count, scan restarted after a split.
    """
    while True:
        changed = False
        for splitter in list(partition):
            out: list[int] = []
            for cell in partition:
                if popcount(cell) == 1:
                    out.append(cell)
                    continue
                groups: dict[int, int] = {}
                for v in bits(cell):
                    k = popcount(adj[v] & splitter)
                    groups[k] = groups.get(k, 0) | 1 << v
                if len(groups) == 1:
                    out.append(cell)
                else:
                    changed = True
                    out.extend(groups[k] for k in sorted(groups))
            partition = out
            if changed:
                break
        if not changed:
            return partition


def tree_centres_reference(g: Graph, comp: int) -> list[int]:
    """Centre vertex (or two) of a tree component, by leaf stripping.

    A component with a cycle runs out of leaves; it raises GraphError
    rather than strip forever.
    """
    alive = comp
    deg = {v: popcount(g.adj[v] & comp) for v in bits(comp)}
    while popcount(alive) > 2:
        drop = [v for v in bits(alive) if deg[v] <= 1]
        if not drop:
            raise GraphError("leaf stripping met a cycle")
        for v in drop:
            alive &= ~(1 << v)
            for u in bits(g.adj[v] & alive):
                deg[u] -= 1
    return list(bits(alive))


def rooted_code_reference(g: Graph, comp: int, root: int) -> str:
    """AHU code of the tree g[comp] rooted at root, by recursion."""

    def code(v: int, parent: int) -> str:
        children = sorted(
            code(u, v) for u in bits(g.adj[v] & comp) if u != parent
        )
        return "(" + "".join(children) + ")"

    return code(root, -1)


def tree_code_reference(g: Graph, comp: int) -> str:
    """Least rooted code of the tree g[comp] over its centres."""
    return min(rooted_code_reference(g, comp, r) for r in tree_centres_reference(g, comp))
