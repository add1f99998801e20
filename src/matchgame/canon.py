"""Canonical certificates: a complete isomorphism invariant.

Isolated vertices are removed first, so the certificate identifies the
isomorphism class of the isolate-free part (two graphs of equal order
are isomorphic iff their certificates agree).  The certificate is the
graph6 encoding of a canonically relabelled copy, so it is printable
and decodes back to a representative of the class.

Two disjoint canonicalisation routes, chosen by an isomorphism
invariant condition so classes never straddle them:

* forests: rooted-subtree codes at the tree centres, trees sorted by
  code; linear time-ish and hit constantly by game residuals.  Each
  distinct tuple of sorted codes becomes graph6 bytes once, through a
  bounded memo, and ``piece_certificate`` codes a tree piece of a host
  graph on the host's own masks,
* everything else: individualisation-refinement search minimising the
  relabelled adjacency encoding, pruned by automorphism orbits
  discovered at equal leaves.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Graph, _derived, bits, component_masks, popcount, subgraph_mask
from . import graph6


def canonical_certificate(g: Graph) -> bytes:
    """Certificate bytes; equal for isomorphic inputs (isolates ignored)."""
    comps = [comp for comp in component_masks(g) if comp & (comp - 1)]
    if all(_is_tree(g, comp) for comp in comps):
        return _forest_certificate(tuple(sorted(_tree_code(g, comp) for comp in comps)))
    keep = sum(comps)  # disjoint masks, so the sum is their union
    h = g if keep == g.vertex_mask else subgraph_mask(g, keep)
    return graph6.emit(_canonical_ir(h)).encode("ascii")


def piece_certificate(g: Graph, comp: int) -> bytes:
    """``canonical_certificate(subgraph_mask(g, comp))`` for a connected comp.

    ``comp`` must be a component of some g[keep], as ``component_masks``
    returns it.  A tree piece is coded on g's own masks, with no derived
    graph; any other piece takes the public route.
    """
    if _is_tree(g, comp):
        return _forest_certificate((_tree_code(g, comp),) if comp & (comp - 1) else ())
    return canonical_certificate(subgraph_mask(g, comp))


def canonical_form(g: Graph) -> Graph:
    """The canonically relabelled isolate-free representative."""
    return graph6.parse(canonical_certificate(g).decode("ascii"))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism of the full graphs, isolated vertices included."""
    return g.n == h.n and canonical_certificate(g) == canonical_certificate(h)


# -- forests ----------------------------------------------------------


def _is_tree(g: Graph, comp: int) -> bool:
    """A connected g[comp] is a tree iff it has |comp| - 1 edges."""
    adj = g.adj
    degrees, rest = 0, comp
    while rest:
        low = rest & -rest
        degrees += (adj[low.bit_length() - 1] & comp).bit_count()
        rest ^= low
    return degrees == 2 * comp.bit_count() - 2


def _layers(adj: tuple[int, ...], comp: int, root: int) -> list[int]:
    """Breadth-first layers of the connected g[comp] from root, as masks."""
    layers = []
    seen = frontier = 1 << root
    while frontier:
        layers.append(frontier)
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & comp & ~seen
        seen |= frontier
    return layers


def _tree_centres(g: Graph, comp: int) -> list[int]:
    """Centre vertex (or two) of a tree component: the middle of a longest path.

    A sweep from any vertex ends at an end a of a longest path; a sweep
    from a ends at its other end b.  Walking back from b, one vertex per
    layer, reaches the middle layer or two.
    """
    adj = g.adj
    far = _layers(adj, comp, (comp & -comp).bit_length() - 1)[-1]
    layers = _layers(adj, comp, (far & -far).bit_length() - 1)
    depth = len(layers) - 1
    cur = layers[-1] & -layers[-1]
    centres = []
    for d in range(depth, depth // 2 - 1, -1):
        if d <= (depth + 1) // 2:
            centres.append(cur.bit_length() - 1)
        if d:
            cur = adj[cur.bit_length() - 1] & layers[d - 1]
    return centres


def _rooted_code(g: Graph, comp: int, root: int) -> str:
    """AHU code of the tree g[comp] rooted at root, deepest layer first.

    A vertex's code is its children's codes, sorted and joined, in one
    pair of brackets; its children are its neighbours in the layer below.
    """
    adj = g.adj
    layers = _layers(adj, comp, root)
    code: dict[int, str] = {}
    below = 0
    for layer in reversed(layers):
        rest = layer
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            kids = adj[v] & below
            parts = []
            while kids:
                k = kids & -kids
                parts.append(code[k.bit_length() - 1])
                kids ^= k
            parts.sort()
            code[v] = "(" + "".join(parts) + ")"
            rest ^= low
        below = layer
    return code[root]


def _tree_code(g: Graph, comp: int) -> str:
    """Isomorphism code of the tree g[comp]: least rooted code at a centre."""
    return min(_rooted_code(g, comp, r) for r in _tree_centres(g, comp))


def _forest_from_codes(codes: tuple[str, ...]) -> Graph:
    """The forest with one tree per code, vertices numbered in preorder.

    Children are already in sorted order inside each code, so sorted
    codes give the canonical representative.
    """
    adj = [0] * (sum(map(len, codes)) // 2)
    nxt = 0
    for code in codes:
        stack: list[int] = []
        for ch in code:
            if ch == "(":
                vid = nxt
                nxt += 1
                if stack:
                    adj[stack[-1]] |= 1 << vid
                    adj[vid] |= 1 << stack[-1]
                stack.append(vid)
            else:
                stack.pop()
    return _derived(len(adj), tuple(adj))


@lru_cache(maxsize=1 << 12)
def _forest_certificate(codes: tuple[str, ...]) -> bytes:
    """Certificate of the forest with the sorted tree codes ``codes``."""
    return graph6.emit(_forest_from_codes(codes)).encode("ascii")


# -- individualisation-refinement --------------------------------------


def _refine(adj: tuple[int, ...], partition: list[int]) -> list[int]:
    """Coarsest stable refinement, deterministic cell order.

    Splitter cells are taken in order.  Each splits every cell by
    neighbour count into it, fragments ordered by count, and the scan
    restarts from the first splitter after any split, so the resulting
    cell order depends only on the isomorphism type of (graph, ordered
    partition).  A cell disjoint from the splitter's neighbour union
    has count 0 throughout and is passed over uncounted; a one-vertex
    splitter {s} splits a cell by one AND with adj[s].
    """
    while True:
        for splitter in partition:
            single = not splitter & (splitter - 1)
            if single:
                union = adj[splitter.bit_length() - 1]
            else:
                union = 0
                for s in bits(splitter):
                    union |= adj[s]
            out: list[int] | None = None
            for i, cell in enumerate(partition):
                hit = cell & union
                if not hit or not cell & (cell - 1):
                    frags = None
                elif single:
                    frags = None if hit == cell else (cell & ~union, hit)
                else:
                    # vertices outside the union count 0, those inside at least 1
                    groups: dict[int, int] = {0: cell & ~union} if hit != cell else {}
                    for v in bits(hit):
                        k = popcount(adj[v] & splitter)
                        groups[k] = groups.get(k, 0) | 1 << v
                    frags = [groups[k] for k in sorted(groups)] if len(groups) > 1 else None
                if frags is not None:
                    if out is None:
                        out = partition[:i]
                    out.extend(frags)
                elif out is not None:
                    out.append(cell)
            if out is not None:
                partition = out
                break
        else:
            return partition


class _Canonizer:
    def __init__(self, g: Graph) -> None:
        self.n = g.n
        self.adj = g.adj
        self.best: int | None = None
        self.best_perm: tuple[int, ...] = ()
        self.gens: list[tuple[int, ...]] = []

    def run(self) -> tuple[int, ...]:
        self._search(_refine(self.adj, [(1 << self.n) - 1]), [])
        return self.best_perm

    def _encode(self, perm: list[int]) -> int:
        enc = 0
        for j in range(1, self.n):
            col = self.adj[perm[j]]
            for i in range(j):
                enc = enc << 1 | (col >> perm[i] & 1)
        return enc

    def _orbit_reps(self, base: list[int]) -> list[int]:
        """Union-find parents under generators fixing the base pointwise."""
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for gen in self.gens:
            if all(gen[b] == b for b in base):
                for v in range(self.n):
                    ra, rb = find(v), find(gen[v])
                    if ra != rb:
                        parent[ra] = rb
        return [find(v) for v in range(self.n)]

    def _search(self, partition: list[int], base: list[int]) -> None:
        target = next((i for i, c in enumerate(partition) if popcount(c) > 1), -1)
        if target < 0:
            perm = [c.bit_length() - 1 for c in partition]
            enc = self._encode(perm)
            if self.best is None or enc < self.best:
                self.best = enc
                self.best_perm = tuple(perm)
            elif enc == self.best:
                sigma = [0] * self.n
                for old, new in zip(self.best_perm, perm):
                    sigma[old] = new
                self.gens.append(tuple(sigma))
            return
        cell = partition[target]
        explored: list[int] = []
        reps: list[int] = []
        reps_gens = -1  # len(self.gens) when reps was computed
        for v in bits(cell):
            if explored:
                if reps_gens != len(self.gens):
                    reps, reps_gens = self._orbit_reps(base), len(self.gens)
                if any(reps[v] == reps[u] for u in explored):
                    continue
            child = (
                partition[:target]
                + [1 << v, cell & ~(1 << v)]
                + partition[target + 1:]
            )
            self._search(_refine(self.adj, child), base + [v])
            explored.append(v)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Automorphisms of g, as tuples mapping v to perm[v], isolates kept.

    These are the automorphisms the individualisation-refinement search
    finds at equal leaves.  They always generate a subgroup of Aut(g),
    and on every graph with at most six vertices the whole group.
    """
    if g.n == 0:
        return []
    search = _Canonizer(g)
    search.run()
    return search.gens


def _canonical_ir(g: Graph) -> Graph:
    perm = _Canonizer(g).run()
    pos = {v: i for i, v in enumerate(perm)}
    adj = [0] * g.n
    for i, v in enumerate(perm):
        for u in bits(g.adj[v]):
            adj[i] |= 1 << pos[u]
    return _derived(g.n, tuple(adj))
