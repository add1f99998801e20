"""Graph constructors: basic families, combinators, named gadgets.

Every constructor fixes an explicit labelling so results are
reproducible; derived helpers (copy lists for strategies) rely on
those labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph, GraphError, from_edges

# -- basic families -----------------------------------------------------


def path(n: int) -> Graph:
    if n < 0:
        raise GraphError("path needs n >= 0")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return from_edges(n, [(i, j) for j in range(n) for i in range(j)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(t: int) -> Graph:
    """K_{1,t}: centre 0, t leaves, t edges."""
    return complete_bipartite(1, t)


# -- combinators --------------------------------------------------------


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [m << g.n for m in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product; vertex (a, b) gets id a * h.n + b."""
    edges = []
    for a in range(g.n):
        for b1, b2 in h.edges():
            edges.append((a * h.n + b1, a * h.n + b2))
    for b in range(h.n):
        for a1, a2 in g.edges():
            edges.append((a1 * h.n + b, a2 * h.n + b))
    return from_edges(g.n * h.n, edges)


def add_pendant(g: Graph, v: int) -> Graph:
    """Attach a new leaf (id g.n) to vertex v."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} not in graph")
    adj = list(g.adj) + [1 << v]
    adj[v] |= 1 << g.n
    return Graph(g.n + 1, tuple(adj))


# -- named constructions -------------------------------------------------


def comb(k: int) -> Graph:
    """Spine path on 4k vertices with one pendant leaf per spine vertex."""
    if k < 1:
        raise GraphError("comb needs k >= 1")
    edges = [(i, i + 1) for i in range(4 * k - 1)]
    edges += [(i, 4 * k + i) for i in range(4 * k)]
    return from_edges(8 * k, edges)


def split_extremal(n: int, k: int) -> Graph:
    """Clique 0..3k-1 joined completely to an independent set 3k..n-1."""
    if k < 1 or n < 6 * k:
        raise GraphError("split_extremal needs n >= 6k >= 6")
    t = 3 * k
    edges = [(i, j) for j in range(t) for i in range(j)]
    edges += [(i, j) for i in range(t) for j in range(t, n)]
    return from_edges(n, edges)


def paw() -> Graph:
    """Triangle 0,1,2 with a pendant 3 attached to 2."""
    return add_pendant(complete(3), 2)


def gadget_K() -> Graph:
    """K4 with one edge subdivided; 5 vertices, vertex 4 has degree 2."""
    return from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])


def gadget_B() -> Graph:
    """gadget_K plus a pendant 5 attached to its degree-2 vertex."""
    return add_pendant(gadget_K(), 4)


def gadget_H() -> Graph:
    """Three copies of gadget_K, their degree-2 vertices joined to a centre.

    16 vertices, 3-regular, connected; copies occupy 0-4, 5-9, 10-14 and
    the centre is 15.
    """
    g = gadget_K()
    edges = []
    for c in range(3):
        off = 5 * c
        edges += [(u + off, v + off) for u, v in g.edges()]
        edges.append((off + 4, 15))
    return from_edges(16, edges)


def cubic_tree(k: int) -> Graph:
    """Complete cubic tree T_k: all leaves at depth k, internals of degree 3.

    Breadth-first labelling from the root 0; 6 * 2**(k-1) - 2 vertices
    for k >= 1, a single vertex for k = 0.
    """
    if k < 0:
        raise GraphError("cubic_tree needs k >= 0")
    if k == 0:
        return from_edges(1, [])
    edges = []
    level = [0]
    nxt = 1
    for depth in range(1, k + 1):
        new_level = []
        for v in level:
            for _ in range(3 if depth == 1 else 2):
                edges.append((v, nxt))
                new_level.append(nxt)
                nxt += 1
        level = new_level
    return from_edges(nxt, edges)


def G_k(k: int) -> Graph:
    """Cubic connected graph: T_{k+1} with a gadget_K copy glued on each leaf.

    Each leaf of the tree is identified with the degree-2 vertex of its
    own copy of gadget_K; 18 * 2**k - 2 vertices.  G_k(0) is gadget_H up
    to isomorphism.
    """
    if k < 0:
        raise GraphError("G_k needs k >= 0")
    tree = cubic_tree(k + 1)
    blocks = gk_block_copies(k)
    edges = set(tree.edges()).union(*(b.edges for b in blocks))
    return from_edges(tree.n + 4 * len(blocks), edges)


@dataclass(frozen=True)
class BlockCopy:
    """One glued block of G_k: its vertices, edges and blocked edge set.

    ``f_edges`` are the three edges of the block that lie in no perfect
    matching of the 6-vertex block graph (pendant edge included).
    """

    vertices: frozenset[int]
    edges: frozenset[Edge]
    f_edges: tuple[Edge, ...]


def gk_block_copies(k: int) -> list[BlockCopy]:
    """The 3 * 2**k block copies of G_k(k), in leaf order."""
    tree = cubic_tree(k + 1)
    leaves = [v for v in range(tree.n) if tree.degree(v) == 1]
    out = []
    nxt = tree.n
    for leaf in leaves:
        parent = next(u for u in range(tree.n) if tree.has_edge(u, leaf))
        w, x, y, z = nxt, nxt + 1, nxt + 2, nxt + 3
        block_edges = [
            (w, x), (w, y), (w, z), (x, y), (x, z),
            (min(y, leaf), max(y, leaf)), (min(z, leaf), max(z, leaf)),
            (min(leaf, parent), max(leaf, parent)),
        ]
        f_edges = tuple(sorted([
            (w, x),
            (min(y, leaf), max(y, leaf)),
            (min(z, leaf), max(z, leaf)),
        ]))
        out.append(BlockCopy(
            vertices=frozenset({w, x, y, z, leaf, parent}),
            edges=frozenset(tuple(sorted(e)) for e in block_edges),
            f_edges=f_edges,
        ))
        nxt += 4
    return out


def K_minusPM(k: int) -> Graph:
    """K_{4k+2} minus the perfect matching (0,1), (2,3), ..."""
    if k < 1:
        raise GraphError("K_minusPM needs k >= 1")
    n = 4 * k + 2
    edges = [(i, j) for j in range(n) for i in range(j) if not (i ^ j == 1 and i % 2 == 0)]
    return from_edges(n, edges)


def twin_cliques(k: int) -> Graph:
    """Two copies of K_{2k}, one edge deleted in each, two cross edges.

    The deleted edges are (0,1) and (2k,2k+1); the cross edges pair the
    endpoints as (0,2k) and (1,2k+1).  The opposite pairing gives an
    isomorphic graph (swap 2k and 2k+1), so the choice is immaterial.
    """
    if k < 2:
        raise GraphError("twin_cliques needs k >= 2")
    m = 2 * k
    edges = [(i, j) for j in range(m) for i in range(j) if (i, j) != (0, 1)]
    edges += [(m + i, m + j) for j in range(m) for i in range(j) if (i, j) != (0, 1)]
    edges += [(0, m), (1, m + 1)]
    return from_edges(2 * m, edges)


def clique_pendant(r: int) -> Graph:
    """K_{2r-1} with a pendant vertex attached to vertex 0."""
    if r < 2:
        raise GraphError("clique_pendant needs r >= 2")
    return add_pendant(complete(2 * r - 1), 0)


def rK2_C6(r: int) -> Graph:
    """r disjoint edges plus a 6-cycle on the last six vertices."""
    if r < 1:
        raise GraphError("rK2_C6 needs r >= 1")
    g = from_edges(2 * r, [(2 * i, 2 * i + 1) for i in range(r)])
    return disjoint_union(g, cycle(6))


# -- registry for the command line / corpora ----------------------------

FAMILIES: dict[str, tuple] = {
    # name -> (constructor, parameter count)
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "star": (star, 1),
    "comb": (comb, 1),
    "split_extremal": (split_extremal, 2),
    "paw": (paw, 0),
    "gadget_K": (gadget_K, 0),
    "gadget_B": (gadget_B, 0),
    "gadget_H": (gadget_H, 0),
    "cubic_tree": (cubic_tree, 1),
    "G_k": (G_k, 1),
    "K_minusPM": (K_minusPM, 1),
    "twin_cliques": (twin_cliques, 1),
    "clique_pendant": (clique_pendant, 1),
    "rK2_C6": (rK2_C6, 1),
}


def build_family(name: str, params: tuple[int, ...]) -> Graph:
    if name not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise GraphError(f"unknown family {name!r}; available: {known}")
    fn, arity = FAMILIES[name]
    if len(params) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)
