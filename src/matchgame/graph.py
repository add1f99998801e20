"""Bitmask graph core.

Vertices are the integers 0..n-1 with n <= 62, so every neighbourhood,
vertex subset and component fits in a single Python int used as a bit
mask.  Graphs are immutable; all derived graphs (residuals, induced
subgraphs) relabel the surviving vertices to 0..m-1 preserving their
original relative order.  Components need no derived graph:
``component_masks(g, keep)`` returns those of g[keep] as masks of g's
own vertices, and every other component question is answered from it.

``Graph(...)`` validates its input, and so do ``from_edges`` and
``graph6.parse``, the ways a graph enters from outside.  A graph the
package derives from a valid ``Graph`` (an induced subgraph, an edge
deletion, a canonical relabelling) is valid by construction, so it is built with
``_derived``, which skips that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

MAX_VERTICES = 62

Edge = tuple[int, int]


class GraphError(ValueError):
    pass


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, adjacency as bit masks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise GraphError(f"neighbourhood of {v} mentions vertices >= {self.n}")
            if mask >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    # -- basic queries ------------------------------------------------

    def degree(self, v: int) -> int:
        return popcount(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[Edge]:
        """All edges (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            upper = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(upper):
                yield (u, v)

    @cached_property
    def edge_tuple(self) -> tuple[Edge, ...]:
        """edges() as a tuple, built once per graph object."""
        return tuple(self.edges())

    @property
    def edge_count(self) -> int:
        return sum(popcount(m) for m in self.adj) // 2

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def _derived(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph from masks derived from a valid Graph, not re-validated."""
    g = object.__new__(Graph)
    g.__dict__.update(n=n, adj=adj)
    return g


def from_edges(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a Graph from an edge list; rejects loops and out-of-range ids."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def subgraph_mask(g: Graph, keep: int) -> Graph:
    """Induced subgraph on the vertices of the bit mask ``keep``.

    Survivors are relabelled to 0..m-1 in increasing order of their
    original ids, which is the single relabelling convention used
    throughout the package.
    """
    old = list(bits(keep))
    pos = {v: i for i, v in enumerate(old)}
    adj = []
    for v in old:
        mask = 0
        for u in bits(g.adj[v] & keep):
            mask |= 1 << pos[u]
        adj.append(mask)
    return _derived(len(old), tuple(adj))


def induced_delete(g: Graph, remove: Iterable[int]) -> Graph:
    """Delete a vertex set and relabel the rest, order preserved."""
    drop = 0
    for v in remove:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} not in graph")
        drop |= 1 << v
    return subgraph_mask(g, g.vertex_mask & ~drop)

def delete_edge(g: Graph, e: Edge) -> Graph:
    """Same vertex set with one edge removed."""
    u, v = e
    if u == v or not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return _derived(g.n, tuple(adj))


def residual(g: Graph, e: Edge) -> Graph:
    """The position after playing edge e: both endpoints removed."""
    u, v = e
    if u == v or not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    return subgraph_mask(g, g.vertex_mask & ~(1 << u | 1 << v))


def component_masks(g: Graph, keep: int | None = None) -> list[int]:
    """Connected components of g[keep] as vertex masks, ordered by least vertex.

    ``keep`` defaults to every vertex of g.
    """
    adj = g.adj
    keep = g.vertex_mask if keep is None else keep
    out = []
    while keep:
        comp = frontier = keep & -keep
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & keep & ~comp
            comp |= frontier
        keep &= ~comp
        out.append(comp)
    return out


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    return [tuple(bits(comp)) for comp in component_masks(g)]


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) <= 1


def is_forest(g: Graph) -> bool:
    """Acyclic check: every component has |edges| = |vertices| - 1."""
    return g.edge_count == g.n - len(component_masks(g))


def is_star(g: Graph, comp: Iterable[int]) -> bool:
    """True if the component is K1, K2 or a star K_{1,t}.

    Equivalently: at most one vertex of the component has degree >= 2.
    The caller is expected to pass an actual component.
    """
    centres = sum(1 for v in comp if g.degree(v) >= 2)
    return centres <= 1


def is_linear_forest(g: Graph) -> bool:
    """Disjoint union of paths: acyclic with all degrees <= 2."""
    return all(g.degree(v) <= 2 for v in range(g.n)) and is_forest(g)


def split_partition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """(independent set S, clique T) if g is a split graph, else None.

    Degree-sequence criterion: with degrees d1 >= ... >= dn and m the
    largest index with d_m >= m - 1, the graph is split iff
    sum(d_i, i <= m) = m(m-1) + sum(d_i, i > m), and then the m vertices
    of highest degree form a clique with the rest independent.  The
    partition is verified before being returned.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    t = frozenset(order[:m])
    s = frozenset(order[m:])
    for u in t:
        for v in t:
            if u < v and not g.has_edge(u, v):
                return None
    for u in s:
        for v in s:
            if u < v and g.has_edge(u, v):
                return None
    return s, t


def _bfs_dist(g: Graph, inside: int, src: int) -> dict[int, int]:
    dist = {src: 0}
    frontier = 1 << src
    seen = frontier
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v] & inside
        nxt &= ~seen
        for v in bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def longest_path_in_forest(g: Graph) -> tuple[int, ...]:
    """A longest path of an acyclic graph, as a vertex sequence.

    Among all longest paths the one whose endpoint pair {a, b} is
    lexicographically least (as the sorted pair) is returned, oriented
    from its least endpoint.  An edgeless graph yields a single-vertex
    sequence (vertex 0), the empty graph an empty sequence.
    """
    if not is_forest(g):
        raise GraphError("longest_path_in_forest needs an acyclic graph")
    if g.n == 0:
        return ()
    best_len = 0
    best_pair = (0, 0)
    for comp_mask in component_masks(g):
        # breadth-first search from every vertex; components are trees,
        # so n <= 62 keeps this comfortably cheap
        for a in bits(comp_mask):
            for b, d in _bfs_dist(g, comp_mask, a).items():
                if a < b and (d > best_len or (d == best_len and (a, b) < best_pair)):
                    best_len = d
                    best_pair = (a, b)
                    comp = comp_mask
    if best_len == 0:
        return (0,)
    a, b = best_pair
    # unique tree path from a to b, recovered by walking distances down
    dist_b = _bfs_dist(g, comp, b)
    path = [a]
    cur = a
    while cur != b:
        cur = next(u for u in bits(g.adj[cur] & comp) if dist_b[u] == dist_b[cur] - 1)
        path.append(cur)
    return tuple(path)
