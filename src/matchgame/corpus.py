"""Graph corpora for invariant checking.

Sources:

* ``exhaustive:N``      every isomorphism class on exactly N vertices
                        (built-in for N <= 8 by adding a vertex of
                        maximum degree, plus certificate dedup),
* ``trees:N``           every tree class on N vertices (leaf
                        augmentation),
* ``cubic:N``           every connected cubic class on N vertices,
                        N <= 14, via 2-factor plus perfect-matching
                        assembly,
* ``family:NAME:P,...`` constructor families, each parameter an int or
                        an inclusive range LO..HI,
* ``random_forest:COUNT:MAXN[:SEED]`` seeded uniform labelled trees
                        (sequence decoding) with random edge deletions;
                        SEED is 0 when omitted,
* ``file:PATH``         graph6 lines,
* ``g6:STRING``         one literal graph6 graph,
* ``named:ID``          small fixed lists (krr_products, paw_p3).

Ranges are allowed in the N of exhaustive/trees/cubic as well.  All
sources yield deterministic item orders.  Items of the graph6-labelled
sources (all but family and named) store no label; ``CorpusItem.label``
encodes the graph when it is read.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import lru_cache

from . import graph6
from .canon import automorphism_generators, canonical_certificate
from .families import (
    FAMILIES,
    build_family,
    cartesian_product,
    complete,
    complete_bipartite,
    path,
    paw,
)
from .graph import Graph, GraphError, bits, from_edges, is_connected, popcount

EXHAUSTIVE_LIMIT = 8
CUBIC_LIMIT = 14
_CUBIC_RANGE = f"connected cubic corpus needs even 4 <= n <= {CUBIC_LIMIT}"


@dataclass(frozen=True)
class CorpusItem:
    graph: Graph
    name: str | None = None
    family: str | None = None
    params: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        """The stored name of a family or named item, else the graph's
        graph6 string, encoded on each read rather than kept."""
        return graph6.emit(self.graph) if self.name is None else self.name


# -- orbit pruning ----------------------------------------------------------


def _least_in_orbit(keys, images):
    """Yield each key that comes first in its orbit.

    ``keys`` visits a set closed under a group, and ``images(key)``
    lists the images of a key under generators of that group.  A key
    not yet met in an earlier orbit opens its own orbit, whose other
    members are then skipped when they come up.
    """
    later: set = set()
    for key in keys:
        if key in later:
            later.discard(key)
            continue
        yield key
        orbit = {key}
        stack = [key]
        while stack:
            for image in images(stack.pop()):
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        orbit.discard(key)
        later |= orbit


# -- exhaustive isomorphism classes ---------------------------------------


@lru_cache(maxsize=None)
def exhaustive_classes(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class on exactly n vertices.

    Representatives on n vertices are built by attaching a new vertex
    to subsets S of every (n-1)-vertex representative R, and only where
    the new vertex then has maximum degree.  With Delta the maximum
    degree of R, that keeps S when |S| > Delta, or when |S| = Delta and
    S holds no vertex of degree Delta (such a vertex would reach
    Delta + 1).  No class is lost: every class C has a vertex v of
    maximum degree, C - v is isomorphic to some representative R, and
    the isomorphism carries v's neighbours to a kept subset of R whose
    candidate is isomorphic to C.

    Kept subsets are visited in ascending order, and one is skipped
    unless it is the smallest in its orbit under R's automorphisms
    (isolated vertices included).  Automorphisms preserve degrees, so
    the kept subsets are a union of orbits, and the skipped subset's
    orbit holds a smaller kept one whose candidate is isomorphic and
    came first.  Certificates dedup the rest, and each class is
    represented by its first candidate (certificates ignore isolated
    vertices, which is sound here since all candidates share the same
    order).
    """
    if not 0 <= n <= EXHAUSTIVE_LIMIT:
        raise GraphError(f"exhaustive corpus built-in only for n <= {EXHAUSTIVE_LIMIT}")
    if n == 0:
        return (Graph(0, ()),)
    reps: dict[bytes, Graph] = {}
    for g in exhaustive_classes(n - 1):
        gens = automorphism_generators(g)
        delta = max(map(popcount, g.adj), default=0)
        top = sum(1 << v for v, m in enumerate(g.adj) if popcount(m) == delta)

        def images(sub: int) -> list[int]:
            return [sum(1 << p[v] for v in bits(sub)) for p in gens]

        kept = (
            sub for sub in range(1 << (n - 1))
            if popcount(sub) > delta or popcount(sub) == delta and not sub & top
        )
        for sub in _least_in_orbit(kept, images):
            adj = [m | ((sub >> v & 1) << (n - 1)) for v, m in enumerate(g.adj)]
            adj.append(sub)
            cand = Graph(n, tuple(adj))
            cert = canonical_certificate(cand)
            if cert not in reps:
                reps[cert] = cand
    return tuple(reps[c] for c in sorted(reps))


@lru_cache(maxsize=None)
def tree_classes(n: int) -> tuple[Graph, ...]:
    """One representative per tree class on n vertices (leaf growth)."""
    if n < 1:
        raise GraphError("trees need n >= 1")
    if n == 1:
        return (Graph(1, (0,)),)
    reps: dict[bytes, Graph] = {}
    for t in tree_classes(n - 1):
        for v in range(t.n):
            adj = [m | ((1 << (n - 1)) if w == v else 0) for w, m in enumerate(t.adj)]
            adj.append(1 << v)
            cand = Graph(n, tuple(adj))
            cert = canonical_certificate(cand)
            if cert not in reps:
                reps[cert] = cand
    return tuple(reps[c] for c in sorted(reps))


# -- connected cubic graphs ------------------------------------------------


def _partitions_min3(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(rest: int, biggest: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, biggest), 2, -1):
            if rest - part == 0 or rest - part >= 3:
                rec(rest - part, part, acc + [part])

    rec(n, n, [])
    return out


def _layout_generators(parts: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(perm, inverse) pairs generating the symmetries of a 2-factor layout.

    The cycles lie on consecutive labels in the order of ``parts``; the
    group is generated by one rotation and one reflection per cycle and
    by exchanging each cycle with the next one of equal length.
    """
    n = sum(parts)
    gens = []
    start = 0
    for i, length in enumerate(parts):
        rot, ref = list(range(n)), list(range(n))
        for k in range(length):
            rot[start + k] = start + (k + 1) % length
            ref[start + k] = start + (-k) % length
        gens += [rot, ref]
        if i and parts[i - 1] == length:
            swap = list(range(n))
            swap[start - length:start + length] = (
                list(range(start, start + length)) + list(range(start - length, start))
            )
            gens.append(swap)
        start += length
    return [(tuple(p), tuple(sorted(range(n), key=p.__getitem__))) for p in gens]


@lru_cache(maxsize=None)
def connected_cubic_classes(n: int) -> tuple[Graph, ...]:
    """All connected 3-regular classes on n vertices, n even, n <= 14.

    Every cubic graph on at most 14 vertices has a perfect matching
    (a cubic graph without one needs three odd pieces of at least five
    vertices hanging off a cut vertex, so 16 vertices at least), hence
    decomposes into a 2-factor plus a perfect matching.  Laying the
    2-factor out canonically as consecutive cycles and enumerating the
    compatible perfect matchings therefore reaches every class.

    The matchings of a layout are visited in ascending order of their
    partner tuples, and a matching is skipped unless it is the least
    in its orbit under the layout's symmetries (rotating or reflecting
    a cycle, exchanging two cycles of equal length): such a symmetry
    maps the 2-factor to itself and the matching to a smaller one whose
    candidate is isomorphic and came first.  The first candidate of
    each class is therefore never skipped, and the representatives are
    the ones an unpruned sweep keeps.
    """
    if n % 2 or not 4 <= n <= CUBIC_LIMIT:
        raise GraphError(_CUBIC_RANGE)
    full = (1 << n) - 1
    reps: dict[bytes, Graph] = {}
    for parts in _partitions_min3(n):
        cycle_adj = [0] * n
        start = 0
        for length in parts:
            for i in range(length):
                a = start + i
                b = start + (i + 1) % length
                cycle_adj[a] |= 1 << b
                cycle_adj[b] |= 1 << a
            start += length
        mate = [0] * n

        def matchings(covered: int):
            if covered == full:
                yield tuple(mate)
                return
            v = (~covered & (covered + 1)).bit_length() - 1
            for u in range(v + 1, n):
                if covered >> u & 1 or cycle_adj[v] >> u & 1:
                    continue
                mate[v], mate[u] = u, v
                yield from matchings(covered | 1 << v | 1 << u)

        gens = _layout_generators(parts)

        def images(m: tuple[int, ...]) -> list[tuple[int, ...]]:
            return [tuple([p[m[w]] for w in inv]) for p, inv in gens]

        for pm in _least_in_orbit(matchings(0), images):
            cand = Graph(n, tuple(a | 1 << pm[v] for v, a in enumerate(cycle_adj)))
            if not is_connected(cand):
                continue
            cert = canonical_certificate(cand)
            if cert not in reps:
                reps[cert] = cand
    return tuple(reps[c] for c in sorted(reps))


# -- random forests ---------------------------------------------------------


def _tree_from_sequence(n: int, seq: list[int]) -> Graph:
    """Classic bijective decoding of a length n-2 sequence to a tree."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((min(v, x), max(v, x)))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
    edges.append((u, v))
    return from_edges(n, edges)


def random_forests(count: int, max_n: int, seed: int) -> list[Graph]:
    """Seeded forests: uniform labelled tree, then random edge deletions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        if n <= 2:
            tree = path(n)
        else:
            tree = _tree_from_sequence(n, [rng.randrange(n) for _ in range(n - 2)])
        edges = list(tree.edges())
        drop = rng.randint(0, len(edges))
        kept = set(edges) - set(rng.sample(edges, drop)) if edges else set()
        out.append(from_edges(n, sorted(kept)))
    return out


# -- named fixed corpora -----------------------------------------------------


def _named_corpus(name: str) -> list[CorpusItem]:
    if name == "krr_products":
        items = [
            (cartesian_product(complete_bipartite(1, 1), path(2)), "K11xP2"),
            (cartesian_product(complete_bipartite(1, 1), path(3)), "K11xP3"),
            (cartesian_product(complete_bipartite(2, 2), complete(2)), "K22xK2"),
        ]
        return [CorpusItem(g, f"named:{lbl}") for g, lbl in items]
    if name == "paw_p3":
        return [CorpusItem(cartesian_product(paw(), path(3)), "named:pawxP3")]
    raise GraphError(f"unknown named corpus {name!r}; available: krr_products, paw_p3")


# -- spec parsing -------------------------------------------------------------


def _integer(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise GraphError(f"{field} {text!r} is not an integer") from None


def parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = _integer(lo, "range bound"), _integer(hi, "range bound")
        if hi_i < lo_i:
            raise GraphError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [_integer(text, "parameter")]


def family_items(name: str, param_text: str) -> list[CorpusItem]:
    if name not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise GraphError(f"unknown family {name!r}; available: {known}")
    arity = FAMILIES[name][1]
    if arity == 0:
        if param_text:
            raise GraphError(f"family {name!r} takes no parameters")
        combos: list[tuple[int, ...]] = [()]
    else:
        fields = param_text.split(",") if param_text else []
        if len(fields) != arity:
            raise GraphError(f"family {name!r} takes {arity} parameter(s)")
        combos = [()]
        for f in fields:
            combos = [c + (v,) for c in combos for v in parse_range(f)]
    out = []
    for params in combos:
        label = name if not params else f"{name}:{','.join(map(str, params))}"
        out.append(CorpusItem(build_family(name, params), label, name, params))
    return out


def corpus_from_spec(spec: str) -> list[CorpusItem]:
    kind, _, rest = spec.partition(":")
    if kind == "exhaustive":
        return [
            CorpusItem(g)
            for n in parse_range(rest)
            for g in exhaustive_classes(n)
        ]
    if kind == "trees":
        return [
            CorpusItem(g)
            for n in parse_range(rest)
            for g in tree_classes(n)
        ]
    if kind == "cubic":
        orders = [n for n in parse_range(rest) if n % 2 == 0]
        if not orders:
            raise GraphError(_CUBIC_RANGE)
        return [
            CorpusItem(g)
            for n in orders
            for g in connected_cubic_classes(n)
        ]
    if kind == "family":
        name, _, params = rest.partition(":")
        return family_items(name, params)
    if kind == "random_forest":
        fields = rest.split(":")
        if len(fields) not in (2, 3):
            raise GraphError("random_forest spec is COUNT:MAXN[:SEED]")
        count = _integer(fields[0], "random_forest COUNT")
        max_n = _integer(fields[1], "random_forest MAXN")
        seed = _integer(fields[2], "random_forest SEED") if len(fields) == 3 else 0
        return [
            CorpusItem(g)
            for g in random_forests(count, max_n, seed)
        ]
    if kind == "file":
        out = []
        with open(rest, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    g = graph6.parse(line)
                    out.append(CorpusItem(g))
        return out
    if kind == "g6":
        g = graph6.parse(rest)
        return [CorpusItem(g)]
    if kind == "named":
        return _named_corpus(rest)
    raise GraphError(
        f"unknown corpus kind {kind!r}; available: exhaustive, trees, cubic, "
        "family, random_forest, file, g6, named"
    )
