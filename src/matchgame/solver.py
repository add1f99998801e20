"""Exact minimax solver for the maximal-matching game.

Two players alternately add an edge disjoint from everything played so
far; the game ends when the played edges form a maximal matching.  Max
wants many edges, Min wants few.  The value of a position depends only
on the residual graph (both endpoints of every played edge deleted)
and the player to move, which is what both memoisation modes exploit:

* subset mode: positions are vertex subsets of the fixed root graph;
  the player to move is implied by parity, so masks alone are keys,
* iso mode: positions are sorted tuples of the canonical certificates
  of the residual's components that have an edge, so isomorphic
  residuals share one entry and the key carries the player explicitly.
  A move changes only the component it lands in; what it leaves of a
  component class is looked up in ``_moves``, shared by every solve.
  The labelled root is canonicalised once per graph, not once per
  player: ``_iso_root`` keeps each root edge with the key it leaves,
  and the other player's solve of an equal graph reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import graph6
from .canon import canonical_certificate
from .graph import Edge, Graph, GraphError, bits, popcount, subgraph_mask

DEFAULT_BUDGET = 1 << 26


class Player(Enum):
    MAX = "max"
    MIN = "min"

    @property
    def other(self) -> "Player":
        return Player.MIN if self is Player.MAX else Player.MAX

    def __str__(self) -> str:
        return self.value


class MemoBudgetError(RuntimeError):
    """The memo table exceeded its configured entry cap."""


class StrategyForfeit(RuntimeError):
    """A strategy returned a move that is not a residual edge."""


@dataclass(frozen=True)
class SolveResult:
    value: int
    optimal_moves: tuple[Edge, ...]


@dataclass(frozen=True)
class GameState:
    """What a strategy sees on its turn.

    ``origin[i]`` is the root id of residual vertex i; ``history`` holds
    all moves so far in root coordinates.
    """

    residual: Graph
    to_move: Player
    origin: tuple[int, ...]
    history: tuple[tuple[Edge, Player], ...] = ()

    def to_root(self, e: Edge) -> Edge:
        u, v = self.origin[e[0]], self.origin[e[1]]
        return (min(u, v), max(u, v))

    def to_residual(self, e: Edge) -> Edge:
        pos = {r: i for i, r in enumerate(self.origin)}
        u, v = pos[e[0]], pos[e[1]]
        return (min(u, v), max(u, v))


@dataclass(frozen=True)
class Transcript:
    root: Graph
    first: Player
    moves: tuple[Edge, ...]
    movers: tuple[Player, ...]

    @property
    def final_size(self) -> int:
        return len(self.moves)


def _mask_edges(adj: tuple[int, ...], mask: int):
    for u in bits(mask):
        for v in bits(adj[u] & ((mask >> (u + 1)) << (u + 1))):
            yield u, v


def solve(
    g: Graph,
    first: Player,
    mode: str = "subset",
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """Game value and the set of optimal first moves for ``first``.

    The root is always evaluated child by child so optimal_moves is the
    full argmax/argmin set, sorted.
    """
    if mode == "subset":
        child_value = _subset_child_fn(g, first, budget)
        values = {
            (u, v): 1 + child_value(g.vertex_mask & ~(1 << u | 1 << v))
            for u, v in g.edges()
        }
    elif mode == "iso":
        child_value = _iso_child_fn(budget)
        values = {e: 1 + child_value(key, first.other) for e, key in _iso_root(g)}
    else:
        raise GraphError(f"unknown solve mode {mode!r}")
    if not values:
        return SolveResult(0, ())
    opt = max(values.values()) if first is Player.MAX else min(values.values())
    moves = tuple(sorted(e for e, v in values.items() if v == opt))
    return SolveResult(opt, moves)


def _subset_child_fn(g: Graph, first: Player, budget: int):
    """Value of a position of g, given as the mask of the vertices left.

    A move is the edge mask ``1 << u | 1 << v`` of the root, legal where
    both bits are set.  The memo is probed before each recursive call,
    and a loop stops at a value no move can beat: ``popcount(mask) // 2``
    for the maximiser, 1 for the minimiser.  Every memo entry is exact,
    so the returned function can be asked any mask of g, in any order.
    """
    n = g.n
    moves = [1 << u | 1 << v for u, v in g.edges()]
    memo: dict[int, int] = {}
    probe = memo.get
    # the maximiser moves where (n - popcount(mask)) % 4 is this
    max_phase = 0 if first is Player.MAX else 2

    def search(mask: int) -> int:
        k = popcount(mask)
        if (n - k) % 4 == max_phase:
            best, cap = 0, k // 2
            for e in moves:
                if mask & e == e:
                    val = probe(mask ^ e)
                    if val is None:
                        val = search(mask ^ e)
                    if val >= best:
                        best = val + 1
                        if best == cap:
                            break
        else:
            best = k  # above any value: k >= 1 vertices hold <= k // 2 edges
            for e in moves:
                if mask & e == e:
                    val = probe(mask ^ e)
                    if val is None:
                        val = search(mask ^ e)
                    if val + 1 < best:
                        best = val + 1
                        if best == 1:
                            break
            if best == k:
                best = 0
        if len(memo) >= budget:
            raise MemoBudgetError(f"memo table exceeded {budget} entries")
        memo[mask] = best
        return best

    def value(mask: int) -> int:
        hit = probe(mask)
        return search(mask) if hit is None else hit

    return value


def _split(adj: tuple[int, ...], keep: int):
    """Masks of the connected components of keep that have an edge."""
    while keep:
        comp = frontier = keep & -keep
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & keep & ~comp
            comp |= frontier
        keep &= ~comp
        if comp & (comp - 1):
            yield comp


def _pieces(g: Graph, keep: int) -> tuple[bytes, ...]:
    """Sorted certificates of the components of g[keep] that have an edge."""
    return tuple(sorted(
        canonical_certificate(subgraph_mask(g, c)) for c in _split(g.adj, keep)
    ))


@lru_cache(maxsize=1 << 16)
def _moves(cert: bytes) -> tuple[tuple[bytes, ...], ...]:
    """The distinct piece tuples a move leaves of one component class."""
    g = graph6.parse(cert.decode("ascii"))
    return tuple(sorted(
        {_pieces(g, g.vertex_mask & ~(1 << u | 1 << v)) for u, v in g.edges()}
    ))


@lru_cache(maxsize=1 << 10)
def _iso_root(g: Graph) -> tuple[tuple[Edge, tuple[bytes, ...]], ...]:
    """Each edge of the labelled root g, with the iso key it leaves.

    Callers that want both values (``game_values``, ``table``, ``verify``,
    ``solve --cache``) solve the second player right after the first, so
    a small bound keeps those hits and keeps a long sweep's memory flat.
    """
    comps = list(_split(g.adj, g.vertex_mask))
    # a root edge changes only its own component; the others are the
    # rest of the key, and a connected root has no others
    certs = (
        [canonical_certificate(subgraph_mask(g, c)) for c in comps]
        if len(comps) > 1 else []
    )
    out = []
    for i, comp in enumerate(comps):
        rest = tuple(certs[:i] + certs[i + 1:])
        for u, v in _mask_edges(g.adj, comp):
            out.append(((u, v), tuple(sorted(rest + _pieces(g, comp & ~(1 << u | 1 << v))))))
    return tuple(out)


def _iso_child_fn(budget: int):
    memo: dict[tuple[tuple[bytes, ...], Player], int] = {}

    def value(key: tuple[bytes, ...], player: Player) -> int:
        if not key:
            return 0
        hit = memo.get((key, player))
        if hit is not None:
            return hit
        maximising = player is Player.MAX
        best = None
        for i, comp in enumerate(key):
            if i and key[i - 1] == comp:
                continue
            rest = key[:i] + key[i + 1:]
            for pieces in _moves(comp):
                val = 1 + value(tuple(sorted(rest + pieces)), player.other)
                if best is None or (val > best if maximising else val < best):
                    best = val
        if len(memo) >= budget:
            raise MemoBudgetError(f"memo table exceeded {budget} entries")
        memo[(key, player)] = best
        return best

    return value


def game_values(g: Graph, mode: str = "subset", budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(Max-start value, Min-start value)."""
    return (
        solve(g, Player.MAX, mode=mode, budget=budget).value,
        solve(g, Player.MIN, mode=mode, budget=budget).value,
    )


def play(g: Graph, first: Player, strat_first, strat_second) -> Transcript:
    """Run one game; strategies are asked for residual-coordinate edges.

    A strategy returning anything but an edge of the current residual
    forfeits with StrategyForfeit.  The move list is kept in root
    coordinates, so the played edges are pairwise disjoint and form a
    maximal matching of the root graph when the loop ends.
    """
    seats = {first: strat_first, first.other: strat_second}
    for strat in {id(s): s for s in seats.values()}.values():
        strat.reset(g)
    # moves are the root's own edge tuples, so transcripts of one graph
    # share their edges instead of holding copies
    root_edges = {e: e for e in g.edge_tuple}
    mask = g.vertex_mask
    history: list[tuple[Edge, Player]] = []
    player = first
    while True:
        residual = subgraph_mask(g, mask)
        if residual.edge_count == 0:
            break
        origin = tuple(bits(mask))
        state = GameState(residual, player, origin, tuple(history))
        move = seats[player].choose(state)
        u, v = move
        if not (0 <= u < residual.n and 0 <= v < residual.n) or not residual.has_edge(u, v):
            raise StrategyForfeit(
                f"{seats[player].name} returned {move!r}, not a residual edge"
            )
        root_edge = root_edges[state.to_root((min(u, v), max(u, v)))]
        history.append((root_edge, player))
        mask &= ~(1 << root_edge[0] | 1 << root_edge[1])
        player = player.other
    return Transcript(
        root=g,
        first=first,
        moves=tuple(e for e, _ in history),
        movers=tuple(p for _, p in history),
    )
