"""Exact minimax solver for the maximal-matching game.

Two players alternately add an edge disjoint from everything played so
far; the game ends when the played edges form a maximal matching.  Max
wants many edges, Min wants few.  The value of a position depends only
on the residual graph (both endpoints of every played edge deleted)
and the player to move.  ``_table(g, ...)`` values every position of g,
a mask of its vertices, for either player: ``solve`` reads it for both
starts and the ``exact`` strategy for both seats.  It has two modes:

* subset mode: one memo per player to move, keyed by the mask,
* iso mode: one memo per player to move, keyed by the sorted
  certificates of the residual's components that have an edge, so
  isomorphic residuals share one entry.  A move changes only the
  component it lands in; what it leaves of a component class is looked
  up in ``_moves``, shared by every table.  The table caches
  certificates by component mask, so an untouched component of a
  disconnected root is canonicalised once and a connected root's own
  certificate is never needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable

from . import graph6
from .canon import piece_certificate
from .graph import MAX_VERTICES, Edge, Graph, GraphError, bits, component_masks, popcount, subgraph_mask

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
    """A strategy answered with something that is not a legal move."""


@dataclass(frozen=True)
class SolveResult:
    value: int
    optimal_moves: tuple[Edge, ...]


@dataclass(frozen=True)
class GameState:
    """What a strategy sees on its turn, all in root labels.

    ``mask`` holds the root vertices that no played edge covers, and
    ``history`` the moves so far.  A strategy answers with one of
    ``moves``.  ``residual`` is ``root[mask]`` relabelled to 0..m-1, for
    strategies that run a graph algorithm on the position; ``to_root``
    maps its edges back.
    """

    root: Graph
    mask: int
    to_move: Player
    history: tuple[tuple[Edge, Player], ...] = ()

    @cached_property
    def moves(self) -> tuple[Edge, ...]:
        """The root's edges with both ends in ``mask``, sorted."""
        mask = self.mask
        return tuple(e for e in self.root.edge_tuple if mask >> e[0] & mask >> e[1] & 1)

    @cached_property
    def residual(self) -> Graph:
        return subgraph_mask(self.root, self.mask)

    def to_root(self, e: Edge) -> Edge:
        origin = tuple(bits(self.mask))
        return (origin[e[0]], origin[e[1]])


@dataclass(frozen=True)
class Transcript:
    root: Graph
    first: Player
    moves: tuple[Edge, ...]
    movers: tuple[Player, ...]

    @property
    def final_size(self) -> int:
        return len(self.moves)


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
    value = _table(g, mode, budget)
    full, after = g.vertex_mask, first.other
    values = {(u, v): 1 + value(full & ~(1 << u | 1 << v), after) for u, v in g.edges()}
    if not values:
        return SolveResult(0, ())
    opt = max(values.values()) if first is Player.MAX else min(values.values())
    moves = tuple(sorted(e for e, v in values.items() if v == opt))
    return SolveResult(opt, moves)


@lru_cache(maxsize=1)
def _table(g: Graph, mode: str, budget: int) -> Callable[[int, Player], int]:
    """``value(mask, player)``: the value of g[mask] with player to move.

    Every memo entry is exact, so the table answers any mask, for either
    player, in any order; ``budget`` caps its entries, both players
    together.  Callers solve both starts, or play, on the graph they have
    just solved, so one cached table serves them and keeps a sweep's
    memory flat.
    """
    if mode == "subset":
        return _subset_table(g, budget)
    if mode == "iso":
        return _iso_table(g, budget)
    raise GraphError(f"unknown solve mode {mode!r}")


def _subset_table(g: Graph, budget: int) -> Callable[[int, Player], int]:
    """Memos keyed by mask, one per player to move.

    A move is the edge mask ``1 << u | 1 << v`` of the root, legal where
    both bits are set.  The memo is probed before each recursive call,
    and a loop stops at a value no move can beat: ``popcount(mask) // 2``
    for the maximiser, 1 for the minimiser.
    """
    moves = [1 << u | 1 << v for u, v in g.edges()]
    max_memo: dict[int, int] = {}
    min_memo: dict[int, int] = {}
    max_probe, min_probe = max_memo.get, min_memo.get

    def search_max(mask: int) -> int:
        best, cap = 0, popcount(mask) // 2
        for e in moves:
            if mask & e == e:
                val = min_probe(mask ^ e)
                if val is None:
                    val = search_min(mask ^ e)
                if val >= best:
                    best = val + 1
                    if best == cap:
                        break
        if len(max_memo) + len(min_memo) >= budget:
            raise MemoBudgetError(f"memo table exceeded {budget} entries")
        max_memo[mask] = best
        return best

    def search_min(mask: int) -> int:
        k = popcount(mask)
        best = k  # above any value: k >= 1 vertices hold <= k // 2 edges
        for e in moves:
            if mask & e == e:
                val = max_probe(mask ^ e)
                if val is None:
                    val = search_max(mask ^ e)
                if val + 1 < best:
                    best = val + 1
                    if best == 1:
                        break
        if best == k:
            best = 0
        if len(max_memo) + len(min_memo) >= budget:
            raise MemoBudgetError(f"memo table exceeded {budget} entries")
        min_memo[mask] = best
        return best

    def value(mask: int, player: Player) -> int:
        if player is Player.MAX:
            hit = max_probe(mask)
            return search_max(mask) if hit is None else hit
        hit = min_probe(mask)
        return search_min(mask) if hit is None else hit

    return value


def _pieces(g: Graph, keep: int, certs: dict[int, bytes]) -> tuple[bytes, ...]:
    """Sorted certificates of the components of g[keep] that have an edge.

    ``certs`` caches them by component mask.
    """
    out = []
    for comp in component_masks(g, keep):
        if comp & (comp - 1):
            if comp not in certs:
                certs[comp] = piece_certificate(g, comp)
            out.append(certs[comp])
    return tuple(sorted(out))


@lru_cache(maxsize=1 << 16)
def _moves(cert: bytes) -> tuple[tuple[bytes, ...], ...]:
    """The distinct piece tuples a move leaves of one component class."""
    g = graph6.parse(cert.decode("ascii"))
    certs: dict[int, bytes] = {}
    return tuple(sorted(
        {_pieces(g, g.vertex_mask & ~(1 << u | 1 << v), certs) for u, v in g.edges()}
    ))


def _iso_table(g: Graph, budget: int) -> Callable[[int, Player], int]:
    """Memos keyed by the iso key of a position, one per player to move.

    The key is the sorted tuple of piece certificates.  The empty key is
    the finished game, worth 0, and has no entry.  As in subset mode,
    the child's memo is probed before each recursive call.
    """
    certs: dict[int, bytes] = {}
    max_memo: dict[tuple[bytes, ...], int] = {}
    min_memo: dict[tuple[bytes, ...], int] = {}
    max_probe, min_probe = max_memo.get, min_memo.get

    def search_max(key: tuple[bytes, ...]) -> int:
        best = 0
        for i, comp in enumerate(key):
            if i and key[i - 1] == comp:
                continue
            rest = key[:i] + key[i + 1:]
            for pieces in _moves(comp):
                child = tuple(sorted(rest + pieces))
                val = min_probe(child)
                if val is None:
                    val = search_min(child) if child else 0
                if val >= best:
                    best = val + 1
        if len(max_memo) + len(min_memo) >= budget:
            raise MemoBudgetError(f"memo table exceeded {budget} entries")
        max_memo[key] = best
        return best

    def search_min(key: tuple[bytes, ...]) -> int:
        best = MAX_VERTICES  # above any value: a game on n vertices plays <= n // 2 edges
        for i, comp in enumerate(key):
            if i and key[i - 1] == comp:
                continue
            rest = key[:i] + key[i + 1:]
            for pieces in _moves(comp):
                child = tuple(sorted(rest + pieces))
                val = max_probe(child)
                if val is None:
                    val = search_max(child) if child else 0
                if val + 1 < best:
                    best = val + 1
        if len(max_memo) + len(min_memo) >= budget:
            raise MemoBudgetError(f"memo table exceeded {budget} entries")
        min_memo[key] = best
        return best

    def value(mask: int, player: Player) -> int:
        key = _pieces(g, mask, certs)
        if not key:
            return 0
        if player is Player.MAX:
            hit = max_probe(key)
            return search_max(key) if hit is None else hit
        hit = min_probe(key)
        return search_min(key) if hit is None else hit

    return value


def game_values(g: Graph, mode: str = "subset", budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(Max-start value, Min-start value)."""
    return (
        solve(g, Player.MAX, mode=mode, budget=budget).value,
        solve(g, Player.MIN, mode=mode, budget=budget).value,
    )


def play(g: Graph, first: Player, strat_first, strat_second) -> Transcript:
    """Run one game; each strategy answers with one of ``state.moves``.

    An answer that is not a legal move, in either orientation, forfeits
    with StrategyForfeit.  The played edges are the root's own edge
    tuples, pairwise disjoint, and form a maximal matching of the root
    graph when the loop ends.
    """
    seats = {first: strat_first, first.other: strat_second}
    for strat in {id(s): s for s in seats.values()}.values():
        strat.reset(g)
    mask = g.vertex_mask
    history: list[tuple[Edge, Player]] = []
    player = first
    while True:
        state = GameState(g, mask, player, tuple(history))
        moves = state.moves
        if not moves:
            break
        answer = seats[player].choose(state)
        try:
            u, v = answer
            move = moves[moves.index((min(u, v), max(u, v)))]
        except (TypeError, ValueError):
            raise StrategyForfeit(
                f"{seats[player].name} returned {answer!r}, not a legal edge"
            ) from None
        history.append((move, player))
        mask &= ~(1 << move[0] | 1 << move[1])
        player = player.other
    return Transcript(
        root=g,
        first=first,
        moves=tuple(e for e, _ in history),
        movers=tuple(p for _, p in history),
    )
