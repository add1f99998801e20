import math
import random

import pytest

from matchgame.families import comb, complete, cycle, disjoint_union, path, star
from matchgame import canon, solver
from matchgame.graph import GraphError, from_edges, is_connected, popcount, residual, subgraph_mask
from matchgame.solver import (
    GameState,
    MemoBudgetError,
    Player,
    SolveResult,
    StrategyForfeit,
    Transcript,
    _moves,
    _table,
    game_values,
    play,
    solve,
)
from matchgame.strategies import Strategy, make_strategy
from oracles import brute_game_value, permuted, random_graph, solve_naive

MAX, MIN = Player.MAX, Player.MIN


def test_known_values():
    assert game_values(cycle(6)) == (2, 3)
    assert game_values(path(4)) == (2, 1)
    assert game_values(complete(4)) == (2, 2)
    assert game_values(star(5)) == (1, 1)
    assert game_values(path(7))[0] == 3
    assert solve(comb(1), MAX).value == 3


def test_edgeless_value_zero():
    g = from_edges(3, [])
    for player in (MAX, MIN):
        assert solve(g, player) == SolveResult(0, ())
        assert solve(g, player, mode="iso") == SolveResult(0, ())
        assert solve_naive(g, player) == SolveResult(0, ())


def test_optimal_moves_examples():
    # P4: Max takes an end edge, Min kills both with the middle edge
    assert solve(path(4), MAX).optimal_moves == ((0, 1), (2, 3))
    assert solve(path(4), MIN).optimal_moves == ((1, 2),)
    # C6 is edge-transitive so every move is optimal
    assert solve(cycle(6), MAX).optimal_moves == tuple(cycle(6).edges())


def test_player_enum():
    assert MAX.other is MIN and MIN.other is MAX
    assert str(MAX) == "max" and str(MIN) == "min"


def test_unknown_mode():
    with pytest.raises(GraphError, match="mode"):
        solve(path(3), MAX, mode="fast")


def test_modes_and_oracles_agree(classes_le6):
    for g in classes_le6:
        for player in (MAX, MIN):
            subset = solve(g, player)
            iso = solve(g, player, mode="iso")
            naive = solve_naive(g, player)
            assert subset == naive == iso
            assert subset.value == brute_game_value(g, player is MAX)


def test_subset_matches_naive_on_random_graphs():
    rng = random.Random(17)
    for _ in range(12):
        g = random_graph(rng, 9, 0.4)
        for player in (MAX, MIN):
            assert solve(g, player) == solve_naive(g, player)


def _union(*graphs):
    g = from_edges(0, [])
    for h in graphs:
        g = disjoint_union(g, h)
    return g


def _disconnected_cases():
    rng = random.Random(31)
    cases = [
        _union(path(4), path(4), cycle(5), from_edges(1, [])),  # 2*P4 + C5 + K1
        _union(complete(3), complete(3), complete(3)),  # 3*K3
    ]
    while len(cases) < 32:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        if sizes[0] + sum(sizes) <= 11:
            part = random_graph(rng, sizes[0], 0.6)
            # repeat one part so isomorphic components meet in one key
            cases.append(_union(part, *(random_graph(rng, k, 0.6) for k in sizes[1:]), part))
    return cases


def _connected_cases():
    rng = random.Random(43)
    cases = [cycle(n) for n in range(5, 13)]
    for n in (8, 9, 10):
        drawn = 0
        while drawn < 4:
            g = random_graph(rng, n, 0.35)
            if is_connected(g):
                cases.append(g)
                drawn += 1
    return cases


def test_iso_keying_matches_subset():
    for g in _disconnected_cases() + _connected_cases():
        for player in (MAX, MIN):
            assert solve(g, player, mode="iso") == solve(g, player)


def test_iso_root_is_canonicalised_once_per_graph(monkeypatch):
    # every certificate the solver computes, by the order of its graph:
    # pieces enter through piece_certificate, and those with a cycle go
    # on to canonical_certificate
    real_piece, real_cert = solver.piece_certificate, canon.canonical_certificate
    for g in (comb(2), _union(path(4), cycle(5), path(4))):
        _table.cache_clear()
        _moves.cache_clear()
        calls = []
        monkeypatch.setattr(
            solver, "piece_certificate",
            lambda h, comp: calls.append(popcount(comp)) or real_piece(h, comp),
        )
        monkeypatch.setattr(canon, "canonical_certificate", lambda h: calls.append(h.n) or real_cert(h))
        want = solve(g, MIN, mode="iso")
        assert calls
        if is_connected(g):
            # a connected root's own certificate is never needed
            assert all(k < g.n for k in calls)
        calls.clear()
        solve(g, MAX, mode="iso")
        assert solve(g, MIN, mode="iso") == want
        assert calls == []


def test_iso_value_invariant_under_relabelling():
    rng = random.Random(5)
    for g in _disconnected_cases()[:6] + [comb(2), cycle(9)]:
        want = (solve(g, MAX, mode="iso").value, solve(g, MIN, mode="iso").value)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = permuted(g, perm)
            assert (solve(h, MAX, mode="iso").value, solve(h, MIN, mode="iso").value) == want


def test_iso_move_table_is_bounded_and_clearable():
    for table in (_moves, _table):
        solve(path(8), MAX, mode="iso")
        info = table.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
        table.cache_clear()
        assert table.cache_info().currsize == 0
        assert solve(path(8), MAX, mode="iso").value == 3


def _check_iso_path_max(ns):
    for n in ns:
        mx = solve(path(n), MAX, mode="iso").value
        assert 3 * (n // 7) <= mx <= 3 * math.ceil(n / 7), f"P_{n}: Max={mx}"
        if n % 7 == 0:
            assert mx == 3 * (n // 7), f"P_{n}: Max={mx}"


def test_iso_path_table_beyond_gate_two():
    _check_iso_path_max(range(29, 43))


@pytest.mark.slow
def test_iso_path_table_to_56():
    # equality at n = 49 and 56
    _check_iso_path_max(range(43, 57))


def test_one_move_recursion():
    rng = random.Random(7)
    graphs = [cycle(5), path(6), complete(4)] + [
        random_graph(rng, rng.randint(2, 7), 0.5) for _ in range(25)
    ]
    for g in graphs:
        for player in (MAX, MIN):
            per_edge = [
                1 + solve(residual(g, e), player.other).value for e in g.edges()
            ]
            if not per_edge:
                continue
            want = max(per_edge) if player is MAX else min(per_edge)
            assert solve(g, player).value == want


def test_memo_budget():
    for mode in ("subset", "iso"):
        with pytest.raises(MemoBudgetError):
            solve(cycle(12), MAX, mode=mode, budget=2)
    # generous budget on the same input stays silent
    assert (
        solve(cycle(12), MAX, budget=1 << 20).value
        == solve(cycle(12), MAX, mode="iso").value
        == 5
    )
    # the budget caps one graph's table, both players together; fits is
    # the least budget of a Max solve of C12 from a cold table
    for mode, fits in (("subset", 318), ("iso", 18)):
        _table.cache_clear()
        with pytest.raises(MemoBudgetError):
            solve(cycle(12), MAX, mode=mode, budget=fits - 1)
        _table.cache_clear()
        assert solve(cycle(12), MAX, mode=mode, budget=fits).value == 5
        with pytest.raises(MemoBudgetError):
            solve(cycle(12), MIN, mode=mode, budget=fits)
        _table.cache_clear()
        assert solve(cycle(12), MIN, mode=mode, budget=fits).value == 5


def test_gamestate_coordinate_maps():
    g = cycle(6)
    mask = g.vertex_mask & ~0b11  # vertices 0 and 1 covered
    state = GameState(g, mask, MIN)
    assert state.moves == ((2, 3), (3, 4), (4, 5))
    assert all(e is f for e, f in zip(state.moves, g.edge_tuple[3:]))
    assert state.residual == subgraph_mask(g, mask) == path(4)
    assert [state.to_root(e) for e in state.residual.edges()] == list(state.moves)


class _Recording(Strategy):
    """Checks and records each position it is shown.

    The checks run inside the game, so a position that fails them stops
    the game at once instead of letting it run on.
    """

    name = "recording"

    def __init__(self, inner: Strategy) -> None:
        self.inner = inner
        self.states: list[GameState] = []

    def reset(self, root) -> None:
        super().reset(root)
        self.inner.reset(root)
        self.states = []

    def choose(self, state: GameState):
        # the mask holds exactly the root vertices no played edge covers,
        # and the moves are the root edges between them
        gone = sum(1 << v for e, _ in state.history for v in e)
        assert state.mask == self.root.vertex_mask & ~gone
        assert state.moves == tuple(e for e in self.root.edges() if not gone & (1 << e[0] | 1 << e[1]))
        self.states.append(state)
        return self.inner.choose(state)


class _Scripted(Strategy):
    """Gives its answers in turn, then the least legal move."""

    name = "scripted"

    def __init__(self, *answers) -> None:
        self.answers = list(answers)

    def choose(self, state: GameState):
        return self.answers.pop(0) if self.answers else state.moves[0]


def _is_maximal_root_matching(g, moves) -> bool:
    from matchgame.matching import is_maximal
    from oracles import validate_matching

    m = frozenset(moves)
    validate_matching(g, m)
    return is_maximal(g, m)


def test_play_exact_matches_solve():
    for g in (cycle(6), path(7), complete(4), comb(1)):
        for first in (MAX, MIN):
            t = play(g, first, make_strategy("exact"), make_strategy("exact"))
            assert isinstance(t, Transcript)
            assert t.final_size == solve(g, first).value
            assert t.movers[0] is first
            assert all(a is b.other for a, b in zip(t.movers, t.movers[1:]))
            assert _is_maximal_root_matching(g, t.moves)


def test_play_records_history_in_root_ids():
    rec = _Recording(make_strategy("greedy_first"))
    t = play(cycle(6), MAX, rec, make_strategy("exact"))
    assert _is_maximal_root_matching(cycle(6), t.moves)
    for i, state in enumerate(rec.states):
        assert state.to_move is MAX
        assert tuple(e for e, _ in state.history) == t.moves[: 2 * i]


def test_play_edgeless_is_empty():
    t = play(from_edges(4, []), MAX, make_strategy("exact"), make_strategy("exact"))
    assert t.moves == () and t.movers == () and t.final_size == 0


def test_play_shared_strategy_object():
    strat = make_strategy("greedy_first")
    t = play(cycle(6), MIN, strat, strat)
    assert _is_maximal_root_matching(cycle(6), t.moves)


@pytest.mark.parametrize("answers, played", [
    pytest.param((None,), None, id="none"),
    pytest.param(((0,),), None, id="one-end"),
    pytest.param(((0, 1, 2),), None, id="three-ends"),
    pytest.param(((0, 0),), None, id="loop"),
    pytest.param(((7, 8),), None, id="outside"),
    # (1, 2) is a root edge, but the opening (0, 1) covered vertex 1
    pytest.param(((0, 1), (1, 2)), None, id="covered"),
    pytest.param(((1, 0),), (0, 1), id="reversed"),
    pytest.param(([0, 1],), (0, 1), id="list"),
])
def test_forfeit_names_the_strategy(answers, played):
    g = cycle(6)
    scripted = _Scripted(*answers)
    if played is None:
        with pytest.raises(StrategyForfeit, match=r"^scripted returned .*, not a legal edge$"):
            play(g, MAX, scripted, scripted)
    else:
        t = play(g, MAX, scripted, scripted)
        assert t.moves[0] == played and t.moves[0] is g.edge_tuple[0]
        assert _is_maximal_root_matching(g, t.moves)


def test_transcripts_stay_within_trivial_bounds(classes_le5):
    from matchgame.matching import matching_number, min_maximal_number

    for g in classes_le5:
        for first in (MAX, MIN):
            t = play(g, first, make_strategy("exact"), make_strategy("exact"))
            assert min_maximal_number(g) <= t.final_size <= matching_number(g)


def test_transcripts_of_one_graph_share_edge_objects():
    g = cycle(8)
    a = play(g, MAX, make_strategy("exact"), make_strategy("exact"))
    b = play(g, MAX, make_strategy("exact"), make_strategy("exact"))
    assert a.moves == b.moves
    assert all(x is y for x, y in zip(a.moves, b.moves))
