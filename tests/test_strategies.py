import itertools
import math
import random

import pytest

from matchgame.families import (
    G_k,
    comb,
    complete,
    cycle,
    disjoint_union,
    gk_block_copies,
    path,
    paw,
    split_extremal,
)
from matchgame.graph import GraphError, from_edges, is_forest
from matchgame.matching import is_maximal, matching_number, min_maximal_number
from matchgame.solver import GameState, Player, _table, game_values, play, solve
from matchgame.strategies import STRATEGIES, MinCombStrategy, Strategy, make_strategy
from oracles import all_matchings, random_graph

MAX, MIN = Player.MAX, Player.MIN


def _state(g, player, history=()):
    return GameState(g, g.vertex_mask, player, tuple(history))


def _first_choice(name, g, player, **kw):
    strat = make_strategy(name, **kw)
    strat.reset(g)
    return strat.choose(_state(g, player))


def test_first_moves_frozen():
    assert _first_choice("greedy_first", path(4), MAX) == (0, 1)
    assert _first_choice("max_greedy_matching", path(4), MAX) == (0, 1)
    assert _first_choice("min_small_maximal", path(4), MIN) == (1, 2)
    assert _first_choice("max_forest", path(4), MAX) == (2, 3)
    assert _first_choice("min_path", path(5), MIN) == (1, 2)
    assert _first_choice("max_path", path(5), MAX) == (2, 3)
    assert _first_choice("max_mindeg", complete(4), MAX) == (0, 1)
    assert _first_choice("exact", path(4), MIN) == (1, 2)


def test_max_mindeg_followup_takes_low_degree_vertex():
    strat = make_strategy("max_mindeg")
    strat.reset(paw())
    state = _state(paw(), MAX, history=(((8, 9), MIN),))
    assert strat.choose(state) == (2, 3)  # 3 is the only degree-1 vertex


def test_max_greedy_skips_non_matching_edge():
    # P4 relabelled as 2-0-1-3 so its middle edge is lexicographically
    # least; that edge lies in no maximum matching and must be skipped
    g = from_edges(4, [(0, 1), (0, 2), (1, 3)])
    assert matching_number(g) == 2
    assert _first_choice("max_greedy_matching", g, MAX) == (0, 2)


def test_min_comb_answers_centre_of_other_copy():
    g = comb(1)
    strat = MinCombStrategy()
    strat.reset(g)
    assert strat.copies == [(4, 0, 1, 5), (6, 2, 3, 7)]
    # after Max plays (0,1): vertices 2..7 remain
    state = GameState(g, g.vertex_mask & ~0b11, MIN, history=(((0, 1), MAX),))
    assert strat.choose(state) == (2, 3)


def test_min_comb_join_move_answers_at_leaf():
    g = comb(1)
    strat = MinCombStrategy()
    strat.reset(g)
    # (1,2) joins the two copies; the reply must cover a surviving leaf
    # of those copies in root ids
    state = GameState(g, g.vertex_mask & ~0b110, MIN, history=(((1, 2), MAX),))
    move = strat.choose(state)
    assert move in state.moves and set(move) & {4, 5, 6, 7}


def test_min_gk_blocked_edges_match_block_pm_oracle():
    for k in (0, 1):
        for c in gk_block_copies(k):
            order = sorted(c.vertices)
            pos = {v: i for i, v in enumerate(order)}
            block = from_edges(
                len(order), sorted((pos[u], pos[v]) for u, v in c.edges)
            )
            pms = [m for m in all_matchings(block) if len(m) == 3]
            assert pms, "every block graph has a perfect matching"
            in_pm = {e for m in pms for e in m}
            blocked = {
                (order[u], order[v])
                for u, v in set(block.edges()) - in_pm
            }
            assert blocked == set(c.f_edges)
            assert len(c.f_edges) == 3


def test_domain_errors():
    with pytest.raises(GraphError, match="split"):
        make_strategy("min_split").reset(cycle(5))
    with pytest.raises(GraphError, match="forest"):
        strat = make_strategy("max_forest")
        strat.reset(cycle(3))
        strat.choose(_state(cycle(3), MAX))
    with pytest.raises(GraphError):
        make_strategy("min_comb").reset(path(3))
    with pytest.raises(GraphError, match="G_k"):
        make_strategy("min_gk").reset(complete(4))
    with pytest.raises(GraphError, match="available"):
        make_strategy("does_not_exist")


def test_random_strategy_is_seeded_and_replayable():
    a = make_strategy("random", seed=11)
    t1 = play(complete(6), MAX, a, a)
    t2 = play(complete(6), MAX, a, a)
    assert t1 == t2
    b = make_strategy("random", seed=12)
    outcomes = {play(complete(6), MAX, make_strategy("random", seed=s), b).moves
                for s in range(6)}
    assert len(outcomes) > 1


def _assert_legal_games(g, name, seat, opponents, seeds=(0, 1, 2)):
    strat = make_strategy(name)
    for opp_name in opponents:
        for s in seeds:
            opp = make_strategy(opp_name, seed=s)
            for first in (MAX, MIN):
                if first is seat:
                    t = play(g, first, strat, opp)
                else:
                    t = play(g, first, opp, strat)
                m = frozenset(t.moves)
                assert is_maximal(g, m) and len(m) == t.final_size


def test_strategies_always_play_legal_moves():
    rng = random.Random(3)
    hosts = [random_graph(rng, rng.randint(2, 8), 0.4) for _ in range(8)]
    for g in hosts:
        for name in ("greedy_first", "max_greedy_matching", "min_small_maximal",
                     "max_mindeg", "exact", "random"):
            _assert_legal_games(g, name, MAX, ("random",), seeds=(0, 1))
    for g in [comb(1), comb(2)]:
        _assert_legal_games(g, "min_comb", MIN, ("random", "greedy_first"), seeds=(0,))
    for n in (5, 8, 11):
        _assert_legal_games(path(n), "min_path", MIN, ("random",), seeds=(0, 1))
        _assert_legal_games(path(n), "max_path", MAX, ("random",), seeds=(0, 1))
    for n in (6, 8):
        _assert_legal_games(split_extremal(n, 1), "min_split", MIN, ("random",), seeds=(0, 1))
    _assert_legal_games(G_k(0), "min_gk", MIN, ("random", "greedy_first"), seeds=(0,))


def test_max_forest_plays_legally_on_forests():
    rng = random.Random(5)
    count = 0
    while count < 40:
        g = random_graph(rng, rng.randint(2, 9), 0.25)
        if not is_forest(g) or g.edge_count == 0:
            continue
        count += 1
        for first in (MAX, MIN):
            t = play(g, first, make_strategy("max_forest"), make_strategy("random", seed=count))
            assert is_maximal(g, frozenset(t.moves))
            # the forest guarantee: at least three quarters of alpha'
            assert 4 * t.final_size >= 3 * matching_number(g)


def test_guarantees_on_small_classes(classes_le6):
    for g in classes_le6:
        if g.edge_count == 0:
            continue
        alpha = matching_number(g)
        mu = min_maximal_number(g)
        opponents = [make_strategy("exact"), make_strategy("random", seed=4)]
        for opp in opponents:
            t = play(g, MAX, make_strategy("max_greedy_matching"), opp)
            assert 3 * t.final_size >= 2 * alpha
            t = play(g, MIN, make_strategy("min_small_maximal"), opp)
            assert 2 * t.final_size <= 3 * mu


def test_path_strategies_meet_path_bounds():
    for n in range(2, 15):
        g = path(n)
        t = play(g, MAX, make_strategy("exact"), make_strategy("min_path"))
        assert t.final_size <= 3 * math.ceil(n / 7)
        t = play(g, MIN, make_strategy("exact"), make_strategy("max_path"))
        assert t.final_size >= 3 * (n // 7)


def test_min_split_near_optimal_on_extremal_split_graphs():
    for n in (6, 7):
        g = split_extremal(n, 1)
        exact = solve(g, MIN).value
        t = play(g, MIN, make_strategy("min_split"), make_strategy("exact"))
        assert t.final_size <= exact + 2


def test_registry_names_match_instances():
    for name, cls in STRATEGIES.items():
        assert cls.name == name
        strat = make_strategy(name, seed=9)
        assert strat.name == name


class _PerTurnExact(Strategy):
    """Reference: the least optimal move of a fresh solve each turn."""

    name = "per_turn_exact"

    def __init__(self, mode="subset"):
        self.mode = mode

    def choose(self, state):
        return state.to_root(solve(state.residual, state.to_move, mode=self.mode).optimal_moves[0])


def _seeded_graphs(seed, count, sizes=(2, 10)):
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(*sizes), rng.choice((0.3, 0.5, 0.7)))
            for _ in range(count)]


def test_exact_table_plays_the_per_turn_moves():
    for mode, (i, g) in itertools.product(
        ("subset", "iso"), enumerate(_seeded_graphs(41, 30) + [path(9), cycle(10)])
    ):
        ref = _PerTurnExact(mode)
        for first in (MAX, MIN):
            exact = make_strategy("exact", mode=mode)
            want = play(g, first, ref, ref).moves
            assert play(g, first, exact, exact).moves == want
            rand = make_strategy("random", seed=i)
            want = play(g, first, ref, rand).moves
            assert play(g, first, make_strategy("exact", mode=mode), rand).moves == want
            want = play(g, first, rand, ref).moves
            assert play(g, first, rand, make_strategy("exact", mode=mode)).moves == want


@pytest.mark.parametrize("mode", ["subset", "iso"])
def test_values_and_exact_play_share_one_table(mode):
    for g in (cycle(9), path(4), disjoint_union(path(5), cycle(5))):
        _table.cache_clear()
        game_values(g, mode)
        play(g, MAX, make_strategy("exact", mode=mode), make_strategy("exact", mode=mode))
        assert _table.cache_info().misses == 1


def test_exact_table_is_not_carried_to_the_next_root():
    ref = _PerTurnExact()
    exact = make_strategy("exact")
    graphs = _seeded_graphs(43, 12, sizes=(8, 8)) + [path(8), cycle(8), complete(8)]
    for g in graphs:
        for first in (MAX, MIN):
            assert play(g, first, exact, exact).moves == play(g, first, ref, ref).moves
