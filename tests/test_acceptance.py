"""The thirteen release gates, one test each, run at their stated budgets.

Each test prints one ACCEPTANCE line (visible with -s or -rA) naming the
gate and the measured time; the pytest verdict is the pass/fail signal.
"""

import math
import time

import pytest

from matchgame.corpus import (
    connected_cubic_classes,
    corpus_from_spec,
    exhaustive_classes,
)
from matchgame.families import (
    K_minusPM,
    clique_pendant,
    comb,
    complete,
    cycle,
    gadget_H,
    path,
    rK2_C6,
    split_extremal,
    twin_cliques,
)
from matchgame.graph import induced_delete
from matchgame.matching import matching_number
from matchgame.solver import Player, game_values, play, solve
from matchgame.strategies import make_strategy
from matchgame.verify import run_check
from oracles import solve_naive

MAX, MIN = Player.MAX, Player.MIN


def _gate(number: int, label: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(f"ACCEPTANCE {number:2d}: FAIL  {label} [{elapsed:.1f}s over {budget:.0f}s budget]")
        raise AssertionError(f"{label}: {elapsed:.1f}s exceeds the {budget:.0f}s budget")
    print(f"ACCEPTANCE {number:2d}: PASS  {label} [{elapsed:.1f}s]")


def test_acceptance_01_cycle_values():
    def body():
        assert game_values(cycle(6)) == (2, 3)

    _gate(1, "C6 values (2, 3)", 1.0, body)


def test_acceptance_02_path_table():
    def body():
        for n in range(1, 29):
            mx = solve(path(n), MAX, mode="iso").value
            assert 3 * (n // 7) <= mx <= 3 * math.ceil(n / 7), f"P_{n}: Max={mx}"
            if n % 7 == 0:
                assert mx == 3 * (n // 7), f"P_{n}: Max={mx}"

    _gate(2, "path values n=1..28 within thirds-of-sevenths bounds", 60.0, body)


GATE_3_CHECKS = (
    "diff_le_one",
    "trivial_bounds",
    "lower_two_thirds",
    "upper_mu",
    "monotone_delete",
    "delete_drop_le2",
)


def _sweep_value_invariants(spec: str) -> None:
    corpus = corpus_from_spec(spec)
    for check in GATE_3_CHECKS:
        report = run_check(check, corpus)
        assert report.passed, f"{check}: {report.violations[:3]}"


def test_acceptance_03_exhaustive_sweep():
    _gate(
        3, "six value invariants across every class n <= 7", 600.0,
        lambda: _sweep_value_invariants("exhaustive:0..7"),
    )


@pytest.mark.slow
def test_gate_3_invariants_on_every_class_n8():
    _sweep_value_invariants("exhaustive:8")


def test_acceptance_04_oracle_equivalence():
    def body():
        for n in range(8):
            for g in exhaustive_classes(n):
                for player in (MAX, MIN):
                    subset = solve(g, player)
                    iso = solve(g, player, mode="iso")
                    naive = solve_naive(g, player)
                    assert subset == iso == naive, (n, player)

    _gate(4, "subset, iso and naive solvers agree on every class n <= 7", 15.0, body)


def test_acceptance_05_realizable_pairs():
    def body():
        assert game_values(clique_pendant(2)) == (2, 1)
        assert game_values(K_minusPM(1)) == (2, 3)
        assert game_values(twin_cliques(2)) == (3, 4)
        assert game_values(complete(4)) == (2, 2)
        assert game_values(complete(6)) == (3, 3)
        assert game_values(complete(8)) == (4, 4)

    _gate(5, "named families hit their exact value pairs", 60.0, body)


def test_acceptance_06_deletion_drop_sharpness():
    def body():
        one = rK2_C6(1)
        assert solve(one, MAX).value == 4
        assert solve(induced_delete(one, {0}), MAX).value == 2
        two = rK2_C6(2)
        assert solve(two, MIN).value == 5
        assert solve(induced_delete(two, {0}), MIN).value == 3

    _gate(6, "isolated-edge deletion drops each value by exactly 2", 1.0, body)


def test_acceptance_07_forced_perfect_matchings():
    def body():
        for item in corpus_from_spec("named:krr_products"):
            g = item.graph
            mx, mn = game_values(g)
            assert mx == mn == matching_number(g) == g.n // 2, item.label
        paw_item = corpus_from_spec("named:paw_p3")[0]
        mx, mn = game_values(paw_item.graph)
        assert mx < 6 and mn < 6

    _gate(7, "product graphs force (or escape) a perfect matching", 300.0, body)


def test_acceptance_08_split_extremal_edge_counts():
    def body():
        for n in (6, 7, 8):
            g = split_extremal(n, 1)
            assert g.edge_count == 3 + 3 * (n - 3)
            assert matching_number(g) == 3
            assert solve(g, MAX).value == 2
        report = run_check("edge_extremal_k1", corpus_from_spec("exhaustive:6..7"))
        assert report.passed, report.violations[:3]

    _gate(8, "split extremal edge counts, exhaustive for n in {6,7}", 900.0, body)


def test_acceptance_09_forest_invariants():
    def body():
        corpus = corpus_from_spec("trees:1..10") + corpus_from_spec(
            "random_forest:500:14:0"
        )
        for check in (
            "forest_three_quarters",
            "forest_min_le_max",
            "star_addition",
            "optimal_move_transfer",
        ):
            report = run_check(check, corpus)
            assert report.passed, f"{check}: {report.violations[:3]}"

    _gate(9, "forest bounds on all trees n <= 10 plus 500 random forests", 900.0, body)


def test_acceptance_10_comb_values():
    def body():
        for k in (1, 2):
            g = comb(k)
            mx = solve(g, MAX, mode="iso").value
            assert mx == 3 * k and 8 * mx == 3 * g.n

    _gate(10, "comb values hit three eighths of the vertices", 300.0, body)


def test_acceptance_11_gadget_H_values():
    def body():
        assert game_values(gadget_H()) == (6, 6)

    _gate(11, "16-vertex cubic gadget solves to (6, 6)", 600.0, body)


def test_acceptance_12_strategy_simulations():
    def body():
        for n in range(6, 10):
            g = split_extremal(n, 1)
            t = play(g, MAX, make_strategy("exact"), make_strategy("min_split"))
            assert t.final_size <= 2, f"split n={n}: {t.final_size}"
        for n in range(4, 13, 2):
            for g in connected_cubic_classes(n):
                t = play(g, MAX, make_strategy("max_mindeg"), make_strategy("exact"))
                assert 9 * t.final_size >= 3 * n - 2, f"cubic n={n}"
        for n, bound in ((7, 3), (14, 6)):
            t = play(path(n), MAX, make_strategy("exact"), make_strategy("min_path"))
            assert t.final_size <= bound, f"min_path P{n}: {t.final_size}"
            t = play(path(n), MAX, make_strategy("max_path"), make_strategy("exact"))
            assert t.final_size >= bound, f"max_path P{n}: {t.final_size}"
        for k in (1, 2):
            t = play(comb(k), MAX, make_strategy("exact"), make_strategy("min_comb"))
            assert t.final_size <= 3 * k, f"min_comb comb({k}): {t.final_size}"

    _gate(12, "guarantee strategies meet their bounds in live play", 6.0, body)


def test_acceptance_13_gk_strategy_bound():
    def body():
        corpus = corpus_from_spec("family:G_k:0..1") + corpus_from_spec(
            "family:cubic_tree:1..3"
        )
        report = run_check("gk_strategy_bound", corpus)
        assert report.passed, report.violations[:3]

    _gate(13, "block rule holds the baseline suite to 6 and 13", 600.0, body)
