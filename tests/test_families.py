import pytest

from matchgame.canon import are_isomorphic
from matchgame.families import (
    FAMILIES,
    G_k,
    K_minusPM,
    add_pendant,
    build_family,
    cartesian_product,
    clique_pendant,
    comb,
    complete,
    complete_bipartite,
    cubic_tree,
    cycle,
    disjoint_union,
    gadget_B,
    gadget_H,
    gadget_K,
    gk_block_copies,
    path,
    paw,
    rK2_C6,
    split_extremal,
    star,
    twin_cliques,
)
from matchgame.graph import is_connected, is_forest
from matchgame.matching import matching_number, maximum_matching
from matchgame.solver import game_values
from oracles import brute_isomorphic


def test_basic_families():
    assert path(1).n == 1 and path(1).edge_count == 0
    assert are_isomorphic(cycle(3), complete(3))
    assert star(5).n == 6 and star(5).edge_count == 5
    assert complete_bipartite(2, 3).edge_count == 6
    with pytest.raises(Exception):
        cycle(2)
    with pytest.raises(Exception):
        path(-1)


def test_combinators():
    assert are_isomorphic(cartesian_product(complete(2), complete(2)), cycle(4))
    p2p3 = cartesian_product(path(2), path(3))
    assert p2p3.n == 6 and p2p3.edge_count == 7
    assert are_isomorphic(add_pendant(complete(3), 1), paw())
    u = disjoint_union(path(2), path(3))
    assert u.n == 5 and u.edge_count == 3
    assert list(u.edges()) == [(0, 1), (2, 3), (3, 4)]


def test_comb():
    g = comb(1)
    assert g.n == 8 and g.edge_count == 7
    assert is_forest(g) and is_connected(g)
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    assert len(leaves) == 4
    # pendant edges form a perfect matching
    pendant = {tuple(sorted((i, 4 + i))) for i in range(4)}
    m = maximum_matching(g)
    assert len(m) == 4
    used = {v for e in pendant for v in e}
    assert used == set(range(8))
    for k in (2, 3):
        assert comb(k).n == 8 * k
        assert comb(k).edge_count == 8 * k - 1


def test_split_extremal():
    g = split_extremal(6, 1)
    assert g.n == 6 and g.edge_count == 12
    for n in (7, 8, 9):
        assert split_extremal(n, 1).edge_count == 3 + 3 * (n - 3)
    g = split_extremal(12, 2)
    assert g.edge_count == 15 + 6 * 6
    with pytest.raises(Exception):
        split_extremal(5, 1)


def test_gadgets():
    k = gadget_K()
    assert k.n == 5 and k.edge_count == 7
    assert sorted(k.degree(v) for v in range(5)) == [2, 3, 3, 3, 3]
    b = gadget_B()
    assert b.n == 6 and b.edge_count == 8
    h = gadget_H()
    assert h.n == 16 and all(h.degree(v) == 3 for v in range(16))
    assert is_connected(h)


def test_cubic_tree():
    assert cubic_tree(0).n == 1
    assert cubic_tree(1).n == 4
    assert cubic_tree(2).n == 10
    for k in (1, 2, 3):
        t = cubic_tree(k)
        assert t.n == 6 * 2 ** (k - 1) - 2
        assert is_forest(t) and is_connected(t)
        leaves = [v for v in range(t.n) if t.degree(v) == 1]
        assert len(leaves) == 3 * 2 ** (k - 1)
        assert all(t.degree(v) in (1, 3) for v in range(t.n))


def test_G_k():
    g0 = G_k(0)
    assert g0.n == 16
    assert are_isomorphic(g0, gadget_H())
    for k in (0, 1):
        g = G_k(k)
        assert g.n == 18 * 2**k - 2
        assert all(g.degree(v) == 3 for v in range(g.n))
        assert is_connected(g)
    with pytest.raises(Exception):
        G_k(2)  # 70 vertices, past the 62-vertex representation ceiling


@pytest.mark.slow
def test_G_1_exact_values_beat_seven_eighteenths():
    # the paper's 7n/18 construction, solved exactly rather than sampled
    g = G_k(1)
    assert g.n == 34 and matching_number(g) == 15
    mx, mn = game_values(g, mode="iso")
    assert (mx, mn) == (13, 13)
    assert 18 * mx < 7 * g.n


def test_gk_block_copies():
    for k in (0, 1):
        g = G_k(k)
        copies = gk_block_copies(k)
        assert len(copies) == 3 * 2**k
        seen = set()
        for c in copies:
            assert len(c.vertices) == 6
            assert len(c.edges) == 8
            assert len(c.f_edges) == 3
            for e in c.edges:
                assert g.has_edge(*e)
            for e in c.f_edges:
                assert e in c.edges
            assert not seen & c.edges  # blocks share vertices, never edges
            seen |= c.edges


def test_named_realizable_families():
    g = K_minusPM(1)  # K6 minus a perfect matching: 4-regular
    assert g.n == 6 and all(g.degree(v) == 4 for v in range(6))
    t = twin_cliques(2)
    assert t.n == 8
    assert sorted(t.degree(v) for v in range(8)) == [3] * 8
    # both cross pairings give isomorphic graphs: swap the two special
    # vertices of the second clique
    cp = clique_pendant(2)
    assert are_isomorphic(cp, paw())
    with pytest.raises(Exception):
        clique_pendant(1)
    with pytest.raises(Exception):
        twin_cliques(1)
    r = rK2_C6(2)
    assert r.n == 10 and r.edge_count == 8
    assert brute_isomorphic(rK2_C6(1), disjoint_union(path(2), cycle(6)))


def test_twin_cliques_pairing_choice_is_isomorphic():
    # the alternative cross pairing is the same graph up to swapping
    # the second clique's two special vertices
    from matchgame.graph import from_edges

    k = 2
    t = twin_cliques(k)
    edges = set(t.edges())
    special = (0, 1, 2 * k, 2 * k + 1)
    cross = {e for e in edges if e[0] < 2 * k <= e[1]}
    other = {(0, 2 * k + 1), (1, 2 * k)}
    alt = from_edges(t.n, sorted((edges - cross) | other))
    assert brute_isomorphic(t, alt)
    assert cross == {(0, 2 * k), (1, 2 * k + 1)}
    assert all(t.degree(v) == 2 * k - 1 for v in special)


def test_registry():
    assert set(FAMILIES) >= {
        "path", "cycle", "complete", "complete_bipartite", "star",
        "comb", "split_extremal", "paw", "gadget_K", "gadget_B",
        "gadget_H", "cubic_tree", "G_k", "K_minusPM", "twin_cliques",
        "clique_pendant", "rK2_C6",
    }
    assert build_family("path", (4,)).n == 4
    with pytest.raises(Exception, match="available"):
        build_family("nope", ())
    with pytest.raises(Exception):
        build_family("path", (1, 2))
