import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgame.families import comb, complete, cycle, path, star
from matchgame.graph import (
    Graph,
    GraphError,
    component_masks,
    components,
    delete_edge,
    from_edges,
    induced_delete,
    is_connected,
    is_forest,
    is_linear_forest,
    is_star,
    longest_path_in_forest,
    residual,
    split_partition,
    subgraph_mask,
)
from oracles import brute_component_masks, brute_longest_paths, random_graph

P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_construction_rejects_bad_input():
    with pytest.raises(GraphError):
        from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        from_edges(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph(2, (2, 0))  # asymmetric adjacency
    with pytest.raises(GraphError):
        from_edges(63, [])


def test_basic_queries():
    g = from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert g.degree(1) == 3 and g.degree(0) == 1
    assert list(g.edges()) == [(0, 1), (1, 2), (1, 3)]
    assert g.edge_count == 3
    assert g.has_edge(2, 1) and not g.has_edge(0, 3)


def test_duplicate_edges_collapse():
    g = from_edges(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_residual_examples():
    r = residual(P4, (1, 2))
    assert r.n == 2 and r.edge_count == 0
    assert residual(complete(4), (0, 1)) == complete(2)
    r = residual(cycle(6), (0, 1))
    assert r == path(4)
    with pytest.raises(GraphError):
        residual(P4, (0, 2))


def test_residual_relabeling_is_order_preserving():
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    r = residual(g, (1, 2))  # survivors 0,3,4 -> 0,1,2
    assert list(r.edges()) == [(0, 2), (1, 2)]


def test_induced_delete_examples():
    assert induced_delete(path(3), {2}) == path(2)
    assert induced_delete(star(3), {0}).edge_count == 0
    g = cycle(6)
    assert induced_delete(g, {0, 1}) == residual(g, (0, 1))
    with pytest.raises(GraphError):
        induced_delete(path(3), {5})


def test_subgraph_mask_and_delete_edge():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = subgraph_mask(g, 0b1110)  # keep 1,2,3
    assert h == from_edges(3, [(0, 1), (1, 2)])
    assert delete_edge(P4, (1, 2)) == from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        delete_edge(P4, (0, 2))


def test_components(classes_le6):
    g = from_edges(5, [(1, 2), (3, 4)])
    assert components(g) == [(0,), (1, 2), (3, 4)]
    assert components(cycle(6)) == [tuple(range(6))]
    assert is_connected(cycle(6)) and not is_connected(g)
    assert is_connected(Graph(0, ()))
    assert component_masks(cycle(6), 0b110110) == [0b000110, 0b110000]
    assert component_masks(g, 0) == []
    rng = random.Random(29)
    hosts = list(classes_le6) + [
        random_graph(rng, rng.randint(0, 14), rng.choice((0.1, 0.25, 0.5))) for _ in range(200)
    ]
    for h in hosts:
        assert component_masks(h) == brute_component_masks(h, h.vertex_mask)
        for keep in [rng.getrandbits(h.n) if h.n else 0 for _ in range(4)]:
            assert component_masks(h, keep) == brute_component_masks(h, keep)


def test_star_and_forest_predicates():
    assert is_star(path(2), (0, 1))
    assert is_star(star(5), tuple(range(6)))
    assert is_star(path(1), (0,))
    assert not is_star(P4, (0, 1, 2, 3))
    assert is_forest(P4) and not is_forest(cycle(3))
    assert is_linear_forest(from_edges(5, [(0, 1), (2, 3), (3, 4)]))
    assert not is_linear_forest(star(3))


def test_split_partition():
    g = from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])  # split: T={1,2,3}? clique on 1,2,3
    part = split_partition(g)
    assert part is not None
    s, t = part
    assert s | t == frozenset(range(4)) and not s & t
    for u in s:
        for v in s:
            if u < v:
                assert not g.has_edge(u, v)
    for u in t:
        for v in t:
            if u < v:
                assert g.has_edge(u, v)
    assert split_partition(cycle(5)) is None
    assert split_partition(cycle(4)) is None  # C4 is the forbidden 2K2 complement case
    assert split_partition(complete(4)) is not None
    assert split_partition(star(4)) is not None


def test_longest_path_examples():
    assert longest_path_in_forest(path(7)) == tuple(range(7))
    assert longest_path_in_forest(from_edges(3, [])) == (0,)
    assert longest_path_in_forest(Graph(0, ())) == ()


def test_longest_path_comb_has_six_vertices():
    # spine 0-1-2-3 with pendants: longest is pendant-spine-...-pendant
    seq = brute_longest_paths(comb(1))[0]
    assert len(seq) == 6
    got = longest_path_in_forest(comb(1))
    assert len(got) == 6


def test_longest_path_ties_lexicographic():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, p=0.25)
        if not is_forest(g):
            continue
        got = longest_path_in_forest(g)
        best = brute_longest_paths(g)
        assert len(got) == len(best[0])
        # path is genuine
        for a, b in zip(got, got[1:]):
            assert g.has_edge(a, b)
        want_pair = min(tuple(sorted((s[0], s[-1]))) for s in best)
        assert tuple(sorted((got[0], got[-1]))) == want_pair
        assert got[0] == min(got[0], got[-1])


@given(st.integers(0, 10**18))
def test_bits_and_popcount(mask):
    from matchgame.graph import bits, popcount

    xs = list(bits(mask))
    assert xs == sorted(xs)
    assert len(xs) == popcount(mask) == bin(mask).count("1")
    assert all(mask >> x & 1 for x in xs)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 12))
def test_residual_removes_exactly_endpoint_edges(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, p=0.4)
    edges = list(g.edges())
    if not edges:
        return
    e = rng.choice(edges)
    r = residual(g, e)
    assert r.n == g.n - 2
    survivors = [v for v in range(g.n) if v not in e]
    kept = [
        (survivors.index(u), survivors.index(v))
        for u, v in edges
        if u not in e and v not in e
    ]
    assert sorted(kept) == list(r.edges())


def test_subgraph_mask_output_passes_validation():
    # subgraph_mask and delete_edge build their results without re-validating them
    rng = random.Random(23)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 14), rng.choice((0.2, 0.5, 0.8)))
        for _ in range(3):
            h = subgraph_mask(g, rng.getrandbits(g.n) if g.n else 0)
            assert Graph(h.n, h.adj) == h
        if g.edge_count:
            h = delete_edge(g, rng.choice(g.edge_tuple))
            assert Graph(h.n, h.adj) == h
