import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgame.families import (
    complete,
    cycle,
    disjoint_union,
    path,
    split_extremal,
    star,
)
from matchgame.graph import GraphError, from_edges, residual
from matchgame.matching import (
    compatibility_witness,
    covered_vertices,
    covering_max_matching,
    edge_in_maximum_matching,
    is_maximal,
    matching_number,
    maximum_matching,
    min_maximal_matching,
    min_maximal_number,
)
from matchgame.corpus import corpus_from_spec, exhaustive_classes
from oracles import (
    compatibility_witness_reference,
    random_graph,
    brute_matching_number,
    brute_maximal_matchings,
    brute_min_maximal_number,
    random_graph,
    validate_matching,
)


def test_maximum_matching_examples():
    assert matching_number(cycle(6)) == 3
    assert matching_number(path(4)) == 2
    assert matching_number(complete(4)) == 2
    assert matching_number(star(5)) == 1
    assert matching_number(from_edges(3, [])) == 0
    for n in (6, 7, 8, 9):
        assert matching_number(split_extremal(n, 1)) == 3
    assert matching_number(split_extremal(12, 2)) == 6
    m = maximum_matching(cycle(6))
    validate_matching(cycle(6), m)
    assert len(m) == 3


def test_blossom_needs_odd_cycles():
    # two triangles joined by a bridge: greedy bipartite-style search
    # without blossoms underestimates this
    g = from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert matching_number(g) == 3
    # Petersen-like blossom nesting: C5 with a pendant on each vertex
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    assert matching_number(from_edges(10, edges)) == 5


def test_min_maximal_examples():
    assert min_maximal_number(cycle(6)) == 2
    assert min_maximal_number(path(4)) == 1
    assert min_maximal_number(complete(4)) == 2
    assert min_maximal_number(star(5)) == 1
    assert min_maximal_number(from_edges(4, [])) == 0
    m = min_maximal_matching(cycle(6))
    validate_matching(cycle(6), m)
    assert is_maximal(cycle(6), m)


def test_brute_agreement_small_classes(classes_le6):
    for g in classes_le6:
        alpha = matching_number(g)
        assert alpha == brute_matching_number(g)
        mm = maximum_matching(g)
        validate_matching(g, mm)
        assert len(mm) == alpha
        mu = min_maximal_number(g)
        assert mu == brute_min_maximal_number(g)
        sm = min_maximal_matching(g)
        validate_matching(g, sm)
        assert is_maximal(g, sm) and len(sm) == mu


def test_is_maximal_matches_enumeration(classes_le5):
    for g in classes_le5:
        maximal = set(brute_maximal_matchings(g))
        from oracles import all_matchings

        for m in all_matchings(g):
            assert is_maximal(g, m) == (m in maximal)


def test_validate_matching_rejects():
    g = path(4)
    with pytest.raises(GraphError, match="not an edge"):
        validate_matching(g, frozenset({(0, 2)}))
    with pytest.raises(GraphError, match="shares a vertex"):
        validate_matching(g, frozenset({(0, 1), (1, 2)}))


def test_edge_in_maximum_matching():
    g = path(4)
    assert edge_in_maximum_matching(g, (0, 1))
    assert edge_in_maximum_matching(g, (2, 3))
    assert not edge_in_maximum_matching(g, (1, 2))
    assert all(edge_in_maximum_matching(cycle(6), e) for e in cycle(6).edges())
    with pytest.raises(GraphError):
        edge_in_maximum_matching(g, (0, 3))
    rng = random.Random(31)
    for _ in range(60):
        h = random_graph(rng, rng.randint(2, 9), rng.choice((0.25, 0.4, 0.6)))
        alpha = brute_matching_number(h)
        for e in h.edges():
            rest = brute_matching_number(residual(h, e))
            assert edge_in_maximum_matching(h, e) == (rest == alpha - 1)
            assert edge_in_maximum_matching(h, e, alpha) == (rest == alpha - 1)


def test_covering_max_matching():
    g = path(4)
    for v in range(4):
        m = covering_max_matching(g, v)
        validate_matching(g, m)
        assert len(m) == 2 and v in covered_vertices(m)
    with pytest.raises(GraphError, match="isolated"):
        covering_max_matching(from_edges(2, []), 0)
    with pytest.raises(GraphError):
        covering_max_matching(g, 9)
    rng = random.Random(37)
    for _ in range(60):
        h = random_graph(rng, rng.randint(2, 9), rng.choice((0.25, 0.4, 0.6)))
        alpha = brute_matching_number(h)
        for v in range(h.n):
            if not h.adj[v]:
                continue
            m = covering_max_matching(h, v)
            validate_matching(h, m)
            assert len(m) == alpha
            # the edge at v is the least one lying in a maximum matching
            u = min(
                w for w in range(h.n)
                if h.has_edge(v, w)
                and brute_matching_number(residual(h, (min(v, w), max(v, w)))) == alpha - 1
            )
            assert (min(u, v), max(u, v)) in m


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 9))
def test_random_graph_invariants(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, p=0.4)
    mm = maximum_matching(g)
    sm = min_maximal_matching(g)
    validate_matching(g, mm)
    validate_matching(g, sm)
    assert is_maximal(g, mm) and is_maximal(g, sm)
    assert len(sm) <= len(mm)
    # any maximal matching is at least half a maximum one
    assert 2 * len(sm) >= len(mm)


def test_compatibility_witness_found():
    for g in (complete(4), complete(6), cycle(4), from_edges(3, [])):
        res = compatibility_witness(g)
        assert res.status == "found"
        validate_matching(g, res.matching)
        assert len(res.matching) == matching_number(g)
        partner = {}
        for a, b in res.matching:
            partner[a], partner[b] = b, a
        for u, v in g.edges():
            if u in partner and v in partner and partner[u] != v:
                assert g.has_edge(partner[u], partner[v])


def test_compatibility_witness_absent_and_cap():
    # P4 has a single maximum matching and its partners fail closure
    assert compatibility_witness(path(4)).status == "absent"
    assert compatibility_witness(path(4), cap=1).status == "inconclusive"
    # both perfect matchings of C6 pair ends of a P4 across a chord gap
    assert compatibility_witness(cycle(6)).status == "absent"
    res = compatibility_witness(cycle(6), cap=1)
    assert res.status == "inconclusive" and res.matching is None


def test_compatibility_witness_equals_reference():
    # same status and same (lexicographically first) witness as the
    # search that tests closure only on whole maximum matchings
    graphs = [g for n in range(8) for g in exhaustive_classes(n)]
    graphs += [item.graph for item in corpus_from_spec("cubic:4..10")]
    rng = random.Random(41)
    graphs += [random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.6, 0.8])) for _ in range(300)]
    for g in graphs:
        assert compatibility_witness(g) == compatibility_witness_reference(g), g


def test_covering_max_matching_with_alpha_equals_without(classes_le6):
    for g in classes_le6:
        alpha = matching_number(g)
        for v in range(g.n):
            if g.adj[v]:
                assert covering_max_matching(g, v, alpha) == covering_max_matching(g, v)


def test_compatibility_witness_with_alpha_equals_without(classes_le6):
    for g in classes_le6:
        assert compatibility_witness(g, alpha=matching_number(g)) == compatibility_witness(g)


def _path_cycle_unions(total):
    """All disjoint unions of paths and cycles on `total` vertices."""

    def parts(remaining, least):
        if remaining == 0:
            yield []
            return
        for size in range(1, remaining + 1):
            for kind in ("path",) if size < 3 else ("path", "cycle"):
                part = (size, kind)
                if part < least:
                    continue
                for rest in parts(remaining - size, part):
                    yield [part] + rest

    for spec in parts(total, (0, "")):
        gs = [path(s) if k == "path" else cycle(s) for s, k in spec]
        g = gs[0]
        for h in gs[1:]:
            g = disjoint_union(g, h)
        yield g


def test_high_min_degree_edges_lie_in_near_perfect_matchings():
    # every graph on 8 vertices with min degree >= 5 is the complement
    # of a union of paths and cycles (max degree <= 2); each of its
    # edges must extend to a matching of size n/2 = 4
    hosts = list(_path_cycle_unions(8))
    assert len(hosts) == 46
    for h in hosts:
        comp = from_edges(
            8,
            [(i, j) for j in range(8) for i in range(j) if not h.has_edge(i, j)],
        )
        assert min(comp.degree(v) for v in range(8)) >= 5
        alpha = matching_number(comp)
        assert alpha == 4
        for e in comp.edges():
            assert edge_in_maximum_matching(comp, e, alpha)
