import hashlib
import random
from itertools import permutations

import pytest

from matchgame import graph6
from matchgame.canon import (
    _canonical_ir,
    _forest_from_codes,
    _is_tree,
    _refine,
    _tree_code,
    are_isomorphic,
    automorphism_generators,
    canonical_certificate,
    canonical_form,
    piece_certificate,
)
from matchgame.corpus import connected_cubic_classes, exhaustive_classes, tree_classes
from matchgame.families import complete, cycle, disjoint_union, path, star
from matchgame.graph import Graph, component_masks, from_edges, is_forest, subgraph_mask
from oracles import brute_isomorphic, permuted, random_graph, refine_reference, tree_code_reference

# SHA-256 of the certificates in test_certificates_match_pinned_hash
PINNED = "799cbb92ff88fe07cb25ba9dc48b47478a0fd115533df30b8855e75b6c953bf6"


def test_relabeling_invariance_examples():
    p3a = from_edges(3, [(0, 1), (1, 2)])
    p3b = from_edges(3, [(2, 0), (0, 1)])
    assert canonical_certificate(p3a) == canonical_certificate(p3b)
    assert canonical_certificate(complete(3)) != canonical_certificate(p3a)


def test_isolated_vertices_ignored():
    c6 = cycle(6)
    c6_plus = from_edges(8, list(c6.edges()))
    assert canonical_certificate(c6_plus) == canonical_certificate(c6)
    assert canonical_certificate(from_edges(5, [])) == canonical_certificate(from_edges(0, []))


def test_are_isomorphic_requires_equal_order():
    assert not are_isomorphic(cycle(6), from_edges(7, list(cycle(6).edges())))
    assert are_isomorphic(cycle(3), complete(3))


def test_canonical_form_is_fixed_point():
    for g in [cycle(6), path(5), star(4), complete(4)]:
        c = canonical_form(g)
        assert canonical_form(c) == c
        assert are_isomorphic(c, g)


def test_permutation_invariance_random():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_certificate(g) == canonical_certificate(permuted(g, perm))


def test_distinct_classes_get_distinct_certificates():
    # Exhaustive: certificates within each order are pairwise distinct
    # and the representatives are pairwise non-isomorphic by brute force
    # at n <= 5.
    for n in range(0, 7):
        reps = exhaustive_classes(n)
        certs = {canonical_certificate(g) for g in reps}
        assert len(certs) == len(reps)
    reps5 = exhaustive_classes(5)
    for i, g in enumerate(reps5):
        for h in reps5[i + 1 :]:
            assert not brute_isomorphic(g, h)


def test_certificates_separate_random_non_isomorphic_pairs():
    rng = random.Random(17)
    tested = 0
    while tested < 1000:
        n = rng.randint(2, 8)
        g = random_graph(rng, n, p=0.5)
        h = random_graph(rng, n, p=0.5)
        same_cert = canonical_certificate(g) == canonical_certificate(h)
        if same_cert:
            assert brute_isomorphic(g, h)
        else:
            # cheap prefilters inside the oracle make most of these fast
            if g.edge_count != h.edge_count:
                tested += 1
                continue
            assert not brute_isomorphic(g, h)
        tested += 1


def test_forest_and_cyclic_agree_on_union():
    # a forest glued with a cyclic part goes through the general route;
    # permuting labels must not change the certificate
    g = disjoint_union(cycle(5), path(4))
    rng = random.Random(3)
    for _ in range(50):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_certificate(permuted(g, perm)) == canonical_certificate(g)


def test_highly_symmetric_graphs():
    from matchgame.families import cartesian_product, complete_bipartite

    q3 = cartesian_product(cartesian_product(complete(2), complete(2)), complete(2))
    rng = random.Random(9)
    perm = list(range(8))
    rng.shuffle(perm)
    assert canonical_certificate(q3) == canonical_certificate(permuted(q3, perm))
    assert not are_isomorphic(q3, complete_bipartite(4, 4))
    # Petersen vs K5,5 minus perfect matching style pairs: same degree
    # sequence, different graphs
    petersen = from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    c10 = cycle(10)
    assert not are_isomorphic(petersen, disjoint_union(cycle(5), cycle(5)))
    assert not are_isomorphic(petersen, c10)
    perm = list(range(10))
    rng.shuffle(perm)
    assert are_isomorphic(petersen, permuted(petersen, perm))


def _is_automorphism(g, perm) -> bool:
    if sorted(perm) != list(range(g.n)):
        return False
    return all(
        sum(1 << perm[u] for u in range(g.n) if g.adj[v] >> u & 1) == g.adj[perm[v]]
        for v in range(g.n)
    )


def _generated_group(n: int, gens) -> set:
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        p = stack.pop()
        for gen in gens:
            q = tuple(gen[x] for x in p)
            if q not in group:
                group.add(q)
                stack.append(q)
    return group


def test_automorphism_generators_are_automorphisms():
    rng = random.Random(11)
    graphs = [g for n in range(8) for g in exhaustive_classes(n)]
    # isolated vertices next to edges, and seeded relabellings
    graphs += [from_edges(8, list(cycle(5).edges())), from_edges(6, [(1, 4)])]
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, p=rng.choice([0.1, 0.3, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        graphs += [g, permuted(g, perm)]
    for g in graphs:
        for gen in automorphism_generators(g):
            assert len(gen) == g.n and _is_automorphism(g, gen)


def test_automorphism_generators_swap_isolated_vertices():
    g = from_edges(6, [(0, 1)])
    assert len(_generated_group(6, automorphism_generators(g))) == 2 * 24


def test_automorphism_generators_generate_the_whole_group_n_le_6(classes_le6):
    for g in classes_le6:
        brute = {p for p in permutations(range(g.n)) if _is_automorphism(g, p)}
        assert _generated_group(g.n, automorphism_generators(g)) == brute


def _random_forest(rng, n):
    return from_edges(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8])


def test_canonical_representatives_pass_validation():
    # both routes build their representative without re-validating it
    rng = random.Random(29)
    for i in range(200):
        n = rng.randint(1, 12)
        g = _random_forest(rng, n) if i % 2 else random_graph(rng, n, 0.4)
        h = _canonical_ir(g)
        assert h.n == g.n and Graph(h.n, h.adj) == h
        if is_forest(g):
            trees = [comp for comp in component_masks(g) if comp & (comp - 1)]
            h = _forest_from_codes(tuple(sorted(_tree_code(g, comp) for comp in trees)))
            assert h.n == sum(comp.bit_count() for comp in trees) and Graph(h.n, h.adj) == h
            assert graph6.emit(h).encode("ascii") == canonical_certificate(g)


def _edge_pieces(g):
    """Every component that g keeps once both ends of one of its edges go."""
    for u, v in g.edges():
        for comp in component_masks(g, g.vertex_mask & ~(1 << u | 1 << v)):
            yield comp


def _forests_with_keeps():
    rng = random.Random(31)
    for _ in range(200):
        g = _random_forest(rng, rng.randint(1, 14))
        for _ in range(3):
            yield g, rng.getrandbits(g.n)


def _piece_corpus():
    for n in range(1, 11):
        yield from tree_classes(n)
    for n in range(1, 7):
        yield from exhaustive_classes(n)


def test_piece_certificate_equals_public_route_on_edge_residuals():
    for g in _piece_corpus():
        for comp in _edge_pieces(g):
            # the route first: a piece with a cycle must not take the tree route
            assert _is_tree(g, comp) == is_forest(subgraph_mask(g, comp))
            assert piece_certificate(g, comp) == canonical_certificate(subgraph_mask(g, comp))


def test_piece_certificate_equals_public_route_on_random_forest_masks():
    for g, keep in _forests_with_keeps():
        for comp in component_masks(g, keep):
            assert piece_certificate(g, comp) == canonical_certificate(subgraph_mask(g, comp))


def _trees():
    """Each component with an edge of the tree code corpus, as (g, comp)."""
    for n in range(2, 13):
        for g in tree_classes(n):
            yield g, g.vertex_mask
    for n in range(2, 63):
        yield path(n), path(n).vertex_mask
    for g, keep in _forests_with_keeps():
        for comp in component_masks(g, keep):
            if comp & (comp - 1):
                yield g, comp


def test_tree_code_equals_reference():
    # every tree on at most 12 vertices, every path up to MAX_VERTICES,
    # and the pieces of the seeded random forests
    for g, comp in _trees():
        assert _tree_code(g, comp) == tree_code_reference(g, comp)


def test_certificates_match_pinned_hash():
    # computed before piece_certificate existed, as
    # canonical_certificate(subgraph_mask(g, comp)) for each piece
    digest = hashlib.sha256()
    corpus = list(_piece_corpus()) + [g for n in range(4, 11, 2) for g in connected_cubic_classes(n)]
    for g in corpus:
        digest.update(canonical_certificate(g) + b"\n")
        for comp in _edge_pieces(g):
            digest.update(piece_certificate(g, comp) + b"\n")
    for g, keep in _forests_with_keeps():
        digest.update(canonical_certificate(subgraph_mask(g, keep)) + b"\n")
        for comp in component_masks(g, keep):
            digest.update(piece_certificate(g, comp) + b"\n")
    assert digest.hexdigest() == PINNED


def test_refine_equals_reference_on_random_ordered_partitions():
    rng = random.Random(29)
    for _ in range(3000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, p=rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]))
        labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        cells: dict[int, int] = {}
        for v, c in enumerate(labels):
            cells[c] = cells.get(c, 0) | 1 << v
        partition = list(cells.values())
        rng.shuffle(partition)
        assert _refine(g.adj, partition) == refine_reference(g.adj, partition)


def test_refine_equals_reference_after_individualising_a_vertex(classes_le6):
    for g in classes_le6[1:]:  # the search never refines the empty graph
        full = g.vertex_mask
        assert _refine(g.adj, [full]) == refine_reference(g.adj, [full])
        for v in range(g.n):
            part = [1 << v, full & ~(1 << v)] if g.n > 1 else [full]
            assert _refine(g.adj, part) == refine_reference(g.adj, part)
