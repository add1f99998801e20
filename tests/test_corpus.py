import pytest

import matchgame.corpus as corpus
from matchgame.canon import canonical_certificate
from matchgame.corpus import (
    CUBIC_LIMIT,
    CorpusItem,
    connected_cubic_classes,
    corpus_from_spec,
    exhaustive_classes,
    family_items,
    parse_range,
    random_forests,
    tree_classes,
)
from matchgame.graph import GraphError, is_connected, is_forest
from matchgame.graph6 import emit
import oracles
from oracles import labeled_class_count

# graphs on n vertices (OEIS A000088)
EXHAUSTIVE_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}


def test_exhaustive_counts_and_distinctness():
    for n, want in EXHAUSTIVE_COUNTS.items():
        classes = exhaustive_classes(n)
        assert len(classes) == want
        assert all(g.n == n for g in classes)
        certs = [canonical_certificate(g) for g in classes]
        assert len(set(certs)) == want
        assert certs == sorted(certs)
    with pytest.raises(GraphError):
        exhaustive_classes(9)


def test_exhaustive_matches_labelled_recount():
    for n in range(6):
        assert len(exhaustive_classes(n)) == labeled_class_count(n)


@pytest.mark.slow
def test_exhaustive_matches_labelled_recount_n6():
    assert len(exhaustive_classes(6)) == labeled_class_count(6)


def test_tree_counts():
    for n, want in TREE_COUNTS.items():
        classes = tree_classes(n)
        assert len(classes) == want
        for t in classes:
            assert t.n == n and t.edge_count == n - 1
            assert is_forest(t) and is_connected(t)


def test_cubic_counts_small():
    for n in (4, 6, 8, 10):
        classes = connected_cubic_classes(n)
        assert len(classes) == CUBIC_COUNTS[n]
        for g in classes:
            assert all(g.degree(v) == 3 for v in range(g.n))
            assert is_connected(g)
    with pytest.raises(GraphError):
        connected_cubic_classes(5)
    with pytest.raises(GraphError):
        connected_cubic_classes(16)


def test_cubic_count_n12():
    assert len(connected_cubic_classes(12)) == CUBIC_COUNTS[12]


@pytest.mark.slow
def test_cubic_count_n14():
    assert len(connected_cubic_classes(14)) == CUBIC_COUNTS[14]


def test_exhaustive_matches_unpruned_reference():
    # the same classes in the same order; the unpruned build of n = 8 is
    # too slow for the default suite
    for n in range(8):
        assert [canonical_certificate(g) for g in exhaustive_classes(n)] == [
            canonical_certificate(g) for g in oracles.exhaustive_classes(n)
        ]


def test_cubic_matches_unpruned_reference():
    for n in (4, 6, 8, 10):
        assert connected_cubic_classes(n) == oracles.connected_cubic_classes(n)


def test_pruning_canonicalises_one_candidate_per_orbit(monkeypatch):
    calls = []
    monkeypatch.setattr(
        corpus, "canonical_certificate", lambda g: calls.append(g) or canonical_certificate(g)
    )
    exhaustive_classes.cache_clear()
    connected_cubic_classes.cache_clear()
    exhaustive_classes(6)
    calls.clear()
    exhaustive_classes(7)
    # orbits under Aut(parent) of the subsets that give the new vertex
    # maximum degree, summed over the 156 parents
    assert len(calls) == oracles.max_degree_augmentation_orbits(7) == 1401
    # connected matchings that are least under their layout's symmetries
    for n, orbits in ((10, 54), (12, 392)):
        calls.clear()
        connected_cubic_classes(n)
        assert len(calls) == orbits


@pytest.mark.slow
def test_cubic_matches_unpruned_reference_n12():
    assert connected_cubic_classes(12) == oracles.connected_cubic_classes(12)


def test_random_forests_deterministic_and_valid():
    a = random_forests(30, 12, seed=5)
    b = random_forests(30, 12, seed=5)
    assert a == b
    assert len(a) == 30
    assert any(g.edge_count for g in a)
    for g in a:
        assert 1 <= g.n <= 12
        assert is_forest(g)
    c = random_forests(30, 12, seed=6)
    assert c != a


def test_parse_range():
    assert parse_range("4") == [4]
    assert parse_range("2..5") == [2, 3, 4, 5]
    with pytest.raises(GraphError):
        parse_range("5..2")
    with pytest.raises(ValueError):
        parse_range("x")


def test_family_items():
    items = family_items("path", "3..5")
    assert [i.label for i in items] == ["path:3", "path:4", "path:5"]
    assert [i.graph.n for i in items] == [3, 4, 5]
    assert items[0].family == "path" and items[0].params == (3,)
    grid = family_items("complete_bipartite", "1..2,2")
    assert [i.params for i in grid] == [(1, 2), (2, 2)]
    pw = family_items("paw", "")
    assert len(pw) == 1 and pw[0].label == "paw"
    with pytest.raises(GraphError, match="available"):
        family_items("nope", "3")
    with pytest.raises(GraphError, match="parameter"):
        family_items("path", "1,2")
    with pytest.raises(GraphError, match="parameter"):
        family_items("paw", "3")


def test_corpus_from_spec_kinds(tmp_path):
    assert len(corpus_from_spec("exhaustive:4")) == 11
    assert len(corpus_from_spec("exhaustive:0..4")) == 1 + 1 + 2 + 4 + 11
    assert len(corpus_from_spec("trees:1..6")) == 1 + 1 + 1 + 2 + 3 + 6
    # odd orders inside a cubic range are skipped, not an error
    assert len(corpus_from_spec("cubic:4..8")) == 1 + 2 + 5
    assert [i.label for i in corpus_from_spec("family:cycle:6")] == ["cycle:6"]

    one = corpus_from_spec("g6:A_")
    assert len(one) == 1 and one[0].graph.edge_count == 1

    lines = [emit(g) for g in exhaustive_classes(3)]
    p = tmp_path / "graphs.g6"
    p.write_text("\n".join(lines) + "\n\n")
    loaded = corpus_from_spec(f"file:{p}")
    assert [i.label for i in loaded] == lines

    named = corpus_from_spec("named:krr_products")
    assert [i.label for i in named] == ["named:K11xP2", "named:K11xP3", "named:K22xK2"]
    assert [i.graph.n for i in named] == [4, 6, 8]
    pawp3 = corpus_from_spec("named:paw_p3")
    assert pawp3[0].graph.n == 12

    rf = corpus_from_spec("random_forest:10:8:3")
    assert rf == corpus_from_spec("random_forest:10:8:3")
    assert len(rf) == 10
    assert corpus_from_spec("random_forest:10:8:4") != rf
    assert corpus_from_spec("random_forest:10:8") == corpus_from_spec("random_forest:10:8:0")

    for item in rf + named + loaded + one:
        assert isinstance(item, CorpusItem)


def test_corpus_from_spec_errors():
    with pytest.raises(GraphError, match="kind"):
        corpus_from_spec("mystery:3")
    with pytest.raises(GraphError, match="COUNT"):
        corpus_from_spec("random_forest:10")
    with pytest.raises(GraphError, match="named"):
        corpus_from_spec("named:nope")
    with pytest.raises(FileNotFoundError):
        corpus_from_spec("file:/does/not/exist.g6")


def test_cubic_spec_without_even_order_is_an_error():
    limit = f"connected cubic corpus needs even 4 <= n <= {CUBIC_LIMIT}"
    for spec in ("cubic:7", "cubic:3", "cubic:9..9", f"cubic:{CUBIC_LIMIT + 1}"):
        with pytest.raises(GraphError, match=limit):
            corpus_from_spec(spec)
