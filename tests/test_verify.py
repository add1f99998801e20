import pytest

from matchgame.corpus import corpus_from_spec
from matchgame.graph import GraphError, induced_delete
from matchgame.graph6 import parse
from matchgame.solver import game_values
from matchgame.verify import (
    CHECKS,
    CheckContext,
    Report,
    Violation,
    run_check,
    write_records,
)

# checks that assert a property of arbitrary input graphs, safe on any corpus
UNIVERSAL = [
    "diff_le_one",
    "monotone_delete",
    "delete_drop_le2",
    "trivial_bounds",
    "lower_two_thirds",
    "upper_mu",
    "compat_equality",
    "split_ceiling",
    "edge_extremal_k1",
    "matching_lemmas",
    "forest_three_quarters",
    "forest_min_le_max",
    "star_addition",
    "optimal_move_transfer",
    "path_values",
    "regular_lower",
    "realizable_pairs",
    "deletion_drop_sharp",
    "gk_strategy_bound",
    "gadget_H_values",
]
# checks that presume their dedicated corpus
PAIRED = {
    "krr_product_pm": "named:krr_products",
    "paw_product_no_pm": "named:paw_p3",
}


def test_registry_is_covered():
    assert sorted(CHECKS) == sorted(UNIVERSAL + list(PAIRED))


def test_unknown_check():
    with pytest.raises(GraphError, match="available"):
        run_check("nope", corpus_from_spec("exhaustive:2"))


def test_universal_checks_pass_on_small_classes():
    corpus = corpus_from_spec("exhaustive:0..4")
    for check in UNIVERSAL:
        report = run_check(check, corpus)
        assert report.passed, f"{check}: {report.violations[:3]}"
        assert report.instances == len(corpus)
        assert report.check == check and report.seconds >= 0


def test_paired_checks_pass_on_their_corpora():
    for check, spec in PAIRED.items():
        report = run_check(check, corpus_from_spec(spec))
        assert report.passed


def test_family_guarded_checks_fire_on_their_families():
    report = run_check("realizable_pairs", corpus_from_spec("family:clique_pendant:2..3"))
    assert report.passed and report.instances == 2
    report = run_check("deletion_drop_sharp", corpus_from_spec("family:rK2_C6:1..2"))
    assert report.passed
    report = run_check("gadget_H_values", corpus_from_spec("family:gadget_H"))
    assert report.passed
    report = run_check("gk_strategy_bound", corpus_from_spec("family:cubic_tree:1..3"))
    assert report.passed


def test_honest_violation_with_reproducible_witness():
    # the paw product check demands a forced perfect matching, which the
    # krr products satisfy and the paw product does not
    report = run_check("krr_product_pm", corpus_from_spec("named:paw_p3"))
    assert not report.passed
    assert len(report.violations) == 1
    v = report.violations[0]
    g = parse(v.witness)
    mx, mn = game_values(g)
    assert not (mx == mn == g.n // 2)
    assert f"Max={mx} Min={mn}" in v.actual
    # and the converse pairing also fails
    assert not run_check("paw_product_no_pm", corpus_from_spec("named:krr_products")).passed


def test_budget_errors_become_violations():
    report = run_check("diff_le_one", corpus_from_spec("exhaustive:5"), budget=2)
    assert not report.passed
    assert any("memo" in v.actual for v in report.violations)
    assert all(v.expected == "solve within memo budget" for v in report.violations)


def test_parallel_jobs_agree():
    corpus = corpus_from_spec("exhaustive:0..5")
    seq = run_check("trivial_bounds", corpus, jobs=1)
    par = run_check("trivial_bounds", corpus, jobs=2)
    assert (seq.check, seq.instances, seq.violations) == (
        par.check,
        par.instances,
        par.violations,
    )
    bad_seq = run_check("krr_product_pm", corpus_from_spec("exhaustive:3"), jobs=1)
    bad_par = run_check("krr_product_pm", corpus_from_spec("exhaustive:3"), jobs=2)
    assert bad_seq.violations == bad_par.violations
    assert not bad_seq.passed


def test_iso_mode_context_agrees():
    corpus = corpus_from_spec("exhaustive:0..4")
    for check in ("diff_le_one", "trivial_bounds", "upper_mu"):
        assert run_check(check, corpus, mode="iso").passed


def test_write_records(tmp_path):
    passing = tmp_path / "pass.tsv"
    write_records(run_check("diff_le_one", corpus_from_spec("exhaustive:3")), str(passing))
    lines = passing.read_text().splitlines()
    assert lines == ["diff_le_one\t-\tinstances=4\tviolations=0\tpass"]

    failing = tmp_path / "fail.tsv"
    report = run_check("krr_product_pm", corpus_from_spec("named:paw_p3"))
    write_records(report, str(failing))
    lines = failing.read_text().splitlines()
    assert len(lines) == 2
    first = lines[0].split("\t")
    assert first[0] == "krr_product_pm" and first[-1] == "fail"
    assert lines[1].endswith("instances=1\tviolations=1\tfail")


def test_report_and_violation_shapes():
    r = Report(check="x", instances=3)
    assert r.passed
    r.violations.append(Violation("w", "e", "a"))
    assert not r.passed
    ctx = CheckContext()
    assert ctx.mode == "subset"


@pytest.mark.parametrize("mode", ["subset", "iso"])
def test_values_at_a_mask_equal_the_vertex_deleted_graph(classes_le6, mode):
    ctx = CheckContext(mode=mode)
    for g in classes_le6:
        for v in range(g.n):
            want = game_values(induced_delete(g, {v}), mode=mode)
            assert ctx.values(g, g.vertex_mask & ~(1 << v)) == want


@pytest.mark.parametrize(
    "check, spec, deleted",
    [
        ("monotone_delete", "family:path:5", range(5)),
        ("delete_drop_le2", "family:cycle:6", range(6)),
        ("deletion_drop_sharp", "family:rK2_C6:1", [0]),
    ],
)
def test_deletion_checks_read_each_vertex_deleted_mask(check, spec, deleted):
    asked = []

    class Recording(CheckContext):
        def values(self, g, mask=None):
            asked.append(mask)
            return super().values(g, mask)

    item = corpus_from_spec(spec)[0]
    assert CHECKS[check](item, Recording()) == []
    full = item.graph.vertex_mask
    assert asked == [None] + [full & ~(1 << v) for v in deleted]


def test_budget_covers_the_vertex_deleted_positions_too():
    # the budget caps g's one table, which also holds the positions of
    # every g - v: a budget that each solve fits alone can be too small
    item = corpus_from_spec("family:cycle:6")[0]
    g, budget = item.graph, 40
    game_values(g, budget=budget)
    for v in range(g.n):
        game_values(induced_delete(g, {v}), budget=budget)
    report = run_check("monotone_delete", [item], budget=budget)
    assert [v.expected for v in report.violations] == ["solve within memo budget"]
    assert run_check("monotone_delete", [item], budget=2 * budget).passed
