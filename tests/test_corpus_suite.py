"""Corpus generation determinism and the verification suite."""

import json
from dataclasses import replace

import pytest

from lexhyp import (CARTESIAN, CHECKS, LEXICOGRAPHIC, Corpus, CorpusSpec, LexhypError,
                    ValidationError, cycle_graph, generate_corpus, path_graph, product,
                    random_tree, run_suite)
from lexhyp.suite import SuiteContext

EXPECTED_CHECK_IDS = {
    "dist_formula", "edge_containment", "copy_isometry", "neighborhood_3_2",
    "geodesic_copy_5_2", "geodesic_copy_gt3", "projection_geodesic",
    "isometric_subproduct", "sandwich_bounds", "lower_bound_1",
    "lower_bound_5_4_diamV2", "lower_bound_5_4_diamG2", "lower_bound_3_2_diamV3",
    "quarter_multiple", "delta_diam_half", "tree_delta_zero", "cycle_delta_n_4",
    "examples_Pn_P2", "examples_Cn_P2", "example_complete", "tree_lex_oracle",
    "F_characterization", "grid_stability_S8", "cycle_only_equivalence",
    "upper_bound_tightness", "witness_validity", "bigon_lower_bound",
    "isometric_monotonicity", "f_triangle_lemma",
}


def test_registry_covers_required_checks():
    assert EXPECTED_CHECK_IDS <= set(CHECKS)


def test_corpus_deterministic():
    spec = CorpusSpec(seed=5, max_vertices=7, pair_count=10)
    a = generate_corpus(spec)
    b = generate_corpus(spec)
    assert a.graphs == b.graphs
    assert a.pairs == b.pairs


def test_corpus_cycles_family_exhaustive():
    spec = CorpusSpec(seed=1, families=("cycles",), min_vertices=3, max_vertices=6,
                      pair_count=2)
    corpus = generate_corpus(spec)
    assert list(corpus.graphs) == [cycle_graph(n) for n in (3, 4, 5, 6)]


def test_random_trees_are_trees():
    import random
    rng = random.Random(3)
    for n in range(1, 12):
        t = random_tree(n, rng)
        assert t.is_tree()
        assert t.m == n - 1


def test_infeasible_bounds():
    with pytest.raises(ValidationError):
        generate_corpus(CorpusSpec(min_vertices=5, max_vertices=3))
    with pytest.raises(ValidationError):
        CorpusSpec(families=("nonsense",))


def test_unknown_check_rejected():
    corpus = generate_corpus(CorpusSpec(seed=0, max_vertices=4, pair_count=2))
    with pytest.raises(LexhypError):
        run_suite(corpus, ["no_such_check"])


def test_selected_checks_only():
    corpus = generate_corpus(CorpusSpec(seed=0, max_vertices=5, pair_count=4))
    report = run_suite(corpus, ["cycle_delta_n_4", "tree_delta_zero"])
    assert set(report.results) == {"cycle_delta_n_4", "tree_delta_zero"}
    assert report.all_pass


def test_report_json_schema():
    corpus = generate_corpus(CorpusSpec(seed=0, max_vertices=5, pair_count=4))
    report = run_suite(corpus, ["cycle_delta_n_4", "dist_formula"])
    blob = json.loads(report.to_json())
    for cid, entry in blob.items():
        assert set(entry) == {"status", "instances", "failures", "millis"}
        assert entry["status"] in ("pass", "fail")
        assert isinstance(entry["instances"], int)
        assert isinstance(entry["failures"], list)


def test_full_suite_small_corpus_passes():
    corpus = generate_corpus(CorpusSpec(seed=2, max_vertices=6, pair_count=8))
    report = run_suite(corpus)
    failed = {cid: r.failures for cid, r in report.results.items() if r.status != "pass"}
    assert report.all_pass, failed
    assert set(report.results) == set(CHECKS)
    # every check did some work or legitimately found no applicable instances
    for r in report.results.values():
        assert r.instances >= 0


def _planted_p5_p3(check_id: str, kind: str):
    g1, g2 = path_graph(5), path_graph(3)
    corpus = Corpus(spec=CorpusSpec(), graphs=(g1, g2), pairs=((g1, g2),))
    ctx = SuiteContext(product_cap=24)
    # the suite reads the product through ctx.lex; plant one labelled lexicographic
    ctx._products[(g1, g2)] = replace(product(g1, g2, kind), kind=LEXICOGRAPHIC)
    return CHECKS[check_id](corpus, ctx)


def test_projection_geodesic_passes_on_the_lex_product():
    instances, failures = _planted_p5_p3("projection_geodesic", LEXICOGRAPHIC)
    assert instances > 0 and failures == []


def test_projection_geodesic_fails_on_cartesian_product():
    # Cartesian geodesics between far points step inside one G1-copy
    instances, failures = _planted_p5_p3("projection_geodesic", CARTESIAN)
    assert instances > 0 and failures
    assert all(set(f["inputs"]) == {"pair", "a", "b"} for f in failures)
    assert any("intra-copy DAG edges=0" not in f["actual"] for f in failures)


def test_dist_formula_passes_on_the_lex_product():
    assert _planted_p5_p3("dist_formula", LEXICOGRAPHIC) == (1, [])


def test_dist_formula_fails_on_cartesian_product():
    # BFS runs on the planted Cartesian product, the closed form on the factors;
    # the first mismatch in id order is (0,0)-(1,1): 2 steps there, 1 in G1 o G2
    instances, failures = _planted_p5_p3("dist_formula", CARTESIAN)
    assert instances == 1 and len(failures) == 1
    assert failures[0]["inputs"]["a"] == (0, 0) and failures[0]["inputs"]["b"] == (1, 1)
    assert (failures[0]["expected"], failures[0]["actual"]) == ("2", "1")


def test_projection_geodesic_default_corpus():
    result = run_suite(generate_corpus(CorpusSpec()), ["projection_geodesic"]).results
    assert (result["projection_geodesic"].status, result["projection_geodesic"].instances) \
        == ("pass", 325_001)


def test_geodesic_copy_checks_alone_and_together(monkeypatch):
    import lexhyp.suite as suite
    corpus = generate_corpus(CorpusSpec())
    ids = ["geodesic_copy_5_2", "geodesic_copy_gt3"]
    passes = []
    real = suite._copy_pairs
    monkeypatch.setattr(suite, "_copy_pairs", lambda *a: passes.append(1) or real(*a))
    both = run_suite(corpus, ids).to_json_dict()
    assert len(passes) == 1  # one subdivide-and-APSP pass serves both checks
    for cid in ids:
        alone = run_suite(corpus, [cid]).to_json_dict()[cid]
        assert {**alone, "millis": 0} == {**both[cid], "millis": 0}
        assert alone["status"] == "pass" and alone["instances"] > 0


@pytest.mark.parametrize("order", ["sorted", "reversed"])
def test_each_single_gets_one_s4_grid(monkeypatch, order):
    # every check that sweeps a corpus graph shares its one default engine,
    # whichever check asks first
    from lexhyp import SubdividedGraph
    corpus = generate_corpus(CorpusSpec(seed=2, max_vertices=6, pair_count=8))
    grids: dict = {}
    init = SubdividedGraph.__init__

    def counted(self, base, k, cap):
        grids[(base, k)] = grids.get((base, k), 0) + 1
        init(self, base, k, cap)

    monkeypatch.setattr(SubdividedGraph, "__init__", counted)
    checks = sorted(CHECKS, reverse=order == "reversed")
    assert run_suite(corpus, checks).all_pass
    assert {g: grids.get((g, 4), 0) for g in corpus.graphs} == {g: 1 for g in corpus.graphs}
    assert not any(k == 2 for _, k in grids)  # diam_g needs no grid


def test_suite_context_without_singles_keeps_no_engine():
    # a context built without singles memoises values only, as for products
    ctx = SuiteContext(product_cap=24)
    assert ctx.delta(cycle_graph(5)) == ctx.delta(cycle_graph(5))
    assert ctx._engines == {} and ctx._results == {}
