"""Corpus generation determinism and the verification suite."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lexhyp import (CARTESIAN, CHECKS, LEXICOGRAPHIC, Corpus, CorpusSpec, Graph, LexhypError,
                    ValidationError, cycle_graph, generate_corpus, path_graph, product,
                    random_tree, run_suite, subdivide)
from lexhyp.subdivision import j_hops
from lexhyp.suite import SuiteContext, _lift

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
    # the families come in a fixed order: the paths of every size, then the cycles
    spec = CorpusSpec(seed=1, min_vertices=3, max_vertices=6, pair_count=2)
    corpus = generate_corpus(spec)
    sizes = (3, 4, 5, 6)
    assert list(corpus.graphs[:8]) == [path_graph(n) for n in sizes] + \
        [cycle_graph(n) for n in sizes]


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


def _planted(check_id: str, g1, g2, planted):
    """Run one check on the corpus pair (g1, g2), with `planted` filed as its product."""
    corpus = Corpus(spec=CorpusSpec(), graphs=(g1, g2), pairs=((g1, g2),))
    ctx = SuiteContext(product_cap=24)
    # the suite reads the product through ctx.lex; plant one labelled lexicographic
    ctx._products[(g1, g2)] = replace(planted, kind=LEXICOGRAPHIC)
    return CHECKS[check_id](corpus, ctx)


def _planted_p5_p3(check_id: str, kind: str):
    g1, g2 = path_graph(5), path_graph(3)
    return _planted(check_id, g1, g2, product(g1, g2, kind))


def _copy_failures(failures) -> Counter:
    """Geodesic-copy failures as (x0, {y1, y2}, expected, actual), in any order."""
    return Counter((f["inputs"]["x0"], frozenset((f["inputs"]["y1"], f["inputs"]["y2"])),
                    f["expected"], f["actual"]) for f in failures)


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


def test_neighborhood_3_2_passes_on_the_lex_product():
    assert _planted_p5_p3("neighborhood_3_2", LEXICOGRAPHIC) == (3, [])


def test_neighborhood_3_2_fails_on_cartesian_product():
    # in P5 x P3 the copies at w = 0 and w = 2 are two edges from the far
    # row, and the midpoints of its edges are 5/2 from them
    instances, failures = _planted_p5_p3("neighborhood_3_2", CARTESIAN)
    assert instances == 3
    assert sorted(f["inputs"]["w"] for f in failures) == [0, 2]
    assert {f["actual"] for f in failures} == {"10/4"}


def test_geodesic_copy_gt3_fails_on_cartesian_product():
    # P3 x P5 keeps every copy {x0} x P5 isometric, so no distance beyond 3
    # shrinks: both ends of P5 (4 apart), and an end and the far edge's
    # midpoint (7/2 apart), in each of the three copies
    g1, g2 = path_graph(3), path_graph(5)
    assert _planted("geodesic_copy_gt3", g1, g2, product(g1, g2)) == (9, [])
    instances, failures = _planted("geodesic_copy_gt3", g1, g2, product(g1, g2, CARTESIAN))
    far = (({("v", 0), ("v", 4)}, 16), ({("m", (0, 1)), ("v", 4)}, 14),
           ({("v", 0), ("m", (3, 4))}, 14))
    assert instances == 9
    assert _copy_failures(failures) == Counter(
        (x0, frozenset(ys), f"< {d}/4", f"{d}/4") for x0 in range(3) for ys, d in far)


def test_geodesic_copy_5_2_fails_on_a_misfiled_product():
    # lex(P2, C4) filed under (P2, P4): the ends of P4 are adjacent in each
    # C4-copy, so an end and the midpoint of the far edge are 3/2 apart, not 5/2
    g1, g2 = path_graph(2), path_graph(4)
    assert _planted("geodesic_copy_5_2", g1, g2, product(g1, g2)) == (40, [])
    instances, failures = _planted("geodesic_copy_5_2", g1, g2, product(g1, cycle_graph(4)))
    assert instances == 40
    assert _copy_failures(failures) == Counter(
        (x0, frozenset(ys), "10/4", "6/4") for x0 in (0, 1)
        for ys in ({("m", (0, 1)), ("v", 3)}, {("v", 0), ("m", (2, 3))}))


def test_neighborhood_worst_on_j_matches_the_grid():
    # the J-only maximum is exact: for every product the check reads and
    # every copy G1 x {w}, the worst distance over J(G) to the copy's J
    # points equals the S_4 grid's, over every grid point to every point of
    # the copy's closed edges
    corpus = generate_corpus(CorpusSpec())
    ctx = SuiteContext(product_cap=corpus.spec.product_cap)
    copies = 0
    for g1, g2 in corpus.pairs:
        p = ctx.lex(g1, g2)
        if g1.is_trivial() or p.graph.vertex_count + 3 * p.graph.m > 2000:
            continue
        s = subdivide(p.graph, 4)
        hops, jpos, jh = s.hops(), {v: i for i, v in enumerate(s.j_set)}, j_hops(p.graph)
        for w in range(g2.vertex_count):
            verts = [p.vertex_id(u, w) for u in range(g1.vertex_count)]
            edges = [tuple(sorted((p.vertex_id(a, w), p.vertex_id(b, w)))) for a, b in g1.edges]
            members = [jpos[v] for v in verts] + [jpos[s.edge_points[e][2]] for e in edges]
            copy = np.array([[p.vertex_id(u, w) for u in range(g1.vertex_count)]])
            assert np.array_equal(_lift(p, g1, copy), [members])
            grid = verts + [x for e in edges for x in s.edge_points[e]]
            assert jh[:, members].min(axis=1).max() == hops[:, grid].min(axis=1).max()
            copies += 1
    assert copies > 100


def test_projection_geodesic_default_corpus():
    result = run_suite(generate_corpus(CorpusSpec()), ["projection_geodesic"]).results
    assert (result["projection_geodesic"].status, result["projection_geodesic"].instances) \
        == ("pass", 325_001)


COPY_CHECKS = ["neighborhood_3_2", "geodesic_copy_5_2", "geodesic_copy_gt3"]


def _planted_copies(order, g1, g2, planted) -> dict:
    """The copy-lemma checks in `order` on one context, with `planted`
    filed as the product of the corpus pair (g1, g2)."""
    corpus = Corpus(spec=CorpusSpec(), graphs=(g1, g2), pairs=((g1, g2),))
    ctx = SuiteContext(product_cap=24)
    ctx._products[(g1, g2)] = replace(planted, kind=LEXICOGRAPHIC)
    return {cid: CHECKS[cid](corpus, ctx) for cid in order}


def test_geodesic_copy_checks_alone_and_together():
    # the three checks share one pass per product, which the first to run
    # pays for: each gives the same instances and failures alone, with the
    # others, and in reversed order
    corpus = generate_corpus(CorpusSpec())

    def run(ids):
        report = run_suite(corpus, ids).to_json_dict()
        return {cid: {**got, "millis": 0} for cid, got in report.items()}

    together = run(COPY_CHECKS)
    assert run(COPY_CHECKS[::-1]) == together
    for cid in COPY_CHECKS:
        assert run([cid]) == {cid: together[cid]}
        assert together[cid]["status"] == "pass" and together[cid]["instances"] > 0
    # and so on the planted faults, each of which still fails its check
    p5, p3, p4, p2 = path_graph(5), path_graph(3), path_graph(4), path_graph(2)
    for g1, g2, planted, fails in (
            (p5, p3, product(p5, p3, CARTESIAN), "neighborhood_3_2"),
            (p3, p5, product(p3, p5, CARTESIAN), "geodesic_copy_gt3"),
            (p2, p4, product(p2, cycle_graph(4)), "geodesic_copy_5_2")):
        together = _planted_copies(COPY_CHECKS, g1, g2, planted)
        assert _planted_copies(COPY_CHECKS[::-1], g1, g2, planted) == together
        for cid in COPY_CHECKS:
            assert _planted_copies([cid], g1, g2, planted) == {cid: together[cid]}
        assert together[fails][1], fails


def test_a_copy_that_does_not_lift_fails_all_three_copy_checks():
    # the three checks share one pass per product, so a G2 copy that does not
    # lift is reported by each of them, neighborhood_3_2 included, though that
    # check reads no G2 copy
    p2, p3 = path_graph(2), path_graph(3)
    planted = product(p2, Graph(3, [(0, 2), (1, 2)]), LEXICOGRAPHIC)  # no edge (x, 0)-(x, 1)
    for cid in COPY_CHECKS:
        with pytest.raises(LexhypError, match=r"edge \(0, 1\) does not lift"):
            _planted_copies([cid], p2, p3, planted)


@pytest.mark.parametrize("order", ["sorted", "reversed"])
def test_each_single_gets_one_s4_grid(monkeypatch, order):
    # every check that sweeps a corpus graph shares its one default engine,
    # whichever check asks first
    from lexhyp import SubdividedGraph
    corpus = generate_corpus(CorpusSpec(seed=2, max_vertices=6, pair_count=8))
    grids: dict = {}
    init = SubdividedGraph.__init__

    def counted(self, base, k):
        grids[(base, k)] = grids.get((base, k), 0) + 1
        init(self, base, k)

    monkeypatch.setattr(SubdividedGraph, "__init__", counted)
    checks = sorted(CHECKS, reverse=order == "reversed")
    assert run_suite(corpus, checks).all_pass
    assert {g: grids.get((g, 4), 0) for g in corpus.graphs} == {g: 1 for g in corpus.graphs}
    assert not any(k == 2 for _, k in grids)  # diam_g needs no grid


def test_copy_lemma_checks_build_no_grid(monkeypatch):
    # the three copy-lemma checks read j_hops alone; the whole of `lexhyp
    # verify --seed 0` builds S_4 grids only for the graphs it sweeps
    from lexhyp import SubdividedGraph
    corpus = generate_corpus(CorpusSpec(seed=0))
    grids: Counter = Counter()
    init = SubdividedGraph.__init__

    def counted(self, base, k):
        grids[k] += 1
        init(self, base, k)

    monkeypatch.setattr(SubdividedGraph, "__init__", counted)
    report = run_suite(corpus, ["neighborhood_3_2", "geodesic_copy_5_2", "geodesic_copy_gt3"])
    assert report.all_pass and all(r.instances > 0 for r in report.results.values())
    assert grids == Counter()
    assert run_suite(corpus).all_pass
    # 91 sweeps, and 3 blocks of singles that block_decomposition sweeps whole
    assert grids == Counter({4: 94, 8: 73})


def test_membership_is_decided_once_per_graph(monkeypatch):
    # the tree-formula oracle reads the context's membership, as the other
    # two membership checks do: no graph of `lexhyp verify --seed 0` is
    # decided twice
    import lexhyp.suite
    import lexhyp.treeformula
    calls: Counter = Counter()
    real = lexhyp.suite.in_family_F

    def counted(g):
        calls[g] += 1
        return real(g)

    monkeypatch.setattr(lexhyp.suite, "in_family_F", counted)
    monkeypatch.setattr(lexhyp.treeformula, "in_family_F", counted)
    report = run_suite(generate_corpus(CorpusSpec(seed=0)),
                       ["tree_lex_oracle", "F_characterization", "f_triangle_lemma"])
    assert report.all_pass and all(r.instances > 0 for r in report.results.values())
    assert sum(calls.values()) == len(calls) == 61


def test_suite_context_without_singles_keeps_no_engine():
    # a context built without singles memoises values only, as for products
    ctx = SuiteContext(product_cap=24)
    assert ctx.delta(cycle_graph(5)) == ctx.delta(cycle_graph(5))
    assert ctx._engines == {} and ctx._results == {}


def test_block_decomposition_fails_when_the_engine_drops_a_block(monkeypatch):
    # C5 and a triangle share vertex 0, with a pendant edge: delta is 5/4,
    # from the C5 block.  An engine whose J metric loses the largest
    # block sweeps only the triangle and finds 3/4, which the check's
    # block-by-block sweep rejects
    import lexhyp.delta
    from test_blocks import C5_K3_PENDANT
    corpus = Corpus(spec=CorpusSpec(), graphs=(C5_K3_PENDANT,), pairs=())
    check = CHECKS["block_decomposition"]
    assert check(corpus, SuiteContext(product_cap=24)) == (1, [])
    real = lexhyp.delta.restrict_to_blocks
    monkeypatch.setattr(lexhyp.delta, "restrict_to_blocks",
                        lambda s, blocks, jD: real(s, [b for b in blocks if b != max(blocks, key=len)],
                                                   jD))
    instances, failures = check(corpus, SuiteContext(product_cap=24))
    assert instances == 1 and len(failures) == 1
    assert (failures[0]["expected"], failures[0]["actual"]) == ("largest block delta 5/4", "3/4")
