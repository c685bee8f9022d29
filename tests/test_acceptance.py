"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every expected value is exact (integer quarter-units); tolerances are zero.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time

import numpy as np

from lexhyp import (CorpusSpec, DeltaConfig, Graph, QDist, bound_check, complete_graph,
                    cycle_graph, delta_bigon_lower_bound, delta_exact, diam_g, diam_v,
                    generate_corpus, get_catalog, in_family_F, lex_distance_matrix, path_graph,
                    product, random_connected, random_tree, run_suite, star_graph,
                    tree_lex_delta, trivial_graph)

ONE = QDist.from_edges(1)
FIVE_Q = QDist(5)
SIX_Q = QDist(6)


def _verdict(num: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"\nACCEPTANCE {num:2d} {name}: {state} ({elapsed:.1f}s){extra}")
    return ok


def test_criterion_01_cycle_values():
    t0 = time.monotonic()
    got = {n: delta_exact(cycle_graph(n)).value for n in range(3, 9)}
    ok = all(got[n] == QDist(n) for n in range(3, 9))
    elapsed = time.monotonic() - t0
    assert _verdict(1, "cycle values n/4 (n=3..8)", ok and elapsed < 10, elapsed,
                    str({n: str(v) for n, v in got.items()}))


def test_criterion_02_tree_values():
    t0 = time.monotonic()
    rng = random.Random(42)
    trees = [random_tree(rng.randint(2, 12), rng) for _ in range(20)]
    vals = [delta_exact(t).value for t in trees]
    ok = all(v == QDist(0) for v in vals)
    elapsed = time.monotonic() - t0
    assert _verdict(2, "20 random trees (<=12 vertices) have delta 0",
                    ok and elapsed < 10, elapsed)


def test_criterion_03_pn_p2():
    t0 = time.monotonic()
    want = {2: ONE, 3: FIVE_Q, 4: SIX_Q, 5: SIX_Q}
    got = {n: delta_exact(product(path_graph(n), path_graph(2)).graph).value
           for n in (2, 3, 4, 5)}
    ok = got == want
    elapsed = time.monotonic() - t0
    assert _verdict(3, "delta(Pn o P2) = 1, 5/4, 3/2, 3/2", ok and elapsed < 60, elapsed,
                    str({n: str(v) for n, v in got.items()}))


def test_criterion_04_cn_p2():
    t0 = time.monotonic()
    want = {3: ONE, 4: FIVE_Q, 5: FIVE_Q, 6: SIX_Q}
    got = {n: delta_exact(product(cycle_graph(n), path_graph(2)).graph).value
           for n in (3, 4, 5, 6)}
    ok = got == want
    elapsed = time.monotonic() - t0
    assert _verdict(4, "delta(Cn o P2) = 1, 5/4, 5/4, 3/2", ok and elapsed < 300, elapsed,
                    str({n: str(v) for n, v in got.items()}))


def test_criterion_05_complete_products():
    t0 = time.monotonic()
    got = {}
    for m, n in ((2, 2), (2, 3), (3, 3)):
        p = product(complete_graph(m), complete_graph(n)).graph
        assert p == complete_graph(m * n)
        got[(m, n)] = delta_exact(p).value
    ok = all(v == ONE for v in got.values())
    elapsed = time.monotonic() - t0
    assert _verdict(5, "delta(Km o Kn) = 1", ok and elapsed < 60, elapsed)


def test_criterion_06_distance_formula():
    t0 = time.monotonic()
    rng = random.Random(606)
    pairs_checked = 0
    mismatches = 0
    while pairs_checked < 50:
        n1 = rng.randint(2, 20)
        n2 = rng.randint(1, max(1, 400 // n1))
        g1 = random_connected(n1, rng)
        g2 = random_connected(n2, rng) if n2 > 1 else trivial_graph()
        dist = product(g1, g2).graph.vertex_distances()
        # one comparison covers every vertex pair; count each unordered pair once
        mismatches += int(np.triu(lex_distance_matrix(g1, g2) != dist, 1).sum())
        pairs_checked += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and pairs_checked >= 50
    assert _verdict(6, "closed-form lex distance == BFS on >= 50 pairs",
                    ok and elapsed < 60, elapsed,
                    f"pairs={pairs_checked} mismatches={mismatches}")


def test_criterion_07_sandwich_and_lower_bounds():
    t0 = time.monotonic()
    audited = 0
    violations = []
    for seed in range(5):
        corpus = generate_corpus(CorpusSpec(seed=seed, max_vertices=8, pair_count=40))
        for g1, g2 in corpus.pairs:
            if g1.is_trivial() or g1.vertex_count * g2.vertex_count > 24:
                continue
            dp = delta_exact(product(g1, g2).graph).value
            d1 = delta_exact(g1).value
            report = bound_check(g1, g2, dp, d1)
            audited += 1
            if not report.ok:
                violations.append((seed, repr(g1), repr(g2),
                                   [e.name for e in report.violations]))
    elapsed = time.monotonic() - t0
    ok = audited >= 100 and not violations
    assert _verdict(7, "sandwich + lower bounds on >= 100 random pairs",
                    ok and elapsed < 1800, elapsed,
                    f"pairs={audited} violations={violations[:3]}")


def _tree_pairs_for_oracle():
    """Tree o graph pairs (product <= 24) covering every diameter class of the
    tree and both family outcomes for the second factor."""
    cat = get_catalog()
    members = [m for m in cat.members if m.vertex_count <= 8]
    e1, k2, p3, s3, p4, p5 = (trivial_graph(), path_graph(2), path_graph(3),
                              star_graph(3), path_graph(4), path_graph(5))
    pairs = []
    for g2 in (cycle_graph(5), cycle_graph(6), path_graph(4), complete_graph(4),
               star_graph(3), cycle_graph(3)):
        pairs += [(e1, g2), (k2, g2), (p3, g2), (p4, g2)]
    pairs += [(s3, cycle_graph(6)), (s3, path_graph(6)), (p5, path_graph(2)),
              (e1, trivial_graph()), (k2, trivial_graph()), (p4, trivial_graph())]
    for m in members:
        if 2 * m.vertex_count <= 24:
            pairs.append((k2, m))
        if 3 * m.vertex_count <= 24:
            pairs.append((p3, m))
    rng = random.Random(808)
    while len(pairs) < 70:
        t = random_tree(rng.randint(1, 6), rng)
        g2 = random_connected(rng.randint(1, 24 // t.vertex_count), rng)
        pairs.append((t, g2))
    return pairs


def test_criterion_08_tree_formula_oracle():
    t0 = time.monotonic()
    pairs = _tree_pairs_for_oracle()
    diam_classes = set()
    f_outcomes = set()
    mismatches = []
    for g1, g2 in pairs:
        case = tree_lex_delta(g1, g2)
        engine = delta_exact(product(g1, g2).graph).value
        d1 = diam_v(g1).as_fraction
        diam_classes.add(0 if d1 == 0 else 1 if d1 == 1 else 2 if d1 == 2 else 3)
        f_outcomes.add(in_family_F(g2)[0])
        if case.value != engine:
            mismatches.append((repr(g1), repr(g2), case.case_id, str(case.value), str(engine)))
    elapsed = time.monotonic() - t0
    ok = (len(pairs) >= 60 and not mismatches
          and diam_classes == {0, 1, 2, 3} and f_outcomes == {False, True})
    assert _verdict(8, "tree closed form == engine on >= 60 covering pairs",
                    ok, elapsed,
                    f"pairs={len(pairs)} diam_classes={sorted(diam_classes)} "
                    f"f_outcomes={sorted(f_outcomes)} mismatches={mismatches[:3]}")


def test_criterion_09_family_characterization():
    t0 = time.monotonic()
    cat = get_catalog()
    k2, s2 = path_graph(2), star_graph(2)
    bad = []
    checked = 0
    for g1 in (k2, s2):
        for member in cat.members:
            val = delta_exact(product(g1, member).graph).value
            checked += 1
            if val != SIX_Q:
                bad.append(("member", repr(member), str(val)))
    rng = random.Random(909)
    non_members = []
    while len(non_members) < 20:
        g = random_connected(rng.randint(2, 8), rng)
        if not in_family_F(g)[0]:
            non_members.append(g)
    for g2 in non_members:
        for g1 in (k2, s2):
            val = delta_exact(product(g1, g2).graph).value
            checked += 1
            if val == SIX_Q:
                bad.append(("non-member", repr(g2), str(val)))
    elapsed = time.monotonic() - t0
    ok = not bad
    assert _verdict(9, "delta = 3/2 iff G2 in family (K2 and star:2 factors)",
                    ok, elapsed, f"instances={checked} bad={bad[:3]}")


def test_criterion_10_structural_robustness():
    t0 = time.monotonic()
    checks = ["quarter_multiple", "delta_diam_half", "grid_stability_S8",
              "cycle_only_equivalence", "bigon_lower_bound", "isometric_monotonicity"]
    failed = {}
    instances = 0
    for seed in (0, 1):
        corpus = generate_corpus(CorpusSpec(seed=seed, max_vertices=8, pair_count=20))
        report = run_suite(corpus, checks)
        instances += sum(r.instances for r in report.results.values())
        for cid, r in report.results.items():
            if r.status != "pass":
                failed[f"seed{seed}:{cid}"] = r.failures[:2]
    elapsed = time.monotonic() - t0
    ok = not failed
    assert _verdict(10, "structural invariants on the full corpus", ok, elapsed,
                    f"instances={instances} failed={failed}")


def test_criterion_11_upper_bound_strict_for_non_trees():
    t0 = time.monotonic()
    checked = 0
    violations = []
    non_trees = [cycle_graph(3), cycle_graph(4), cycle_graph(5), complete_graph(3),
                 complete_graph(4), Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])]
    partners = [trivial_graph(), path_graph(2), path_graph(3), cycle_graph(3),
                complete_graph(3), star_graph(2)]
    for g1 in non_trees:
        d1 = delta_exact(g1).value
        for g2 in partners:
            if g1.vertex_count * g2.vertex_count > 24:
                continue
            dp = delta_exact(product(g1, g2).graph).value
            checked += 1
            if not dp < d1 + SIX_Q:
                violations.append((repr(g1), repr(g2), str(dp), str(d1)))
    for seed in range(3):
        corpus = generate_corpus(CorpusSpec(seed=seed, max_vertices=8, pair_count=20))
        for g1, g2 in corpus.pairs:
            if g1.is_tree() or g1.vertex_count * g2.vertex_count > 24:
                continue
            dp = delta_exact(product(g1, g2).graph).value
            d1 = delta_exact(g1).value
            checked += 1
            if not dp < d1 + SIX_Q:
                violations.append((repr(g1), repr(g2), str(dp), str(d1)))
    elapsed = time.monotonic() - t0
    ok = checked > 0 and not violations
    assert _verdict(11, "non-tree G1 keeps delta(lex) < delta(G1) + 3/2", ok, elapsed,
                    f"instances={checked} violations={violations[:3]}")
