"""The tree o graph case table and the bound auditor."""

import pytest

from lexhyp import (Graph, QDist, ValidationError, bound_check, complete_graph,
                    cycle_graph, delta_exact, induced_subgraph, path_graph, product,
                    star_graph, tree_lex_delta, trivial_graph)

ONE = QDist.from_edges(1)
FIVE_Q = QDist(5)
SIX_Q = QDist(6)


def test_trivial_first_factor_delegates():
    case = tree_lex_delta(trivial_graph(), cycle_graph(6))
    assert case.case_id == "g1_trivial"
    assert case.value == SIX_Q  # delta(C6) = 6/4


def test_trivial_second_factor_zero():
    case = tree_lex_delta(path_graph(5), trivial_graph())
    assert (case.case_id, case.value) == ("g2_trivial", QDist(0))


def test_both_trivial():
    case = tree_lex_delta(trivial_graph(), trivial_graph())
    assert case.value == QDist(0)


def test_path_table_rows():
    assert tree_lex_delta(path_graph(2), path_graph(3)).value == ONE
    assert tree_lex_delta(path_graph(2), path_graph(2)).value == ONE
    assert tree_lex_delta(path_graph(2), path_graph(4)).value == FIVE_Q
    assert tree_lex_delta(path_graph(3), path_graph(4)).value == FIVE_Q
    assert tree_lex_delta(path_graph(3), path_graph(2)).value == FIVE_Q
    assert tree_lex_delta(path_graph(4), path_graph(2)).value == SIX_Q
    assert tree_lex_delta(path_graph(7), path_graph(5)).value == SIX_Q


def test_case_ids():
    assert tree_lex_delta(path_graph(2), path_graph(3)).case_id == "diam_g1_1_small_g2"
    assert tree_lex_delta(path_graph(2), path_graph(4)).case_id == "diam_g1_1_not_in_f"
    assert tree_lex_delta(path_graph(3), path_graph(2)).case_id == "diam_g1_2_not_in_f"
    assert tree_lex_delta(star_graph(3), cycle_graph(6)).case_id == "in_f"
    assert tree_lex_delta(path_graph(4), path_graph(2)).case_id == "diam_g1_ge_3"


def test_family_row_with_star():
    case = tree_lex_delta(star_graph(3), cycle_graph(6))
    assert case.value == SIX_Q


def test_k2_with_continuum_small_diameter():
    # C3 has point diameter 3/2 and C4 exactly 2: both land in the first row
    assert tree_lex_delta(path_graph(2), cycle_graph(3)).value == ONE
    assert tree_lex_delta(path_graph(2), cycle_graph(4)).value == ONE
    # C5 has point diameter 5/2 > 2: the 5/4 row fires
    case = tree_lex_delta(path_graph(2), cycle_graph(5))
    assert (case.case_id, case.value) == ("diam_g1_1_not_in_f", FIVE_Q)


def test_non_tree_rejected():
    with pytest.raises(ValidationError, match="tree"):
        tree_lex_delta(cycle_graph(4), path_graph(2))


@pytest.mark.parametrize("g1, keep, quarters", [
    (path_graph(2), [0, 1, 4], 5),  # an edge and a vertex: the "diam G2 <= 2" row said 1
    (path_graph(3), [0, 4], 4),  # 2K1, so K_{2,4}: no row fired
], ids=["P2-K2+K1", "P3-2K1"])
def test_disconnected_second_factor_rejected(g1, keep, quarters):
    # the diameters skip unreachable pairs, so the table would read a
    # disconnected G2 as one of finite diameter
    g2 = induced_subgraph(cycle_graph(8), keep)
    assert not g2.is_connected()
    assert delta_exact(product(g1, g2).graph).value == QDist(quarters)
    with pytest.raises(ValidationError, match="connected"):
        tree_lex_delta(g1, g2)


def test_rows_match_engine_on_small_cases():
    pairs = [
        (path_graph(2), cycle_graph(3)),
        (path_graph(2), cycle_graph(6)),
        (star_graph(2), cycle_graph(6)),
        (star_graph(3), path_graph(4)),
        (path_graph(4), star_graph(2)),
        (trivial_graph(), cycle_graph(5)),
    ]
    for g1, g2 in pairs:
        assert tree_lex_delta(g1, g2).value == delta_exact(product(g1, g2).graph).value


# ---------------------------------------------------------------------------
# bound auditor
# ---------------------------------------------------------------------------

def _audit(g1, g2):
    dp = delta_exact(product(g1, g2).graph).value
    d1 = delta_exact(g1).value
    return bound_check(g1, g2, dp, d1), dp, d1


def test_bounds_c5_p2_lower_tight():
    report, dp, d1 = _audit(cycle_graph(5), path_graph(2))
    assert report.ok
    assert dp == d1 == FIVE_Q  # lower bound attained


def test_bounds_p4_p2_upper_tight():
    report, dp, d1 = _audit(path_graph(4), path_graph(2))
    assert report.ok
    assert dp == d1 + SIX_Q == SIX_Q  # upper bound attained by a tree
    assert any(e.name == "upper_bound_tight_implies_tree" and e.ok for e in report.entries)


def test_bounds_k2_k2():
    report, dp, _ = _audit(complete_graph(2), complete_graph(2))
    assert report.ok
    assert dp >= ONE
    assert any(e.name == "both_nontrivial_ge_1" for e in report.entries)


def test_bound_check_flags_violations():
    # feed a deliberately wrong product delta: the sandwich must trip
    report = bound_check(cycle_graph(5), path_graph(2), QDist(0), FIVE_Q)
    assert not report.ok
    assert any(e.name == "sandwich_lower" for e in report.violations)


def test_bound_check_rejects_trivial_g1():
    with pytest.raises(ValidationError):
        bound_check(trivial_graph(), path_graph(2), QDist(0), QDist(0))


def test_bound_check_rejects_disconnected_factors():
    apart = induced_subgraph(cycle_graph(8), [0, 1, 4])
    for g1, g2 in ((path_graph(2), apart), (apart, path_graph(2))):
        with pytest.raises(ValidationError, match="connected"):
            bound_check(g1, g2, QDist(5), QDist(0))
