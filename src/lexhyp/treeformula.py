"""Closed-form hyperbolicity of tree o graph products, plus bound auditing.

For a tree first factor the constant is decided by a seven-row table over
(diameters of both factors, family membership of the second factor); the
verification suite cross-checks every row against the exact engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .catalog import in_family_F
from .delta import delta_exact
from .errors import ValidationError
from .graph import Graph
from .qdist import FIVE_FOURTHS, ONE, THREE_HALVES, ZERO, QDist
from .subdivision import diam_g, diam_v

CASE_TEXT = {
    "g1_trivial": "G1 trivial",
    "g2_trivial": "G2 trivial",
    "diam_g1_1_small_g2": "diam G1 = 1, 1 <= diam G2 <= 2",
    "diam_g1_1_not_in_f": "diam G1 = 1, diam G2 > 2, G2 not in F",
    "diam_g1_2_not_in_f": "diam G1 = 2, G2 not in F",
    "in_f": "1 <= diam G1 <= 2, G2 in F",
    "diam_g1_ge_3": "diam G1 >= 3",
}


@dataclass(frozen=True)
class TreeLexCase:
    """Which table row fired and the resulting constant."""

    case_id: str
    inputs_summary: dict
    value: QDist

    @property
    def description(self) -> str:
        return CASE_TEXT[self.case_id]


def tree_lex_delta(g1: Graph, g2: Graph) -> TreeLexCase:
    """Hyperbolicity constant of g1 o g2 for a tree g1, via the case table.

    Tree-ness is validated structurally (connected with n-1 edges) so the
    answer never leans on the exact engine, except for the trivial-g1 row
    where the product is isomorphic to g2 itself.  The table assumes a
    connected g2 (P3 o 2K1 is K_{2,4}, with delta 1, which no row gives),
    so a disconnected one raises ValidationError.
    """
    return _tree_lex_case(g1, g2, lambda g: in_family_F(g)[0])


def _tree_lex_case(g1: Graph, g2: Graph, in_family: Callable[[Graph], bool]) -> TreeLexCase:
    """`tree_lex_delta`, deciding membership in F with `in_family`: the
    verification suite passes its own, which decides each graph once."""
    if not g1.is_tree():
        raise ValidationError("first factor must be a tree")
    if not g2.is_connected():
        raise ValidationError("second factor must be connected")

    TWO = QDist.from_edges(2)
    summary: dict = {"g1_trivial": g1.is_trivial(), "g2_trivial": g2.is_trivial()}

    if g1.is_trivial():
        value = ZERO if g2.is_trivial() else delta_exact(g2).value
        return TreeLexCase("g1_trivial", summary, value)
    if g2.is_trivial():
        return TreeLexCase("g2_trivial", summary, ZERO)

    d1 = diam_v(g1)  # for a tree the point diameter equals the vertex diameter
    d2 = diam_g(g2)
    in_f = in_family(g2)
    summary.update({"diam_g1": str(d1), "diam_g2": str(d2), "g2_in_f": in_f})

    rows = [
        ("diam_g1_1_small_g2", d1 == ONE and ONE <= d2 <= TWO, ONE),
        ("diam_g1_1_not_in_f", d1 == ONE and d2 > TWO and not in_f, FIVE_FOURTHS),
        ("diam_g1_2_not_in_f", d1 == TWO and d2 >= ONE and not in_f, FIVE_FOURTHS),
        ("in_f", ONE <= d1 <= TWO and in_f, THREE_HALVES),
        ("diam_g1_ge_3", d1 > TWO and d2 >= ONE, THREE_HALVES),
    ]
    fired = [(cid, val) for cid, cond, val in rows if cond]
    if len(fired) != 1:
        raise AssertionError(f"case table must fire exactly once, fired {fired} "
                             f"for diam1={d1} diam2={d2} in_f={in_f}")
    cid, value = fired[0]
    return TreeLexCase(cid, summary, value)


# ---------------------------------------------------------------------------
# Bound auditing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundEntry:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class BoundReport:
    entries: tuple[BoundEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def violations(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)


def bound_check(g1: Graph, g2: Graph, delta_product: QDist, delta_g1: QDist) -> BoundReport:
    """Audit the sandwich and every applicable lower bound for one pair.

    `delta_product` and `delta_g1` are supplied by the caller (usually the
    exact engine) so the audit itself stays engine-independent.  Both
    factors must be connected, as the diameters it reads skip unreachable
    pairs.
    """
    if g1.is_trivial():
        raise ValidationError("bound audit needs a non-trivial first factor")
    if not (g1.is_connected() and g2.is_connected()):
        raise ValidationError("bound audit needs connected factors")
    TWO = QDist.from_edges(2)
    THREE = QDist.from_edges(3)
    dv1 = diam_v(g1)
    dg2 = diam_g(g2)
    entries = [
        BoundEntry("sandwich_lower", delta_g1 <= delta_product,
                   f"delta(G1)={delta_g1} <= delta(lex)={delta_product}"),
        BoundEntry("sandwich_upper", delta_product <= delta_g1 + THREE_HALVES,
                   f"delta(lex)={delta_product} <= delta(G1)+3/2={delta_g1 + THREE_HALVES}"),
    ]
    if not g2.is_trivial():
        entries.append(BoundEntry("both_nontrivial_ge_1", delta_product >= ONE,
                                  f"delta(lex)={delta_product} >= 1"))
        if dv1 == TWO:
            entries.append(BoundEntry("diam_v_g1_2_ge_5_4", delta_product >= FIVE_FOURTHS,
                                      f"diam V(G1)=2: delta(lex)={delta_product} >= 5/4"))
        if dv1 >= THREE:
            entries.append(BoundEntry("diam_v_g1_ge_3_ge_3_2", delta_product >= THREE_HALVES,
                                      f"diam V(G1)>=3: delta(lex)={delta_product} >= 3/2"))
    if dg2 > TWO:
        entries.append(BoundEntry("diam_g2_gt_2_ge_5_4", delta_product >= FIVE_FOURTHS,
                                  f"diam G2={dg2}>2: delta(lex)={delta_product} >= 5/4"))
    if delta_product == delta_g1 + THREE_HALVES:
        tight_ok = g1.is_tree() and delta_product == THREE_HALVES and not g2.is_trivial()
        entries.append(BoundEntry("upper_bound_tight_implies_tree", tight_ok,
                                  "delta(lex)=delta(G1)+3/2 forces a tree G1 with value 3/2"))
    return BoundReport(entries=tuple(entries))
