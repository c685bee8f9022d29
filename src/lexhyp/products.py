"""Lexicographic, Cartesian and strong graph products, in closed form.

Vertex (u, v) has id u*n2 + v, the index order of Kronecker products, so the
products are the standard adjacency identities (Hammack, Imrich and
Klavzar, *Handbook of Product Graphs*), with I the identity and J all-ones:

    lexicographic  A(G1 o G2)  = A1 (x) J + I (x) A2
    Cartesian      A(G1 [] G2) = A1 (x) I + I (x) A2
    strong         A(G1 x G2)  = A(G1 [] G2) + A1 (x) A2

Index arrays of nonzero entries stand in for the matrices, so memory grows
with the edge count.  For non-trivial G1 the metric of G1 o G2 is d1(u, u')
across copies and min(2, d2(v, v')) inside one copy, where a pair unreachable
in G2 counts as infinitely far, so 2 (via a neighboring copy).

Each product carries automorphisms from its construction (Sabidussi, "The
composition of graphs", 1959; the Handbook, above), built from generators
of the factors' groups (`Graph.automorphism_generators`) the first time
they are asked for:

    every kind     sigma x id: (u, v) -> (sigma u, v), sigma in Aut(G1)
    lexicographic  tau on fiber u alone: (u, v) -> (u, tau v), other fibers fixed
    Cartesian,     id x tau: (u, v) -> (u, tau v) on every fiber at once
    strong

sigma x id maps A1 to itself and leaves the second coordinate alone, so it
preserves each identity above.  In G1 o G2 a vertex's neighbors in other
fibers depend only on its fiber (the A1 (x) J term), so tau may act on one
fiber alone; in the Cartesian and strong products the A1 (x) I and A1 (x) A2
terms tie (u, v) to (u', v) and (u', v') across fibers, so tau must act on
every fiber alike.  The lexicographic generators give the wreath product
Aut(G2) wr Aut(G1), the others Aut(G1) x Aut(G2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import SizeCapError, ValidationError
from .graph import UNREACHABLE, Graph
from .qdist import QDist

LEXICOGRAPHIC = "lexicographic"
CARTESIAN = "cartesian"
STRONG = "strong"
PRODUCT_KINDS = (LEXICOGRAPHIC, CARTESIAN, STRONG)

DEFAULT_PRODUCT_CAP = 4096


@dataclass(frozen=True)
class ProductGraph:
    """A product graph plus its factors and the (u, v) <-> id bijection."""

    graph: Graph
    factor1: Graph
    factor2: Graph
    kind: str

    def vertex_id(self, u: int, v: int) -> int:
        n2 = self.factor2.vertex_count
        if not (0 <= u < self.factor1.vertex_count and 0 <= v < n2):
            raise ValidationError(f"({u},{v}) is not a vertex of the product")
        return u * n2 + v

    def coords(self, vid: int) -> tuple[int, int]:
        n2 = self.factor2.vertex_count
        if not (0 <= vid < self.graph.vertex_count):
            raise ValidationError(f"{vid} is not a product vertex id")
        return divmod(vid, n2)


def _kron(x: np.ndarray, y: np.ndarray, ny: int) -> np.ndarray:
    """Nonzero (row, col) pairs of X (x) Y from those of X and the ny x ny Y."""
    return (x[:, None, :] * ny + y[None, :, :]).reshape(-1, 2)


def product(g1: Graph, g2: Graph, kind: str = LEXICOGRAPHIC) -> ProductGraph:
    """Materialize the full adjacency of the chosen product of g1 and g2;
    fails fast with SizeCapError above DEFAULT_PRODUCT_CAP vertices."""
    if kind not in PRODUCT_KINDS:
        raise ValidationError(f"unknown product kind {kind!r}")
    n1, n2 = g1.vertex_count, g2.vertex_count
    if n1 * n2 > DEFAULT_PRODUCT_CAP:
        raise SizeCapError(f"product needs {n1 * n2} vertices, cap is {DEFAULT_PRODUCT_CAP}")
    diag1, diag2 = (np.repeat(np.arange(n), 2).reshape(n, 2) for n in (n1, n2))
    if kind != LEXICOGRAPHIC:
        block = diag2 if kind == CARTESIAN else np.concatenate([diag2, g2.arcs()])  # I, I + A2
    else:  # J, left empty when G1 has no edge to expand it (n2 * n2 entries)
        block = np.argwhere(np.ones((n2, n2) if g1.m else (0, 0), dtype=bool))
    adj = np.concatenate([_kron(g1.arcs(), block, n2), _kron(diag1, g2.arcs(), n2)])
    graph = Graph(n1 * n2, adj[adj[:, 0] < adj[:, 1]])
    graph._automorphisms = partial(_automorphisms, g1, g2, kind)  # built on first use
    return ProductGraph(graph=graph, factor1=g1, factor2=g2, kind=kind)


def _automorphisms(g1: Graph, g2: Graph, kind: str) -> np.ndarray:
    """The construction's automorphisms of the product, one vertex
    permutation per row: sigma x id for each generator sigma of g1, and per
    generator tau of g2 either tau on each fiber alone (lexicographic) or
    id x tau (Cartesian, strong)."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    s1, s2 = g1.automorphism_generators(), g2.automorphism_generators()
    ids = np.arange(n1 * n2, dtype=np.int32).reshape(n1, n2)
    lifted = s1[:, :, None] * n2 + ids[0]  # sigma x id: (u, v) -> (sigma u, v)
    if kind == LEXICOGRAPHIC:
        fibers = np.broadcast_to(ids, (n1, len(s2), n1, n2)).copy()
        at = np.arange(n1)
        fibers[at, :, at] = at[:, None, None] * n2 + s2  # tau on fiber u: (u, v) -> (u, tau v)
    else:
        fibers = ids[:, 0, None] + s2[:, None, :]  # id x tau: (u, v) -> (u, tau v)
    out = np.concatenate([lifted.reshape(-1, n1 * n2), fibers.reshape(-1, n1 * n2)])
    out.setflags(write=False)
    return out


def _lex_hops(g1: Graph, g2: Graph, u, v, u2, v2) -> np.ndarray:
    """The closed form at (u, v), (u2, v2), elementwise over index arrays."""
    if g1.is_trivial():
        raise ValidationError("closed-form lex distance needs a non-trivial first factor")
    d2 = g2.vertex_distances()[v, v2]
    within = np.where((d2 == UNREACHABLE) | (d2 > 2), 2, d2)
    return np.where(u == u2, within, g1.vertex_distances()[u, u2])


def lex_distance_matrix(g1: Graph, g2: Graph) -> np.ndarray:
    """Closed-form hop matrix of g1 o g2 by product vertex id: D1 expanded by
    n2 x n2 blocks, min(2, D2) on each copy's diagonal block (non-trivial g1)."""
    u, v = np.divmod(np.arange(g1.vertex_count * g2.vertex_count), g2.vertex_count)
    return _lex_hops(g1, g2, u[:, None], v[:, None], u[None, :], v[None, :])


def lex_distance(g1: Graph, g2: Graph, a: tuple[int, int], b: tuple[int, int]) -> QDist:
    """Closed-form vertex distance in g1 o g2 from factor metrics only.  Needs
    non-trivial g1: for trivial g1 the product is g2, with g2's own metric."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    for x, y in (a, b):
        if not (0 <= x < n1 and 0 <= y < n2):
            raise ValidationError(f"vertex {(x, y)} outside the factor ranges {n1} x {n2}")
    (u, v), (u2, v2) = a, b
    return QDist.from_edges(int(_lex_hops(g1, g2, u, v, u2, v2)))


def project(p: ProductGraph, vid: int) -> int:
    """First coordinate of a product vertex."""
    return p.coords(vid)[0]
