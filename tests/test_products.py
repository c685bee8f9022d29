"""Product construction, the closed-form distance, and projection."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexhyp import (CARTESIAN, LEXICOGRAPHIC, STRONG, Graph, QDist, SizeCapError,
                    ValidationError, complete_graph, cycle_graph, induced_subgraph,
                    is_isometric_embedding, lex_distance, lex_distance_matrix, parse_graph,
                    path_graph, product, project, star_graph, trivial_graph)
from lexhyp.catalog import is_isomorphic
from test_graph_core import connected_graphs

# two components: an isolated vertex and an edge (C8's vertices 0, 4, 5)
SPLIT = induced_subgraph(cycle_graph(8), [0, 4, 5])


def test_p2_lex_p2_is_k4():
    p = product(path_graph(2), path_graph(2), LEXICOGRAPHIC)
    assert p.graph == complete_graph(4)


def test_k2_lex_k3_is_k6():
    p = product(complete_graph(2), complete_graph(3), LEXICOGRAPHIC)
    assert p.graph == complete_graph(6)


def test_trivial_lex_c5_is_c5():
    p = product(trivial_graph(), cycle_graph(5), LEXICOGRAPHIC)
    assert p.graph == cycle_graph(5)
    p2 = product(cycle_graph(5), trivial_graph(), LEXICOGRAPHIC)
    assert is_isomorphic(p2.graph, cycle_graph(5))


def test_lex_product_not_commutative():
    a = product(path_graph(3), path_graph(4), LEXICOGRAPHIC).graph
    b = product(path_graph(4), path_graph(3), LEXICOGRAPHIC).graph
    assert a.vertex_count == b.vertex_count == 12
    assert a.degree_multiset() != b.degree_multiset()
    assert not is_isomorphic(a, b)


def test_vertex_count_multiplies():
    for kind in (LEXICOGRAPHIC, CARTESIAN, STRONG):
        p = product(cycle_graph(4), path_graph(3), kind)
        assert p.graph.vertex_count == 12


def test_edge_containment_chain():
    for g1, g2 in [(cycle_graph(4), path_graph(3)), (star_graph(3), cycle_graph(3))]:
        cart = set(product(g1, g2, CARTESIAN).graph.edges)
        strong = set(product(g1, g2, STRONG).graph.edges)
        lex = set(product(g1, g2, LEXICOGRAPHIC).graph.edges)
        assert cart <= strong <= lex


def test_product_cap():
    with pytest.raises(SizeCapError):
        product(complete_graph(65), complete_graph(65), LEXICOGRAPHIC)  # 4225 vertices
    with pytest.raises(ValidationError):
        product(path_graph(2), path_graph(2), "tensor")


def test_lex_distance_examples():
    p3, p4 = path_graph(3), path_graph(4)
    # same copy, far second coordinates: capped at 2
    assert lex_distance(p3, p4, (0, 0), (0, 3)) == QDist.from_edges(2)
    # different copies: first-factor distance
    assert lex_distance(p3, p4, (0, 0), (2, 3)) == QDist.from_edges(2)
    assert lex_distance(p3, p4, (1, 2), (1, 2)) == QDist(0)
    with pytest.raises(ValidationError):
        lex_distance(trivial_graph(), p4, (0, 0), (0, 3))


def test_lex_distance_matches_bfs_exhaustively():
    rng = random.Random(7)
    from lexhyp import Graph

    def rand_graph(n):
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(edges)]
        rng.shuffle(pool)
        return Graph(n, edges + sorted(pool[: rng.randint(0, n)]))

    for _ in range(12):
        g1 = rand_graph(rng.randint(2, 5))
        g2 = rand_graph(rng.randint(1, 5))
        p = product(g1, g2, LEXICOGRAPHIC)
        dist = p.graph.vertex_distances()
        n = p.graph.vertex_count
        for a in range(n):
            for b in range(n):
                got = lex_distance(g1, g2, p.coords(a), p.coords(b))
                assert got == QDist.from_edges(int(dist[a, b]))


def test_projection():
    p = product(path_graph(3), path_graph(4), LEXICOGRAPHIC)
    assert project(p, p.vertex_id(1, 2)) == 1
    # fixed second coordinate: bijection onto V(G1)
    ids = [p.vertex_id(u, 2) for u in range(3)]
    assert [project(p, i) for i in ids] == [0, 1, 2]
    # intra-copy edges project to a single vertex
    for u, v in p.graph.edges:
        cu, cv = p.coords(u), p.coords(v)
        if cu[0] == cv[0]:
            assert project(p, u) == project(p, v)


def test_copy_isometry():
    g1, g2 = cycle_graph(5), path_graph(3)
    p = product(g1, g2, LEXICOGRAPHIC)
    for w in range(g2.vertex_count):
        emb = [p.vertex_id(u, w) for u in range(g1.vertex_count)]
        assert is_isometric_embedding(g1, p.graph, emb)


def test_isometric_subproduct():
    g1, g2 = cycle_graph(6), path_graph(4)
    sub1 = path_graph(3)   # three consecutive cycle vertices embed isometrically
    sub2 = path_graph(2)
    v1, v2 = [0, 1, 2], [1, 2]
    assert is_isometric_embedding(sub1, g1, v1)
    assert is_isometric_embedding(sub2, g2, v2)
    big = product(g1, g2, LEXICOGRAPHIC)
    small = product(sub1, sub2, LEXICOGRAPHIC)
    emb = [big.vertex_id(v1[u], v2[v]) for u in range(3) for v in range(2)]
    assert is_isometric_embedding(small.graph, big.graph, emb)


def _networkx_product(g1: Graph, g2: Graph, kind: str) -> set:
    """Edge set of the networkx product, relabelled (u, v) -> u*n2 + v."""
    nx = pytest.importorskip("networkx")
    make = {LEXICOGRAPHIC: nx.lexicographic_product, CARTESIAN: nx.cartesian_product,
            STRONG: nx.strong_product}[kind]
    h1, h2 = nx.Graph(), nx.Graph()
    for h, g in ((h1, g1), (h2, g2)):
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges)
    n2 = g2.vertex_count
    return {tuple(sorted((u1 * n2 + v1, u2 * n2 + v2))) for (u1, v1), (u2, v2) in make(h1, h2).edges}


@settings(max_examples=60, deadline=None)
@given(g1=connected_graphs(max_n=5), g2=connected_graphs(max_n=5),
       kind=st.sampled_from((LEXICOGRAPHIC, CARTESIAN, STRONG)))
@example(g1=trivial_graph(), g2=cycle_graph(5), kind=LEXICOGRAPHIC)
@example(g1=cycle_graph(5), g2=trivial_graph(), kind=STRONG)
@example(g1=path_graph(3), g2=SPLIT, kind=LEXICOGRAPHIC)
@example(g1=path_graph(3), g2=SPLIT, kind=STRONG)
def test_product_matches_networkx(g1, g2, kind):
    try:
        p = product(g1, g2, kind)
    except ValidationError:  # only a disconnected product is refused
        assert kind != LEXICOGRAPHIC or g1.is_trivial()
        return
    assert p.graph.vertex_count == g1.vertex_count * g2.vertex_count
    assert set(p.graph.edges) == _networkx_product(g1, g2, kind)


@settings(max_examples=60, deadline=None)
@given(g1=connected_graphs(max_n=5), g2=connected_graphs(max_n=5))
@example(g1=path_graph(2), g2=trivial_graph())
@example(g1=cycle_graph(4), g2=SPLIT)
def test_lex_distance_matrix_matches_bfs(g1, g2):
    if g1.is_trivial():
        with pytest.raises(ValidationError):
            lex_distance_matrix(g1, g2)
        return
    bfs = product(g1, g2, LEXICOGRAPHIC).graph.vertex_distances()
    assert np.array_equal(lex_distance_matrix(g1, g2), bfs)


def test_lex_distance_across_a_disconnected_second_factor():
    # no G2 path joins v = 0 and v = 1, but the neighboring copy does: 2 steps
    g1, g2 = path_graph(2), induced_subgraph(cycle_graph(8), [0, 4])
    assert g2.vertex_distances()[0, 1] < 0
    bfs = product(g1, g2).graph.vertex_distances()
    assert lex_distance(g1, g2, (0, 0), (0, 1)) == QDist.from_edges(2) == QDist.from_edges(int(bfs[0, 1]))
    assert np.array_equal(lex_distance_matrix(g1, g2), bfs)
