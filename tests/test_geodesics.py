"""Geodesic enumeration: counts, order, caps, bottleneck tables and profiles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexhyp import (GeodesicCapError, Graph, complete_graph, cycle_graph, enumerate_geodesics,
                    induced_subgraph, path_graph, product, subdivide)
from lexhyp.geodesics import (enumerate_paths, farthest_geodesic_profile, farthest_geodesic_table,
                              geodesic_count, interval, j_source_table)
from lexhyp.graph import neighbor_arcs


def test_c4_opposite_vertices_two_geodesics():
    s = subdivide(cycle_graph(4), 4)
    geos = enumerate_geodesics(s, 0, 2)
    assert len(geos) == 2
    assert all(len(p) == 9 for p in geos)  # 2 edges = 8 hops


def test_tree_unique_geodesic():
    s = subdivide(path_graph(3), 4)
    assert len(enumerate_geodesics(s, 0, 2)) == 1


def test_adjacent_vertices_unique_geodesic_k4():
    s = subdivide(complete_graph(4), 4)
    for a in range(4):
        for b in range(a + 1, 4):
            assert len(enumerate_geodesics(s, a, b)) == 1


def test_lexicographic_order_and_determinism():
    s = subdivide(cycle_graph(4), 2)
    geos = enumerate_geodesics(s, 0, 2)
    assert geos == sorted(geos)
    assert geos == enumerate_geodesics(s, 0, 2)


def test_cap_error_carries_pair():
    s = subdivide(cycle_graph(4), 4)
    with pytest.raises(GeodesicCapError) as err:
        enumerate_geodesics(s, 0, 2, cap=1)
    assert err.value.pair == (0, 2)
    assert err.value.cap == 1


def test_counts_match_enumeration():
    s = subdivide(complete_graph(5), 2)
    hops = s.metrics().hops
    snbrs = [s.neighbors(v) for v in range(s.grid_n)]
    for a in range(s.grid_n):
        for b in range(a + 1, s.grid_n):
            n_paths = geodesic_count(snbrs, hops, a, b)
            assert n_paths == len(enumerate_paths(snbrs, hops, a, b, cap=10_000))


def test_interval_is_union_of_geodesics():
    s = subdivide(cycle_graph(6), 2)
    hops = s.metrics().hops
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    a, b = 0, 3  # antipodal on C6: both arcs are geodesics
    iv = set(interval(hops, a, b).tolist())
    union = set()
    for p in enumerate_paths(nbrs, hops, a, b, cap=100):
        union |= set(p)
    assert iv == union


@st.composite
def connected_graphs(draw, max_n: int = 6) -> Graph:
    """A random spanning tree on 2..max_n vertices plus any set of extra edges."""
    n = draw(st.integers(2, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    return Graph(n, tree + extra)


# K_{2,4}: vertex 0 is reached from vertex 1 through all four vertices of the
# other side, so its grid point has four DAG predecessors.  Joining a new
# vertex to 2, 3 and 4 puts it near the first three routes only, so the table
# entry at it depends on the fourth predecessor.
K24 = Graph(6, [(u, v) for u in (0, 1) for v in (2, 3, 4, 5)])
K24_NEAR_THREE = Graph(7, [(u, v) for u in (0, 1) for v in (2, 3, 4, 5)] + [(2, 6), (3, 6), (4, 6)])


def _farthest_by_enumeration(nbrs, hops, a: int, q: int) -> np.ndarray:
    """For every p: max over a-q geodesics of min distance from p to the path."""
    paths = np.asarray(enumerate_paths(nbrs, hops, a, q, cap=100_000))
    return hops[:, paths].min(axis=2).max(axis=1)


@settings(max_examples=15, deadline=None)
@given(g=connected_graphs(), k=st.sampled_from((4, 8)))
@example(g=cycle_graph(5), k=4)
@example(g=product(path_graph(3), path_graph(2)).graph, k=4)
@example(g=product(path_graph(3), path_graph(2)).graph, k=8)
@example(g=K24, k=4)
@example(g=K24_NEAR_THREE, k=4)
def test_farthest_geodesic_profile_against_enumeration(g, k):
    # every column of the table from every J-point source, on the S_k grid of g
    s = subdivide(g, k)
    hops = s.metrics().hops
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    if g in (K24, K24_NEAR_THREE):
        # the DP folds past the second predecessor
        assert max(sum(hops[a, w] == hops[a, q] - 1 for w in nbrs[q])
                   for a in s.j_set for q in range(s.grid_n)) >= 3
    arcs = neighbor_arcs(nbrs)
    for a in s.j_set:
        table = farthest_geodesic_table(hops, arcs, a)
        assert table.shape == hops.shape
        for q in range(s.grid_n):
            assert np.array_equal(table[:, q], _farthest_by_enumeration(nbrs, hops, a, q)), (a, q)
        for b in s.j_set:
            assert np.array_equal(farthest_geodesic_profile(nbrs, hops, a, b), table[:, b])


def _base_indegree(g: Graph) -> int:
    """Most edges from the previous BFS layer into one vertex, over all sources."""
    d = g.vertex_distances()
    return max(sum(d[a, u] == d[a, v] - 1 for u in g.neighbors(v))
               for a in range(g.vertex_count) for v in range(g.vertex_count))


# two components: a source in one leaves the other's points unreachable.  In
# K4_AND_K2 (two fibers of P4 o P2, and a third apart) the unreachable K4 has
# points equidistant from both ends of an edge, where a false meeting-edge
# closed form would lower the edge's midpoint column.
TWO_EDGES = induced_subgraph(cycle_graph(8), [0, 1, 4, 5])
K4_AND_K2 = induced_subgraph(product(path_graph(4), path_graph(2)).graph, [0, 1, 2, 3, 6, 7])


def induced_subgraphs(max_n: int = 8):
    """Induced subgraphs of drawn connected graphs: often disconnected."""
    return connected_graphs(max_n).flatmap(lambda g: st.sets(
        st.integers(0, g.vertex_count - 1), min_size=1).map(lambda keep: induced_subgraph(g, keep)))


@settings(max_examples=40, deadline=None)
@given(g=st.one_of(connected_graphs(max_n=8), induced_subgraphs()), k=st.sampled_from((2, 4, 8)))
@example(g=K24, k=4)
@example(g=K24_NEAR_THREE, k=4)
@example(g=K24_NEAR_THREE, k=8)
@example(g=product(path_graph(3), path_graph(2)).graph, k=4)
@example(g=TWO_EDGES, k=4)
@example(g=TWO_EDGES, k=8)
@example(g=K4_AND_K2, k=4)
@example(g=K4_AND_K2, k=2)
def test_j_source_table_matches_grid_dp(g, k):
    # the base-graph DP against the grid DP's J columns, from every J-point
    # source (vertices and midpoints), bit for bit and dtype included
    s = subdivide(g, k)
    hops = s.metrics().hops
    arcs = neighbor_arcs(s._neighbors)
    j = list(s.j_set)
    if g in (K24, K24_NEAR_THREE):
        assert _base_indegree(g) >= 3  # the layer step maxes over three or more edges
    for a in s.j_set:
        want = np.ascontiguousarray(farthest_geodesic_table(hops, arcs, a)[:, j])
        got = j_source_table(s, a)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want), a


def test_tables_one_byte_on_wide_grids():
    # lex(P3,K6) has 369 grid points but is 12 hops across: the dtype follows
    # the hop counts, so both kernels store one byte per entry
    s = subdivide(product(path_graph(3), complete_graph(6)).graph, 4)
    hops = s.metrics().hops
    assert s.grid_n > 128 and hops.max() == 12
    arcs = neighbor_arcs(s._neighbors)
    j = list(s.j_set)
    for a in s.j_set:
        want = np.ascontiguousarray(farthest_geodesic_table(hops, arcs, a)[:, j])
        got = j_source_table(s, a)
        assert got.dtype == want.dtype == np.int8
        assert np.array_equal(got, want), a
