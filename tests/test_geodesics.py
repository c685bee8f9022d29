"""Geodesic enumeration: counts, order, caps, bottleneck tables and profiles."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lexhyp.geodesics as geodesics
from lexhyp import (GeodesicCapError, Graph, SubdividedGraph, complete_graph, cycle_graph,
                    enumerate_geodesics, induced_subgraph, path_graph, product, subdivide)
from lexhyp.geodesics import (enumerate_paths, farthest_geodesic_profile, farthest_geodesic_table,
                              geodesic_count, interval, j_source_table)


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
    hops = s.hops()
    snbrs = [s.neighbors(v) for v in range(s.grid_n)]
    for a in range(s.grid_n):
        for b in range(a + 1, s.grid_n):
            n_paths = geodesic_count(snbrs, hops, a, b)
            assert n_paths == len(enumerate_paths(snbrs, hops, a, b, cap=10_000))


def test_enumeration_is_lexicographic():
    s = subdivide(product(path_graph(3), cycle_graph(4)).graph, 4)
    hops = s.hops()
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    for a, b in ((0, 8), (0, 11), (1, 10), (s.grid_n - 1, 0)):
        paths = enumerate_paths(nbrs, hops, a, b, cap=10_000)
        assert len(paths) == geodesic_count(nbrs, hops, a, b) > 1
        assert paths == sorted(set(paths))


def test_enumeration_longer_than_recursion_limit():
    # the S_4 grid of P400 is 1596 hops end to end
    s = subdivide(path_graph(400), 4)
    (geo,) = enumerate_geodesics(s, 0, 399)
    hops = s.hops()
    assert len(geo) == 1597 and geo[0] == 0 and geo[-1] == 399
    assert (hops[geo[:-1], geo[1:]] == 1).all()


def test_interval_is_union_of_geodesics():
    s = subdivide(cycle_graph(6), 2)
    hops = s.hops()
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


def _farthest_by_enumeration(nbrs, hops, a: int, q: int) -> np.ndarray:
    """For every p: max over a-q geodesics of min distance from p to the path."""
    paths = np.asarray(enumerate_paths(nbrs, hops, a, q, cap=100_000))
    return hops[:, paths].min(axis=2).max(axis=1)


@settings(max_examples=15, deadline=None)
@given(g=st.one_of(connected_graphs(), induced_subgraphs(max_n=6)), k=st.sampled_from((4, 8)))
@example(g=cycle_graph(5), k=4)
@example(g=product(path_graph(3), path_graph(2)).graph, k=4)
@example(g=product(path_graph(3), path_graph(2)).graph, k=8)
@example(g=K24, k=4)
@example(g=K24_NEAR_THREE, k=4)
@example(g=TWO_EDGES, k=4)
@example(g=K4_AND_K2, k=4)
def test_farthest_geodesic_profile_against_enumeration(g, k):
    # every column of the table from every J-point source, on the S_k grid of
    # g; the columns of points the source cannot reach are their hop columns
    s = subdivide(g, k)
    hops = s.hops()
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    if g in (K24, K24_NEAR_THREE):
        # some point has three or more DAG predecessors
        assert max(sum(hops[a, w] == hops[a, q] - 1 for w in nbrs[q])
                   for a in s.j_set for q in range(s.grid_n)) >= 3
    for a in s.j_set:
        table = farthest_geodesic_table(nbrs, hops, a)
        assert table.shape == hops.shape
        for q in range(s.grid_n):
            want = hops[:, q] if hops[a, q] < 0 else _farthest_by_enumeration(nbrs, hops, a, q)
            assert np.array_equal(table[:, q], want), (a, q)
        for b in s.j_set:
            assert np.array_equal(farthest_geodesic_profile(nbrs, hops, a, b), table[:, b])


def _base_indegree(g: Graph) -> int:
    """Most edges from the previous BFS layer into one vertex, over all sources."""
    d = g.vertex_distances()
    return max(sum(d[a, u] == d[a, v] - 1 for u in g.neighbors(v))
               for a in range(g.vertex_count) for v in range(g.vertex_count))


def _has_meeting_edge(s: SubdividedGraph) -> bool:
    """Whether some J-point source of `s` meets an edge other than its own:
    both ends reachable and equally far from it."""
    n, k, hops = s.base.vertex_count, s.k, s.hops()
    u, v = s.ends.T
    for a in s.j_set:
        da = hops[a, :n]
        meet = (da[u] == da[v]) & (da[u] >= 0)
        if a >= n:
            meet[(a - n) // (k - 1)] = False
        if meet.any():
            return True
    return False


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
@example(g=cycle_graph(7), k=8)
@example(g=complete_graph(5), k=4)
def test_j_source_table_matches_grid_dp(g, k):
    # the base-graph DP against the reference grid DP's J columns, from every
    # J-point source (vertices and midpoints), bit for bit and dtype included
    s = subdivide(g, k)
    hops = s.hops()
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    j = list(s.j_set)
    if g in (K24, K24_NEAR_THREE):
        assert _base_indegree(g) >= 3  # the layer step maxes over three or more edges
    if g in (cycle_graph(7), complete_graph(5)):
        assert _has_meeting_edge(s)  # some midpoint column takes the two-sided form
    for a in s.j_set:
        want = np.ascontiguousarray(farthest_geodesic_table(nbrs, hops, a)[:, j])
        got = j_source_table(s, a)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want), a


@pytest.mark.parametrize("k", (2, 4, 8))
@pytest.mark.parametrize("g", [cycle_graph(5), product(path_graph(3), path_graph(2)).graph, K4_AND_K2],
                         ids=["C5", "P3oP2", "K4+K2"])
def test_edge_chains_are_half_chain_minima(g, k):
    # each edge's minima against the grid hop rows of its interior points
    # x_1 .. x_{k-1}, from its smaller end u: x_1 .. x_{k/2}, x_{k/2} .. x_{k-1}
    # and all of them; J rows in j_set order, every array in the hop dtype
    s = subdivide(g, k)
    hops, c = s.hops(), s.chains()
    assert [f.name for f in fields(c)] == ["jrows", "u_mid", "v_mid", "whole"]
    assert np.array_equal(c.jrows, hops[list(s.j_set)])
    for e, (u, v) in enumerate(g.edges):
        pts = list(s.chain(u, v))
        assert np.array_equal(c.u_mid[e], hops[pts[:k // 2]].min(axis=0))
        assert np.array_equal(c.v_mid[e], hops[pts[k // 2 - 1:]].min(axis=0))
        assert np.array_equal(c.whole[e], hops[pts].min(axis=0))
    assert {c.jrows.dtype, c.u_mid.dtype, c.v_mid.dtype, c.whole.dtype} == {hops.dtype}


def test_tables_one_byte_on_wide_grids():
    # lex(P3,K6) has 369 grid points but is 12 hops across: the dtype follows
    # the hop counts, so both kernels store one byte per entry
    s = subdivide(product(path_graph(3), complete_graph(6)).graph, 4)
    hops = s.hops()
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    assert s.grid_n > 128 and hops.max() == 12
    j = list(s.j_set)
    for a in s.j_set:
        want = np.ascontiguousarray(farthest_geodesic_table(nbrs, hops, a)[:, j])
        got = j_source_table(s, a)
        assert got.dtype == want.dtype == np.int8
        assert np.array_equal(got, want), a


def _grid_reference(s):
    """The grid's neighbor tables and hop matrix, for the point-by-point reference."""
    return [s.neighbors(v) for v in range(s.grid_n)], s.hops()


@settings(max_examples=25, deadline=None)
@given(g=st.one_of(connected_graphs(max_n=5), induced_subgraphs(max_n=6)), k=st.sampled_from((2, 4, 8)))
@example(g=cycle_graph(4), k=8)
@example(g=K24, k=4)
@example(g=K24, k=8)
@example(g=TWO_EDGES, k=8)
@example(g=K4_AND_K2, k=4)
@example(g=product(path_graph(3), path_graph(2)).graph, k=2)
def test_walk_matches_grid_enumeration(g, k):
    # every ordered pair of grid points: interior points at every offset
    # (1 and k-1 included), pairs inside one edge, and pairs in different
    # components, which have no geodesic
    s = subdivide(g, k)
    nbrs, hops = _grid_reference(s)
    for a in range(s.grid_n):
        for b in range(s.grid_n):
            want = enumerate_paths(nbrs, hops, a, b, cap=10**6)
            assert enumerate_geodesics(s, a, b) == want, (a, b)
            assert len(want) == geodesic_count(nbrs, hops, a, b)


@pytest.mark.parametrize("k", (2, 4, 8))
def test_walk_cap_raises_before_any_path(k, monkeypatch):
    # the count runs on base vertices: above the cap, no chain or half-chain
    # of a path is built, and the error names the pair and the cap
    graphs = (cycle_graph(4), K24, product(path_graph(2), cycle_graph(4)).graph)
    cases = []
    for g in graphs:
        s = subdivide(g, k)
        nbrs, hops = _grid_reference(s)
        cases += [(s, a, b, count) for a in range(s.grid_n) for b in range(s.grid_n)
                  if (count := geodesic_count(nbrs, hops, a, b)) > 1]
    n_of = {id(s): s.base.vertex_count for s, *_ in cases}
    assert any(a >= n_of[id(s)] for s, a, _, _ in cases)  # an interior first point
    for s, a, b, count in cases:
        assert len(enumerate_geodesics(s, a, b, cap=count)) == count

    def built(*args):
        raise AssertionError("a path was built")

    monkeypatch.setattr(SubdividedGraph, "chain", built)
    monkeypatch.setattr(geodesics, "_half", built)
    for s, a, b, count in cases:
        with pytest.raises(GeodesicCapError) as err:
            enumerate_geodesics(s, a, b, cap=count - 1)
        assert (err.value.pair, err.value.cap) == ((a, b), count - 1)



@pytest.mark.parametrize("n, k", [(127, 2), (63, 4)])
def test_wrapped_sums_at_the_int8_boundary(n, k):
    # C_n on S_k is 127 or 126 hops across, one byte per entry: sums of two
    # hop rows, and a layer's hop count plus k, wrap in int8, and a wrapped
    # sum never matches an entry, so both kernels agree with references
    # that add in Python ints
    s = subdivide(cycle_graph(n), k)
    hops = s.hops()
    wide = hops.astype(np.int64)
    assert hops.dtype == np.int8 and wide.max() >= 126
    assert (wide[0] + wide[1] > 127).any()  # near points: their row sums wrap at the far side
    for a in range(s.grid_n):
        on = wide[a][None, :] + wide == wide[a][:, None]  # [b, p]: p on an a-b geodesic
        for b in range(s.grid_n):
            assert np.array_equal(interval(hops, a, b), np.flatnonzero(on[b])), (a, b)
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    j = list(s.j_set)
    wraps = 0
    for a in j:
        wraps += int((wide[a, :n] + k > 127).any())  # some forward-edge test wraps
        want = farthest_geodesic_table(nbrs, hops, a)[:, j]
        assert np.array_equal(j_source_table(s, a), want), a
    assert wraps > 0
