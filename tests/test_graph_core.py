"""Graph construction, parsing, subdivision grids and exact metrics."""

import gc
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexhyp import (Graph, ParseError, QDist, SizeCapError, ValidationError,
                    all_pairs_distances, cycle_graph, complete_graph, diam_g, diam_v,
                    induced_subgraph, is_isometric_embedding, parse_graph, path_graph,
                    product, star_graph, subdivide, trivial_graph)
import lexhyp.subdivision as subdivision
from lexhyp.geodesics import (enumerate_geodesics, enumerate_paths, farthest_geodesic_table,
                              geodesic_count, interval, j_source_table)
from lexhyp.graph import UNREACHABLE
from lexhyp.subdivision import HOP_BLOCK, j_hops


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_edge_list():
    g = parse_graph("0 1\n1 2")
    assert (g.vertex_count, g.m) == (3, 2)
    assert g == path_graph(3)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2) and not g.has_edge(2, 0)


def test_parse_comments_and_blanks():
    g = parse_graph("# a triangle\n\n0 1\n 1 2 \n2 0\n")
    assert g == cycle_graph(3)


def test_parse_generators():
    assert parse_graph("cycle:5") == cycle_graph(5)
    assert parse_graph("path:4") == path_graph(4)
    assert parse_graph("complete:4") == complete_graph(4)
    assert parse_graph("trivial") == trivial_graph()
    s = parse_graph("star:3")
    assert (s.vertex_count, s.m) == (4, 3)
    assert diam_v(s) == QDist.from_edges(2)


def test_parse_errors():
    with pytest.raises(ValidationError, match="disconnected"):
        parse_graph("0 1\n2 3")
    with pytest.raises(ValidationError, match="loop"):
        parse_graph("0 0")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_graph("0 1\n1 0")
    with pytest.raises(ParseError):
        parse_graph("0 1 2")
    with pytest.raises(ParseError):
        parse_graph("a b")
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ValidationError):
        parse_graph("cycle:2")


def test_vertex_distances_hand_oracle():
    # C5 distances computed by hand
    g = cycle_graph(5)
    want = np.array([
        [0, 1, 2, 2, 1],
        [1, 0, 1, 2, 2],
        [2, 1, 0, 1, 2],
        [2, 2, 1, 0, 1],
        [1, 2, 2, 1, 0],
    ])
    assert (g.vertex_distances() == want).all()


@st.composite
def induced_graphs(draw, max_n: int = 60) -> Graph:
    """An induced subgraph of a random connected graph on 1..max_n vertices
    (a spanning tree plus a drawn share of the other pairs): often
    disconnected, sometimes edgeless."""
    n = draw(st.integers(1, max_n))
    share = draw(st.sampled_from((0.0, 0.05, 0.3, 1.0)))  # of the non-tree pairs, made edges
    drop = draw(st.sampled_from((0.0, 0.2, 0.6)))  # of the vertices, left out of the subgraph
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < share}
    keep = [v for v in range(n) if v == 0 or rng.random() >= drop]
    return induced_subgraph(Graph(n, sorted(edges)), keep)


@settings(max_examples=60, deadline=None)
@given(g=induced_graphs())
@example(g=trivial_graph())
@example(g=induced_subgraph(cycle_graph(8), [0, 2, 4, 6]))  # edgeless
@example(g=induced_subgraph(cycle_graph(8), [0, 1, 3, 4, 6]))  # components {0,1}, {3,4}, {6}
@example(g=path_graph(60))
@example(g=complete_graph(60))
def test_vertex_distances_match_bfs(g):
    d = g.vertex_distances()
    assert d.dtype == np.int32 and not d.flags.writeable
    assert d is g.vertex_distances()  # cached
    assert np.array_equal(d, _bfs_hops(g.vertex_count, g.neighbors))


# ---------------------------------------------------------------------------
# induced subgraphs and isometric embeddings
# ---------------------------------------------------------------------------

def test_induced_subgraph_examples():
    assert induced_subgraph(cycle_graph(4), [0, 1, 2]) == path_graph(3)
    assert induced_subgraph(complete_graph(4), [1, 2, 3]) == complete_graph(3)
    iso = induced_subgraph(cycle_graph(6), [0, 2, 4])
    assert (iso.vertex_count, iso.m) == (3, 0)  # independent set
    with pytest.raises(ValidationError):
        induced_subgraph(cycle_graph(4), [])


def test_isometric_embedding_examples():
    c6 = cycle_graph(6)
    assert is_isometric_embedding(path_graph(3), c6, [0, 1, 2])
    # P4 around C4 shortcuts: endpoints at distance 3 vs 1
    assert not is_isometric_embedding(path_graph(4), cycle_graph(4), [0, 1, 2, 3])
    assert is_isometric_embedding(path_graph(2), c6, [2, 3])
    with pytest.raises(ValidationError, match="injective"):
        is_isometric_embedding(path_graph(2), c6, [1, 1])
    with pytest.raises(ValidationError, match="no image edge"):
        is_isometric_embedding(path_graph(2), c6, [0, 2])


# ---------------------------------------------------------------------------
# subdivision grids
# ---------------------------------------------------------------------------

def test_subdivide_p2_by_4():
    s = subdivide(path_graph(2), 4)
    assert s.grid_n == 5
    assert sum(len(s.neighbors(v)) for v in range(5)) // 2 == 4


def test_subdivide_c3_by_2_is_c6():
    s = subdivide(cycle_graph(3), 2)
    assert s.grid_n == 6
    assert set(s.j_set) == set(range(6))
    assert all(len(s.neighbors(v)) == 2 for v in range(6))


def test_subdivide_c5_distance_scaling():
    s = subdivide(cycle_graph(5), 4)
    hops = all_pairs_distances(s)
    assert hops[1, 3] == 8
    assert QDist.from_hops(int(hops[1, 3]), s.k) == QDist.from_edges(2)


@settings(max_examples=25, deadline=None)
@given(g=st.integers(1, 7).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
    unique_by=lambda e: frozenset(e)).map(lambda edges: Graph(n, edges, _allow_disconnected=True))),
    k=st.sampled_from((2, 4, 8)))
def test_grid_points_by_arithmetic(g, k):
    # j_set, chains, edge points and neighbors against the eager point-by-point
    # construction: each edge's chain of k - 1 new ids, linked end to end
    s = subdivide(g, k)
    n = g.vertex_count
    points, nbrs, next_id = {}, [[] for _ in range(s.grid_n)], n
    for u, v in g.edges:
        chain = [u, *range(next_id, next_id + k - 1), v]
        next_id += k - 1
        for a, b in zip(chain, chain[1:]):
            nbrs[a].append(b)
            nbrs[b].append(a)
        points[(u, v)] = tuple(chain)
    assert s.j_set == tuple(sorted([*range(n), *(pts[k // 2] for pts in points.values())]))
    for (u, v), pts in points.items():
        assert tuple(s.chain(u, v)) == pts[1:-1] and tuple(s.chain(v, u)) == pts[-2:0:-1]
    assert s._edge_points is None and s._neighbors is None  # built on first access only
    assert s.edge_points == points
    assert [s.neighbors(v) for v in range(s.grid_n)] == [tuple(sorted(a)) for a in nbrs]


def test_grid_freed_without_cycle_collector():
    # the grid caches its hop matrix and chains; nothing refers back to it, so
    # dropping the last reference frees the hop matrix at once
    gc.disable()
    try:
        s = subdivide(product(path_graph(3), cycle_graph(5)).graph, 4)
        hops = weakref.ref(s.hops())
        chains = weakref.ref(s.chains().whole)
        del s
        assert hops() is None and chains() is None
    finally:
        gc.enable()


@st.composite
def connected_graphs(draw, max_n: int = 8) -> Graph:
    """A random spanning tree on 1..max_n vertices plus any set of extra edges."""
    n = draw(st.integers(1, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    return Graph(n, tree + extra)


def _bfs_hops(n: int, neighbors) -> np.ndarray:
    """Oracle: networkx BFS from every vertex 0..n-1 over the edges that
    `neighbors(v)` lists; UNREACHABLE between components."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((v, w) for v in range(n) for w in neighbors(v))
    out = np.full((n, n), UNREACHABLE, dtype=np.int32)
    for p, row in nx.all_pairs_shortest_path_length(graph):
        for q, d in row.items():
            out[p, q] = d
    return out


@settings(max_examples=25, deadline=None)
@given(g=connected_graphs(), k=st.sampled_from((2, 4, 8)))
def test_grid_metric_matches_bfs_on_grid_edges(g, k):
    s = subdivide(g, k)
    hops = all_pairs_distances(s)
    # the narrowest signed dtype that holds every entry
    top = int(hops.max())
    assert hops.dtype == next(t for t in (np.int8, np.int16, np.int32) if top <= np.iinfo(t).max)
    assert np.array_equal(hops, _bfs_hops(s.grid_n, s.neighbors))


@pytest.mark.parametrize("k", (2, 4, 8))
def test_grid_metric_matches_bfs_on_product_and_disconnected(k, monkeypatch):
    lex = product(path_graph(3), cycle_graph(4)).graph
    split = induced_subgraph(cycle_graph(8), [0, 1, 3, 4, 6])  # components {0,1}, {3,4}, {6}
    # also with one row per block (a row is longer than 1 entry), and with
    # blocks of a few rows that leave a shorter last block
    for block in (HOP_BLOCK, 1, 40):
        monkeypatch.setattr(subdivision, "HOP_BLOCK", block)
        for g in (lex, split):
            s = subdivide(g, k)
            hops = all_pairs_distances(s)
            assert np.array_equal(hops, _bfs_hops(s.grid_n, s.neighbors))
            j = np.asarray(s.j_set)
            assert np.array_equal(j_hops(g, k), hops[np.ix_(j, j)])
            assert diam_g(g) == QDist.from_hops(int(hops.max()), k)
    s = subdivide(split, k)
    hops = all_pairs_distances(s)
    mid = {e: pts[k // 2] for e, pts in s.edge_points.items()}
    assert hops[0, 2] == UNREACHABLE  # vertices 0 and 3 of C8
    assert hops[mid[(0, 1)], mid[(2, 3)]] == UNREACHABLE
    assert hops[mid[(2, 3)], 4] == UNREACHABLE  # to the isolated vertex 6 of C8
    assert (np.diag(hops) == 0).all()


@pytest.mark.parametrize("n, dtype", [(127, np.int8), (128, np.int16)])
def test_hop_matrix_dtype_boundary(n, dtype):
    # C_n on the S_2 grid is a 2n-cycle, n hops across: its hop counts fit
    # one byte for n = 127 and not for n = 128
    s = subdivide(cycle_graph(n), 2)
    hops = s.hops()
    assert int(hops.max()) == n and hops.dtype == dtype
    # both arcs to the antipode of 0 are geodesics, so every point is on one
    far = int(hops[0].argmax())
    assert interval(hops, 0, far).size == 2 * n
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    assert geodesic_count(nbrs, hops, 0, far) == 2
    paths = enumerate_paths(nbrs, hops, 0, far, cap=2)
    assert len(paths) == 2 and enumerate_geodesics(s, 0, far, cap=2) == paths
    # every point of S_2 is a J-point: the kernel against the reference DP,
    # from a vertex source and from a midpoint source
    for a in (0, far, n):
        want = farthest_geodesic_table(nbrs, hops, a)[:, list(s.j_set)]
        got = j_source_table(s, a)
        assert got.dtype == want.dtype == dtype and np.array_equal(got, want)


def test_hop_matrix_built_a_row_block_at_a_time():
    # building the cycle:200 hop matrix (800 points, int16) holds the matrix
    # and the work of one block of rows: two int32 buffers of at most
    # HOP_BLOCK entries and the block's distances to the 200 vertices, a
    # quarter of a buffer each; never a grid x grid int32 array, of which
    # the one-shot build held three
    g = cycle_graph(200)
    g.vertex_distances()  # cached on the graph, as in the engine
    s = subdivide(g, 4)
    tracemalloc.start()
    try:
        hops = all_pairs_distances(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 4 * HOP_BLOCK  # bytes of int32
    assert peak <= hops.nbytes + 4 * block < hops.nbytes + 4 * s.grid_n ** 2


def test_grid_size_and_jset_counts():
    g = cycle_graph(5)
    for k in (2, 4, 8):
        s = subdivide(g, k)
        assert s.grid_n == g.vertex_count + (k - 1) * g.m
        assert len(s.j_set) == g.vertex_count + g.m


def test_grid_cap_fails_fast():
    with pytest.raises(SizeCapError):
        subdivide(complete_graph(40), 8)  # 5500 points


def test_subdivision_restriction_reproduces_vertex_apsp():
    for g in (cycle_graph(6), star_graph(4), complete_graph(4)):
        base = g.vertex_distances()
        for k in (2, 4, 8):
            hops = all_pairs_distances(subdivide(g, k))
            n = g.vertex_count
            assert (hops[:n, :n] == k * base).all()


# ---------------------------------------------------------------------------
# diameters
# ---------------------------------------------------------------------------

def _diam_oracle_s8(g: Graph) -> QDist:
    """Independent oracle: brute-force max over the full S_8 grid."""
    hops = all_pairs_distances(subdivide(g, 8))
    return QDist((4 * int(hops.max())) // 8)


def test_diam_c5():
    g = cycle_graph(5)
    assert diam_v(g) == QDist.from_edges(2)
    assert diam_g(g) == QDist(10) == _diam_oracle_s8(g)  # 5/2


def test_diam_c3():
    g = cycle_graph(3)
    assert diam_g(g) == QDist(6) == _diam_oracle_s8(g)  # 3/2 at vertex-midpoint


def test_diam_k4():
    g = complete_graph(4)
    assert diam_v(g) == QDist.from_edges(1)
    assert diam_g(g) == QDist.from_edges(2) == _diam_oracle_s8(g)


def test_diam_trivial():
    assert diam_g(trivial_graph()) == QDist(0)


def _any_graph(seed: int, n: int, m: int) -> Graph:
    """A random graph on n vertices with up to m edges: often disconnected,
    edgeless when m is 0."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, min(m, len(pairs))), _allow_disconnected=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 9), m=st.integers(0, 14))
@example(seed=0, n=3, m=0)  # edgeless
@example(seed=0, n=1, m=0)
def test_diam_g_closed_form_matches_grids(seed, n, m):
    # j_hops, from vertex distances alone, is the grid hop matrix on J(G)
    # for every k, UNREACHABLE between components included; diam_g matches
    # the J(G) maximum of the S_2 grid and the brute S_8 maximum, where
    # pairs in different components (-1) never count
    g = _any_graph(seed, n, m)
    for k in (2, 4, 8):
        s = subdivide(g, k)
        j = np.asarray(s.j_set)
        got = j_hops(g, k)
        assert got.dtype == np.int32
        assert np.array_equal(got, s.hops()[np.ix_(j, j)]), k
    s = subdivide(g, 2)
    j = np.asarray(s.j_set)
    want = QDist.from_hops(int(s.hops()[np.ix_(j, j)].max()), 2)
    assert diam_g(g) == want == _diam_oracle_s8(g)


# ---------------------------------------------------------------------------
# metric properties over random graphs
# ---------------------------------------------------------------------------

def _random_connected(seed: int, n: int) -> Graph:
    import random
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    extra = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(edges)]
    rng.shuffle(extra)
    return Graph(n, edges + sorted(extra[: rng.randint(0, n)]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 9))
def test_metric_axioms_and_diam_sandwich(seed, n):
    g = _random_connected(seed, n)
    s = subdivide(g, 2)
    h = all_pairs_distances(s)
    assert (h == h.T).all()
    assert (np.diag(h) == 0).all()
    assert (h[:, :, None] + h[None, :, :] >= h[:, None, :]).all()
    j = np.asarray(s.j_set)
    dv = QDist.from_hops(int(h[:g.vertex_count, :g.vertex_count].max()), 2)
    dg = QDist.from_hops(int(h[np.ix_(j, j)].max()), 2)
    assert (dv, dg) == (diam_v(g), diam_g(g))
    assert dv <= dg <= dv + QDist.from_edges(1)
    assert dg.quarters % 2 == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
def test_subdivision_metric_scaling(seed, n):
    g = _random_connected(seed, n)
    base = g.vertex_distances()
    nb = g.vertex_count
    for k in (2, 4):
        hops = all_pairs_distances(subdivide(g, k))
        assert (hops[:nb, :nb] == k * base).all()
