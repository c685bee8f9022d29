"""Exact hyperbolicity engine: pinned values, witnesses, bigons, stability."""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexhyp import (DeltaConfig, GeodesicCapError, GeodesicTriangle, Graph, QDist,
                    complete_graph, cycle_graph, delta_bigon_lower_bound, delta_exact,
                    diam_g, get_catalog, has_tight_short_triangle, in_family_F, induced_subgraph,
                    is_isometric_embedding, path_graph, product, star_graph, subdivide,
                    thinness, trivial_graph)
from lexhyp.delta import _Sweep
from lexhyp.geodesics import enumerate_paths
from lexhyp.subdivision import all_pairs_distances


def test_trees_are_zero():
    for g in (path_graph(2), path_graph(7), star_graph(5), trivial_graph()):
        res = delta_exact(g)
        assert res.value == QDist(0)
        assert thinness(res.grid, res.witness)[0] == QDist(0)


def test_cycles_quarter_length():
    for n in range(3, 9):
        assert delta_exact(cycle_graph(n)).value == QDist(n)


def test_complete_graphs():
    assert delta_exact(complete_graph(4)).value == QDist.from_edges(1)
    assert delta_exact(product(complete_graph(2), complete_graph(2)).graph).value == QDist.from_edges(1)


def test_witness_reproduces_value():
    for g in (cycle_graph(5), cycle_graph(6), complete_graph(4),
              product(path_graph(3), path_graph(2)).graph):
        res = delta_exact(g)
        val, point = thinness(res.grid, res.witness)
        assert val == res.value
        assert point in {v for side in res.witness.sides for v in side}
        if res.value.quarters > 0:
            assert res.witness.is_cycle


def test_witness_corners_in_j_and_sides_geodesic():
    res = delta_exact(cycle_graph(6))
    s = res.grid
    hops = s.metrics().hops
    assert all(c in s.j_set for c in res.witness.corners)
    x, y, z = res.witness.corners
    for side, (a, b) in zip(res.witness.sides, ((x, y), (y, z), (z, x))):
        assert side[0] == a and side[-1] == b
        assert len(side) - 1 == hops[a, b]


def test_determinism():
    a = delta_exact(cycle_graph(6))
    b = delta_exact(cycle_graph(6))
    assert a.witness == b.witness
    assert a.witness_point == b.witness_point
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)


def test_json_shape():
    d = delta_exact(cycle_graph(5)).to_json_dict()
    assert d["quarters"] == 5
    assert d["value"] == "5/4"
    assert len(d["witness"]["sides"]) == 3
    assert set(d["stats"]) == {"triples_examined", "geodesics_enumerated"}


def test_delta_le_half_diameter():
    for g in (cycle_graph(5), cycle_graph(7), complete_graph(5), star_graph(4)):
        assert 2 * delta_exact(g).value.quarters <= diam_g(g).quarters


def test_grid_factor_8_matches():
    for spec in (cycle_graph(5), cycle_graph(6), complete_graph(4), path_graph(5)):
        assert delta_exact(spec).value == delta_exact(spec, DeltaConfig(grid_factor=8)).value


def test_cycle_only_modes_agree():
    for g in (cycle_graph(5), complete_graph(4), star_graph(3),
              product(cycle_graph(4), path_graph(2)).graph):
        assert delta_exact(g, DeltaConfig(cycle_only=True)).value == \
            delta_exact(g, DeltaConfig(cycle_only=False)).value


def test_witness_non_cycle_branch_pinned():
    # the unrestricted witness of this graph is not a cycle triangle, so the
    # two modes return different witnesses
    g = Graph(5, [(0, 1), (1, 2), (1, 4), (2, 3), (2, 4)])
    cyc = delta_exact(g, DeltaConfig(cycle_only=True)).to_json_dict()
    assert cyc == {
        "grid_factor": 4, "quarters": 3, "value": "3/4",
        "stats": {"geodesics_enumerated": 30, "triples_examined": 109},
        "witness": {"corners": [1, 2, 12], "is_cycle": True,
                    "sides": [[1, 8, 9, 10, 2], [2, 17, 18, 19, 4, 13, 12], [12, 11, 1]],
                    "witness_point": 19, "witness_side": 1}}
    free = delta_exact(g, DeltaConfig(cycle_only=False)).to_json_dict()
    assert free == {
        "grid_factor": 4, "quarters": 3, "value": "3/4",
        "stats": {"geodesics_enumerated": 5, "triples_examined": 97},
        "witness": {"corners": [0, 1, 18], "is_cycle": False,
                    "sides": [[0, 5, 6, 7, 1], [1, 8, 9, 10, 2, 17, 18],
                              [18, 19, 4, 13, 12, 11, 1, 7, 6, 5, 0]],
                    "witness_point": 10, "witness_side": 1}}


def test_table_counters():
    # the sweep of delta_exact, run by hand so its tables can be inspected
    g = product(path_graph(4), cycle_graph(6)).graph
    sweep = _Sweep(subdivide(g, 4), DeltaConfig())
    sweep.witness_search(sweep.value_sweep(), cycle_only=True)
    stats = sweep.stats
    assert stats.tables_built == len(sweep._tables) > 0
    assert stats.table_bytes == sum(t.nbytes for t in sweep._tables.values()) > 0
    assert stats.table_s > 0
    assert 0 < stats.sides_visited <= stats.triples_examined and stats.mask_s > 0
    res = delta_exact(g)
    got = res.stats
    assert (got.tables_built, got.table_bytes) == (stats.tables_built, stats.table_bytes)
    assert got.table_s > 0
    # the timing stays out of the stable JSON, as the table counters do
    assert res.to_json_dict()["stats"] == {"triples_examined": got.triples_examined,
                                           "geodesics_enumerated": got.geodesics_enumerated}


# lex(path:6,cycle:5), the largest ladder rung: the sweep charges every role
# of its 2650 closed sides, and the witness search reads the tables the value
# sweep built
P6_C5_JSON = {
    "grid_factor": 4, "quarters": 6, "value": "3/2",
    "stats": {"geodesics_enumerated": 51, "triples_examined": 484951},
    "witness": {"corners": [0, 1, 15], "is_cycle": True,
                "sides": [[0, 30, 31, 32, 1],
                          [1, 54, 55, 56, 5, 126, 127, 128, 10, 216, 217, 218, 15],
                          [15, 236, 235, 234, 11, 149, 148, 147, 6, 41, 40, 39, 0]],
                "witness_point": 127, "witness_side": 1}}


def test_lex_p6_c5_pinned():
    res = delta_exact(product(path_graph(6), cycle_graph(5)).graph)
    assert res.to_json_dict() == P6_C5_JSON
    assert res.stats.tables_built == 160
    assert res.stats.sides_visited == 2650


@pytest.mark.parametrize("n, dtype", [(63, np.int8), (64, np.int16)])
def test_table_dtype_boundary(n, dtype):
    # C_n on the S_4 grid is 2n hops across: 126 fits one byte, 128 does not
    res = delta_exact(cycle_graph(n))
    assert res.value.quarters == n
    s, stats = res.grid, res.stats
    assert s.chains().jrows.dtype == dtype
    assert stats.table_bytes == stats.tables_built * s.grid_n * len(s.j_set) * np.dtype(dtype).itemsize


def test_grid_chains_built_once_per_grid(monkeypatch):
    import lexhyp.subdivision as subdivision
    calls = []
    real = subdivision.edge_chains
    monkeypatch.setattr(subdivision, "edge_chains", lambda s: calls.append(1) or real(s))
    stats = delta_exact(product(path_graph(4), cycle_graph(6)).graph).stats
    assert stats.tables_built > 1 and len(calls) == 1


def test_cap_error_attaches_partial_lower_bound():
    with pytest.raises(GeodesicCapError) as err:
        delta_exact(cycle_graph(6), DeltaConfig(geodesic_cap=1))
    assert err.value.partial_lower_bound == QDist(6)


def test_config_validation():
    with pytest.raises(Exception):
        DeltaConfig(geodesic_cap=0)
    with pytest.raises(Exception):
        DeltaConfig(grid_factor=2)


# ---------------------------------------------------------------------------
# bigons
# ---------------------------------------------------------------------------

def _bigon_oracle(g: Graph) -> QDist:
    """Direct enumeration over distinct geodesic pairs between J-points."""
    s = subdivide(g, 4)
    hops = all_pairs_distances(s).hops
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    best = 0
    j = list(s.j_set)
    for i, a in enumerate(j):
        for b in j[i + 1:]:
            paths = [np.asarray(p) for p in enumerate_paths(nbrs, hops, a, b, cap=10_000)]
            for p1 in paths:
                for p2 in paths:
                    if p1 is p2:
                        continue
                    best = max(best, int(hops[np.ix_(p1, p2)].min(axis=1).max()))
    return QDist(best)


def test_bigon_examples_against_oracle():
    assert delta_bigon_lower_bound(cycle_graph(4)) == QDist.from_edges(1) == _bigon_oracle(cycle_graph(4))
    assert delta_bigon_lower_bound(cycle_graph(6)) == QDist(6) == _bigon_oracle(cycle_graph(6))
    assert delta_bigon_lower_bound(path_graph(5)) == QDist(0) == _bigon_oracle(path_graph(5))
    assert delta_bigon_lower_bound(complete_graph(4)) == _bigon_oracle(complete_graph(4))


def test_bigon_below_delta():
    for g in (cycle_graph(5), complete_graph(5), star_graph(4),
              product(path_graph(3), path_graph(2)).graph):
        assert delta_bigon_lower_bound(g) <= delta_exact(g).value


# ---------------------------------------------------------------------------
# thinness of explicit triangles
# ---------------------------------------------------------------------------

def test_thinness_degenerate_point_triangle():
    s = subdivide(cycle_graph(4), 4)
    t = GeodesicTriangle(corners=(0, 0, 0), sides=((0,), (0,), (0,)), is_cycle=True)
    assert thinness(s, t)[0] == QDist(0)


def _chain(s, a, b):
    key = (min(a, b), max(a, b))
    pts = list(s.edge_points[key])
    return pts if pts[0] == a else pts[::-1]


def test_thinness_c4_bigon():
    # opposite vertices 0 and 2 of C4 as a bigon: arc through 3 vs arc
    # through 1, the latter split at corner z = 1
    s = subdivide(cycle_graph(4), 4)
    side_xy = tuple(_chain(s, 0, 3)[:-1] + _chain(s, 3, 2))
    side_yz = tuple(_chain(s, 2, 1))
    side_zx = tuple(_chain(s, 1, 0))
    t = GeodesicTriangle(corners=(0, 2, 1), sides=(side_xy, side_yz, side_zx), is_cycle=True)
    val, point = thinness(s, t)
    assert val == QDist.from_edges(1)
    assert point == 3  # the far arc's midpoint, one edge from the other arc


def test_thinness_tree_triangle_zero():
    s = subdivide(path_graph(3), 4)
    res = delta_exact(path_graph(3))
    assert thinness(s, res.witness)[0] == QDist(0)


def test_thinness_validates_sides():
    s = subdivide(cycle_graph(4), 4)
    bad = GeodesicTriangle(corners=(0, 1, 2), sides=((0, 1), (1, 2), (2, 0)), is_cycle=False)
    with pytest.raises(Exception):
        thinness(s, bad)


# ---------------------------------------------------------------------------
# monotonicity and structural properties
# ---------------------------------------------------------------------------

def test_isometric_monotonicity_examples():
    c6 = cycle_graph(6)
    sub = induced_subgraph(c6, [0, 1, 2, 3])  # a path, isometric in C6
    assert is_isometric_embedding(sub, c6, [0, 1, 2, 3])
    assert delta_exact(sub).value <= delta_exact(c6).value


def _random_connected(seed: int, n: int) -> Graph:
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(edges)]
    rng.shuffle(pool)
    return Graph(n, edges + sorted(pool[: rng.randint(0, n)]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
def test_delta_structural_properties(seed, n):
    g = _random_connected(seed, n)
    res = delta_exact(g)
    # quarter multiple by construction, tree characterization, diameter bound
    assert res.value.quarters >= 0
    assert (res.value.quarters == 0) == g.is_tree()
    assert 2 * res.value.quarters <= diam_g(g).quarters
    assert delta_bigon_lower_bound(g) <= res.value
    assert thinness(res.grid, res.witness)[0] == res.value


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 7))
def test_delta_grid_stability_random(seed, n):
    g = _random_connected(seed, n)
    assert delta_exact(g).value == delta_exact(g, DeltaConfig(grid_factor=8)).value


def test_tight_short_triangle_examples():
    assert has_tight_short_triangle(cycle_graph(6))
    assert has_tight_short_triangle(cycle_graph(9))
    assert not has_tight_short_triangle(cycle_graph(5))
    assert not has_tight_short_triangle(complete_graph(6))
    # delta = 3/2 alone is not enough: this graph attains 3/2 only at an
    # edge midpoint between vertex corners and induces no catalog member
    g = Graph(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 5), (2, 4), (3, 5), (4, 5)])
    assert delta_exact(g).value == QDist(6)
    assert not has_tight_short_triangle(g)


def test_tight_short_triangle_on_catalog_members():
    # the short-triangle lemma: a tight short triangle exists exactly when
    # the graph induces a family member
    for member in get_catalog().members:
        n = member.vertex_count
        pendant = Graph(n + 1, list(member.edges) + [(0, n)])
        for g in (member, pendant):
            assert in_family_F(g)[0]
            assert has_tight_short_triangle(g)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
def test_tight_short_triangle_matches_family(seed, n):
    g = _random_connected(seed, n)
    assert has_tight_short_triangle(g) == in_family_F(g)[0]


# ---------------------------------------------------------------------------
# independent oracles: geodesic enumeration, no tables, ceilings or pruning
# ---------------------------------------------------------------------------

def _geodesic_arrays(s):
    hops = s.metrics().hops
    nbrs = [s.neighbors(v) for v in range(s.grid_n)]
    cache = {}

    def geos(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = [np.asarray(p) for p in enumerate_paths(nbrs, hops, a, b, cap=100_000)]
        return cache[(a, b)]
    return hops, geos


def _delta_by_enumeration(g: Graph) -> int:
    """Max thinness in quarters over every J(G) corner triple and every
    geodesic choice of its three sides."""
    s = subdivide(g, 4)
    hops, geos = _geodesic_arrays(s)
    best = 0
    for x, y, z in itertools.combinations(s.j_set, 3):
        for tri in itertools.product(geos(x, y), geos(y, z), geos(x, z)):
            for i in range(3):
                others = np.concatenate([tri[(i + 1) % 3], tri[(i + 2) % 3]])
                best = max(best, int(hops[np.ix_(tri[i], others)].min(axis=1).max()))
    return best


def _connected_graphs(max_n: int):
    return st.builds(_random_connected, st.integers(0, 10_000), st.integers(2, max_n))


@settings(max_examples=60, deadline=None)
@given(g=_connected_graphs(6))
@example(g=complete_graph(6))
@example(g=cycle_graph(6))
@example(g=product(path_graph(2), path_graph(3)).graph)
def test_delta_against_enumeration(g):
    assert delta_exact(g).value.quarters == _delta_by_enumeration(g)


@settings(max_examples=25, deadline=None)
@given(g=_connected_graphs(6))
@example(g=product(path_graph(3), path_graph(2)).graph)
def test_bigon_against_oracle_on_random_graphs(g):
    # the longest-first walk stops early; the oracle scans every J-pair
    assert delta_bigon_lower_bound(g) == _bigon_oracle(g)


@settings(max_examples=10, deadline=None)
@given(g=_connected_graphs(5), k=st.sampled_from((4, 8)))
@example(g=cycle_graph(5), k=8)
@example(g=product(path_graph(3), path_graph(2)).graph, k=4)
def test_side_values_against_enumeration(g, k):
    # entry c of side_values(a, b): the largest thinness on side a-b over
    # every geodesic choice of triangle (a, b, c)
    s = subdivide(g, k)
    hops, geos = _geodesic_arrays(s)
    sweep = _Sweep(s, DeltaConfig(grid_factor=k))
    for a, b in itertools.combinations(s.j_set, 2):
        got = sweep.side_values(a, b)
        for c in s.j_set:
            if c in (a, b):
                continue
            best = 0
            for g_ac, g_bc in itertools.product(geos(min(a, c), max(a, c)),
                                                geos(min(b, c), max(b, c))):
                far = hops[:, np.concatenate([g_ac, g_bc])].min(axis=1)
                best = max(best, max(int(far[g_ab].max()) for g_ab in geos(a, b)))
            assert got[sweep.jpos[c]] == best, (a, b, c)


# ---------------------------------------------------------------------------
# corner masks against the ceiling they threshold
# ---------------------------------------------------------------------------

def _brute_ceiling(hops: np.ndarray, a: int, b: int, c: int) -> int:
    return int(np.minimum(np.minimum(hops[a], hops[b]), hops[c]).max())


def _graphs_and_induced_subgraphs(max_n: int):
    """Connected graphs, and induced subgraphs of them: often disconnected."""
    connected = _connected_graphs(max_n)
    induced = connected.flatmap(lambda g: st.sets(st.integers(0, g.vertex_count - 1), min_size=1)
                                .map(lambda keep: induced_subgraph(g, keep)))
    return st.one_of(connected, induced)


@settings(max_examples=30, deadline=None)
@given(g=_graphs_and_induced_subgraphs(8))
@example(g=induced_subgraph(cycle_graph(8), [0, 1, 4, 5]))
@example(g=product(path_graph(3), path_graph(2)).graph)
def test_corner_masks_match_brute_ceiling(g):
    # entry (r, c) of the masks at t: whether max over grid points p of
    # min(d(a, p), d(b, p), d(c, p)) exceeds t, for every J-pair and every t,
    # UNREACHABLE hop counts included
    s = subdivide(g, 4)
    hops = s.metrics().hops
    sweep = _Sweep(s, DeltaConfig())
    pairs = list(itertools.combinations(range(sweep.nj), 2))
    if not pairs:
        return
    ii, jj = (np.array(x) for x in zip(*pairs))
    ceil = np.array([[_brute_ceiling(hops, s.j_set[i], s.j_set[j], c) for c in s.j_set]
                     for i, j in pairs])
    for t in range(-1, int(hops.max()) + 2):
        assert np.array_equal(sweep.corner_masks(ii, jj, t), ceil > t), t


def _per_side_sweep(s):
    """The value sweep one side at a time, longest first, with the brute-force
    ceiling at the running value: (value, triples examined, sides visited)."""
    sweep = _Sweep(s, DeltaConfig())
    hops, j = s.metrics().hops, s.j_set
    pairs = sorted(itertools.combinations(range(len(j)), 2), key=lambda p: -hops[j[p[0]], j[p[1]]])
    cur = examined = visited = 0
    for ii, jj in pairs:
        if hops[j[ii], j[jj]] // 2 <= cur:
            break
        cs = [kk for kk in range(len(j))
              if kk not in (ii, jj) and _brute_ceiling(hops, j[ii], j[jj], j[kk]) > cur]
        if cs:
            visited += 1
            examined += len(cs)
            cur = max(cur, int(sweep.side_values(j[ii], j[jj])[cs].max()))
    return cur, examined, visited


@settings(max_examples=25, deadline=None)
@given(g=_graphs_and_induced_subgraphs(8))
@example(g=cycle_graph(40))
@example(g=product(path_graph(3), cycle_graph(4)).graph)
def test_chunked_sweep_counts_match_per_side_sweep(g):
    # the masks of a chunk are recomputed whenever the running value rises,
    # so each side is charged the corners whose ceiling beats the value at it
    s = subdivide(g, 4)
    sweep = _Sweep(s, DeltaConfig())
    got = sweep.value_sweep()
    assert (got, sweep.stats.triples_examined, sweep.stats.sides_visited) == _per_side_sweep(s)
