"""Exact hyperbolicity engine: pinned values, witnesses, bigons, stability."""

import itertools
import json
import logging
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexhyp import (CARTESIAN, DeltaConfig, DeltaEngine, DeltaResult, GeodesicCapError,
                    GeodesicTriangle, Graph, QDist, ValidationError, complete_graph, cycle_graph,
                    delta_bigon_lower_bound, delta_exact, diam_g, enumerate_geodesics, get_catalog,
                    has_tight_short_triangle, in_family_F, induced_subgraph,
                    is_isometric_embedding, path_graph, product, star_graph, subdivide,
                    thinness, trivial_graph)
from lexhyp.geodesics import enumerate_paths
from lexhyp.subdivision import all_pairs_distances, j_hops
from test_symmetry import _rotated_p2_c5


def test_trees_are_zero():
    for g in (path_graph(2), path_graph(7), star_graph(5), trivial_graph()):
        res = delta_exact(g)
        assert res.value == QDist(0)
        assert thinness(res.grid, res.witness)[0] == QDist(0)


def test_cycles_quarter_length():
    for n in range(3, 9):
        assert delta_exact(cycle_graph(n)).value == QDist(n)


def test_long_cycle_quarter_length():
    # an S_4 grid of 2000 points, whose witness geodesics are 1000 hops long
    assert delta_exact(cycle_graph(500)).value == QDist(500)


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
    hops = s.hops()
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
        assert DeltaEngine(g).delta(cycle_only=True).value == \
            DeltaEngine(g).delta(cycle_only=False).value


# The unrestricted witness of this graph is not a cycle triangle, so the two
# modes return different witnesses: their `to_json_dict`, pinned.
NON_CYCLE_WITNESS_EDGES = [(0, 1), (1, 2), (1, 4), (2, 3), (2, 4)]
PINNED_CYCLE_WITNESS = {
    "grid_factor": 4, "quarters": 3, "value": "3/4",
    "stats": {"geodesics_enumerated": 30, "triples_examined": 109},
    "witness": {"corners": [1, 2, 12], "is_cycle": True,
                "sides": [[1, 8, 9, 10, 2], [2, 17, 18, 19, 4, 13, 12], [12, 11, 1]],
                "witness_point": 19, "witness_side": 1}}
PINNED_FREE_WITNESS = {
    "grid_factor": 4, "quarters": 3, "value": "3/4",
    "stats": {"geodesics_enumerated": 5, "triples_examined": 97},
    "witness": {"corners": [0, 1, 18], "is_cycle": False,
                "sides": [[0, 5, 6, 7, 1], [1, 8, 9, 10, 2, 17, 18],
                          [18, 19, 4, 13, 12, 11, 1, 7, 6, 5, 0]],
                "witness_point": 10, "witness_side": 1}}


def test_witness_non_cycle_branch_pinned():
    g = Graph(5, NON_CYCLE_WITNESS_EDGES)
    assert DeltaEngine(g).delta(cycle_only=True).to_json_dict() == PINNED_CYCLE_WITNESS
    assert DeltaEngine(g).delta(cycle_only=False).to_json_dict() == PINNED_FREE_WITNESS


def test_table_counters():
    # the sweep of delta_exact, run by hand so its tables can be inspected
    g = product(path_graph(4), cycle_graph(6)).graph
    sweep = DeltaEngine(g)
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
# sweep built.  As built by `product`, the graph carries its automorphisms,
# and 20 of those sides come from tables (one per J-pair orbit touched);
# a plain copy computes all of them
P6_C5_JSON = {
    "grid_factor": 4, "quarters": 6, "value": "3/2",
    "stats": {"geodesics_enumerated": 51, "triples_examined": 484951},
    "witness": {"corners": [0, 1, 15], "is_cycle": True,
                "sides": [[0, 30, 31, 32, 1],
                          [1, 54, 55, 56, 5, 126, 127, 128, 10, 216, 217, 218, 15],
                          [15, 236, 235, 234, 11, 149, 148, 147, 6, 41, 40, 39, 0]],
                "witness_point": 127, "witness_side": 1}}


def test_lex_p6_c5_pinned():
    g = product(path_graph(6), cycle_graph(5)).graph
    res, plain = delta_exact(g), delta_exact(Graph(g.vertex_count, g.edges))
    for r in (res, plain):
        assert r.to_json_dict() == P6_C5_JSON
        assert r.stats.sides_visited == 2650
    assert (plain.stats.tables_built, plain.stats.sides_exact) == (160, 2651)
    assert (res.stats.tables_built, res.stats.sides_exact) == (14, 20)


@pytest.mark.parametrize("n, dtype", [(32, np.int8), (63, np.int8), (64, np.int16)])
def test_table_dtype_boundary(n, dtype):
    # C_n on the S_4 grid is 2n hops across: 126 fits one byte, 128 does not;
    # the hop matrix takes the same dtype as the tables (64 hops: one byte)
    res = delta_exact(cycle_graph(n))
    assert res.value.quarters == n
    s, stats = res.grid, res.stats
    assert s.hops().dtype == s.chains().jrows.dtype == dtype
    assert thinness(s, res.witness) == (res.value, res.witness_point)
    assert stats.table_bytes == stats.tables_built * s.grid_n * len(s.j_set) * np.dtype(dtype).itemsize


def test_grid_chains_built_once_per_grid(monkeypatch):
    import lexhyp.subdivision as subdivision
    calls = []
    real = subdivision.edge_chains
    monkeypatch.setattr(subdivision, "edge_chains", lambda s: calls.append(1) or real(s))
    stats = delta_exact(product(path_graph(4), cycle_graph(6)).graph).stats
    assert stats.tables_built > 1 and len(calls) == 1


def test_cap_error_attaches_the_exact_value():
    with pytest.raises(GeodesicCapError) as err:
        delta_exact(cycle_graph(6), DeltaConfig(geodesic_cap=1))
    assert err.value.value == QDist(6)
    assert "(delta = 3/2; no witness within the cap)" in str(err.value)
    # the short-triangle predicate enumerates no geodesic, so no cap binds it
    assert DeltaEngine(cycle_graph(6), DeltaConfig(geodesic_cap=1)).has_tight_short_triangle()


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
    hops = all_pairs_distances(s)
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


@pytest.mark.parametrize("side0, message", [
    ((4, 5, 6, 1), "side endpoints do not match corners"),  # starts past corner 0
    ((0, 7, 8, 9, 3, 12, 11, 10, 2, 15, 14, 13, 1), "wrong length"),  # the long way round
    ((0, 4, 6, 5, 1), "side is not a grid path"),  # right length, a 2-hop jump from 4 to 6
], ids=["endpoints", "length", "jump"])
def test_thinness_rejects_each_bad_side(side0, message):
    # C4 on S_4: edge (0, 1) is the chain 0, 4, 5, 6, 1; replace the valid
    # side 0 -> 1 of a witness-shaped triangle and keep the other two
    s = subdivide(cycle_graph(4), 4)
    good = tuple(enumerate_geodesics(s, 0, 1)[0])
    assert good == (0, 4, 5, 6, 1)
    rest = (enumerate_geodesics(s, 1, 2)[0], enumerate_geodesics(s, 2, 0)[0])
    thinness(s, GeodesicTriangle(corners=(0, 1, 2), sides=(good, *rest), is_cycle=True))
    bad = GeodesicTriangle(corners=(0, 1, 2), sides=(side0, *rest), is_cycle=True)
    with pytest.raises(ValidationError, match=message):
        thinness(s, bad)


@pytest.mark.parametrize("g", [cycle_graph(6), product(path_graph(3), cycle_graph(4)).graph,
                               induced_subgraph(cycle_graph(8), [0, 1, 2, 3, 4])],
                         ids=["C6", "lex(P3,C4)", "P5"])
def test_engine_builds_no_grid_adjacency(g):
    # the witness walks base vertices and thinness checks steps on the hop
    # matrix: no entry point of the engine builds the grid's per-point tables
    engine = DeltaEngine(g)
    res = engine.delta()
    engine.delta(cycle_only=False)
    engine.bigon_lower_bound()
    engine.has_tight_short_triangle()
    thinness(engine.s, res.witness)
    assert res.stats.geodesic_s > 0
    assert engine.s._neighbors is None and engine.s._edge_points is None


def test_sweeps_log_at_debug(caplog):
    # one line per length the value sweep enters, one per witness triple
    g = product(path_graph(3), cycle_graph(4)).graph
    engine = DeltaEngine(g)
    with caplog.at_level(logging.DEBUG, logger="lexhyp"):
        first = engine.delta()
    lengths = [r.args for r in caplog.records if r.msg.startswith("sweep length")]
    ds = [d for d, _, _ in lengths]
    assert ds[0] == engine.jD.max() and ds == sorted(set(ds), reverse=True)
    assert [cur for _, cur, _ in lengths] == sorted(cur for _, cur, _ in lengths)
    assert all(pairs == engine.pairs_at(d)[0].size for d, _, pairs in lengths)
    assert all(d // 2 > cur for d, cur, _ in lengths)  # a length that cannot raise it is not entered
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lexhyp"):
        second = engine.delta(cycle_only=False)  # a witness search alone
    triples = [r.args for r in caplog.records if r.msg.startswith("witness triple")]
    assert len(caplog.records) == len(triples)
    assert len(triples) == second.stats.triples_examined - first.stats.triples_examined > 0
    assert triples[-1][:3] == second.witness.corners
    assert {t[3] for t in triples} == {second.value.quarters * engine.s.k // 4}


def test_import_leaves_logging_unloaded():
    # the sweeps log only where logging was imported, so importing lexhyp and
    # running a sweep do not pay for the module's import
    code = ("import sys, lexhyp; lexhyp.delta_exact(lexhyp.cycle_graph(5)); "
            "print('logging' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.stdout.strip() == "False"


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
            assert _tight_by_enumeration(g), g.edges


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
def test_tight_short_triangle_matches_family(seed, n):
    g = _random_connected(seed, n)
    assert has_tight_short_triangle(g) == in_family_F(g)[0]


# ---------------------------------------------------------------------------
# independent oracles: geodesic enumeration, no tables, ceilings or pruning
# ---------------------------------------------------------------------------

def _geodesic_arrays(s):
    hops = s.hops()
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


def _tight_by_enumeration(g: Graph) -> bool:
    """Whether some cycle triangle with corners in J(G), every side between
    0 and 12 hops long and the longest exactly 12, has a side point that is
    a vertex of G and exactly 6 hops (3/2) from the other two sides."""
    s = subdivide(g, 4)
    hops, geos = _geodesic_arrays(s)
    for x, y, z in itertools.combinations(s.j_set, 3):
        lengths = (hops[x, y], hops[y, z], hops[x, z])
        if min(lengths) < 0 or max(lengths) != 12:
            continue
        for tri in itertools.product(geos(x, y), geos(y, z), geos(x, z)):
            xy, yz, xz = (set(side.tolist()) for side in tri)
            if xy & yz != {y} or yz & xz != {z} or xz & xy != {x}:
                continue
            for i in range(3):
                others = np.concatenate([tri[(i + 1) % 3], tri[(i + 2) % 3]])
                far = hops[np.ix_(tri[i], others)].min(axis=1)
                if ((far == 6) & (tri[i] < g.vertex_count)).any():
                    return True
    return False


def _connected_graphs(max_n: int):
    return st.builds(_random_connected, st.integers(0, 10_000), st.integers(2, max_n))


def _graphs_and_induced_subgraphs(max_n: int):
    """Connected graphs, and induced subgraphs of them: often disconnected."""
    connected = _connected_graphs(max_n)
    induced = connected.flatmap(lambda g: st.sets(st.integers(0, g.vertex_count - 1), min_size=1)
                                .map(lambda keep: induced_subgraph(g, keep)))
    return st.one_of(connected, induced)


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


def test_atlas_both_sides_of_delta():
    # every connected networkx atlas graph with n <= 5: the engine's value
    # against the enumeration oracle, which shows that nothing exceeds it,
    # with and without the cycle restriction, and the bigon bound
    nx = pytest.importorskip("networkx")
    graphs = [Graph(h.number_of_nodes(), list(h.edges)) for h in nx.graph_atlas_g()[1:]
              if h.number_of_nodes() <= 5 and nx.is_connected(h)]
    assert len(graphs) == 31
    for g in graphs:
        value = delta_exact(g).value
        assert value.quarters == _delta_by_enumeration(g), g.edges
        assert DeltaEngine(g).delta(cycle_only=False).value == value, g.edges
        assert delta_bigon_lower_bound(g) == _bigon_oracle(g), g.edges


def test_atlas_short_triangle_against_enumeration():
    # every connected networkx atlas graph with n <= 6
    nx = pytest.importorskip("networkx")
    graphs = [Graph(h.number_of_nodes(), list(h.edges)) for h in nx.graph_atlas_g()[1:]
              if h.number_of_nodes() <= 6 and nx.is_connected(h)]
    assert len(graphs) == 143
    got = [has_tight_short_triangle(g) for g in graphs]
    assert got == [_tight_by_enumeration(g) for g in graphs]
    assert sum(got) == 3


@settings(max_examples=40, deadline=None)
@given(g=_graphs_and_induced_subgraphs(8))
# a tight triangle, and a length-3 side between midpoints, each beside a
# component out of reach
@example(g=Graph(7, list(cycle_graph(6).edges), _allow_disconnected=True))
@example(g=induced_subgraph(cycle_graph(8), [0, 1, 2, 3, 4, 6]))
def test_short_triangle_against_enumeration(g):
    assert has_tight_short_triangle(g) == _tight_by_enumeration(g)


@pytest.mark.parametrize("g", [cycle_graph(6), get_catalog().members[0],
                               product(path_graph(2), cycle_graph(5)).graph],
                         ids=["C6", "member-0", "lex(P2,C5)"])
def test_short_triangle_enumerates_no_geodesic(g, monkeypatch):
    import lexhyp.delta
    calls = []
    real = lexhyp.delta.enumerate_geodesics
    monkeypatch.setattr(lexhyp.delta, "enumerate_geodesics", lambda *a: calls.append(a) or real(*a))
    engine = DeltaEngine(g)
    engine.has_tight_short_triangle()
    assert calls == []
    engine.delta()  # the witness search is enumeration's one caller
    assert calls


@settings(max_examples=10, deadline=None)
@given(g=_connected_graphs(5), k=st.sampled_from((4, 8)))
@example(g=cycle_graph(5), k=8)
@example(g=product(path_graph(3), path_graph(2)).graph, k=4)
def test_side_values_against_enumeration(g, k):
    # entry c of side_values(a, b): the largest thinness on side a-b over
    # every geodesic choice of triangle (a, b, c)
    sweep = DeltaEngine(g, DeltaConfig(grid_factor=k))
    s = sweep.s
    hops, geos = _geodesic_arrays(s)
    jpos = {c: i for i, c in enumerate(s.j_set)}
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
            assert got[jpos[c]] == best, (a, b, c)


# ---------------------------------------------------------------------------
# corner masks against the ceiling they threshold
# ---------------------------------------------------------------------------

def _brute_ceiling(hops: np.ndarray, a: int, b: int, c: int) -> int:
    return int(np.minimum(np.minimum(hops[a], hops[b]), hops[c]).max())


@settings(max_examples=30, deadline=None)
@given(g=_graphs_and_induced_subgraphs(8))
@example(g=induced_subgraph(cycle_graph(8), [0, 1, 4, 5]))
@example(g=product(path_graph(3), path_graph(2)).graph)
def test_corner_masks_match_brute_ceiling(g):
    # entry (r, c) of the masks at t: whether max over grid points p of
    # min(d(a, p), d(b, p), d(c, p)) exceeds t, for every J-pair and every t,
    # UNREACHABLE hop counts included
    sweep = DeltaEngine(g)
    s = sweep.s
    hops = s.hops()
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
    sweep = DeltaEngine(s.base)
    hops, j = s.hops(), s.j_set
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
@example(g=_rotated_p2_c5())  # rotations: g and its inverse differ
# the value rises at the 7th side of a 27-side chunk, after sides sharing roots
@example(g=product(Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3)]), complete_graph(3),
                   CARTESIAN).graph)
# a root's count cached at the old value would overcharge the rest of the chunk
@example(g=product(path_graph(3), complete_graph(3), CARTESIAN).graph)
def test_chunked_sweep_counts_match_per_side_sweep(g):
    # the masks of a chunk are recomputed whenever the running value rises,
    # so each side is charged the corners whose ceiling beats the value at it
    sweep = DeltaEngine(g)
    s = sweep.s
    got = sweep.value_sweep()
    assert (got, sweep.stats.triples_examined, sweep.stats.sides_visited) == _per_side_sweep(s)
    # side values are read only for visited sides, none past a rise
    assert sweep.stats.sides_exact <= sweep.stats.sides_visited


# ---------------------------------------------------------------------------
# one engine per graph: every entry point, in every order
# ---------------------------------------------------------------------------

_ENGINE_CALLS = {  # name -> (engine call, the standalone function it must match)
    "bigon": (DeltaEngine.bigon_lower_bound, delta_bigon_lower_bound),
    "triangle": (DeltaEngine.has_tight_short_triangle, has_tight_short_triangle),
    "delta": (DeltaEngine.delta, delta_exact),
    "delta_free": (lambda e: e.delta(cycle_only=False),
                   lambda g: DeltaEngine(g).delta(cycle_only=False)),
}


def _answer(got):
    """A call's answer; a DeltaResult's without its stats, which count all
    the work its engine has done."""
    if isinstance(got, DeltaResult):
        got = got.to_json_dict()
        got.pop("stats")
    return got


def _check_engine_order(g: Graph, order) -> None:
    engine = DeltaEngine(g)
    for i, name in enumerate(order):
        call, alone = _ENGINE_CALLS[name]
        got, want = call(engine), alone(g)
        assert _answer(got) == _answer(want), (name, order)
        if i == 0 and name == "delta":  # a fresh engine's first delta() is delta_exact's
            assert got.to_json_dict() == want.to_json_dict()


@settings(max_examples=30, deadline=None)
@given(g=_connected_graphs(7), order=st.permutations(sorted(_ENGINE_CALLS)))
@example(g=cycle_graph(6), order=["delta", "bigon", "triangle", "delta_free"])
@example(g=trivial_graph(), order=["delta", "delta_free", "bigon", "triangle"])
def test_engine_shared_across_entry_points(g, order):
    _check_engine_order(g, order)


@pytest.mark.parametrize("order", list(itertools.permutations(sorted(_ENGINE_CALLS))))
def test_engine_shared_on_a_product_with_generators(order):
    g = product(path_graph(3), cycle_graph(4)).graph
    _check_engine_order(g, order)


def test_engine_sweeps_the_value_once():
    engine = DeltaEngine(product(path_graph(3), cycle_graph(4)).graph)
    first = engine.delta()
    swept = (engine.stats.sides_visited, engine.stats.sides_exact, engine.stats.value_s)
    again = engine.delta()
    assert (engine.stats.sides_visited, engine.stats.sides_exact, engine.stats.value_s) == swept
    assert again.to_json_dict()["witness"] == first.to_json_dict()["witness"]
    # each result holds a copy of the engine's stats, which count both
    # witness searches; the second reuses the geodesics of the first
    assert again.stats is not first.stats
    assert again.stats.triples_examined > first.stats.triples_examined
    assert again.stats.geodesics_enumerated == first.stats.geodesics_enumerated
    assert again.stats.witness_s > first.stats.witness_s


def test_engine_short_triangle_needs_s4():
    engine = DeltaEngine(cycle_graph(6), DeltaConfig(grid_factor=8))
    with pytest.raises(ValidationError):
        engine.has_tight_short_triangle()
    # the module function takes no config: it always builds an S_4 engine
    assert has_tight_short_triangle(cycle_graph(6))


@pytest.mark.parametrize("g", [Graph(3, [(0, 1)], _allow_disconnected=True),
                               induced_subgraph(path_graph(3), [0, 2])])
def test_delta_rejects_a_disconnected_graph(g):
    # the witness search raised KeyError on the first; an engine and its
    # corner masks still work on such graphs
    engine = DeltaEngine(g)
    assert engine.corner_masks(np.array([0]), np.array([1]), 0).shape == (1, engine.nj)
    for call in (engine.delta, lambda: delta_exact(g)):
        with pytest.raises(ValidationError, match="delta needs a connected graph"):
            call()


@pytest.mark.parametrize("k", (4, 8))
def test_engine_j_metric_is_j_hops(k):
    p = product(path_graph(3), cycle_graph(4)).graph
    engine = DeltaEngine(p, DeltaConfig(grid_factor=k))
    assert engine.jD.dtype == j_hops(p, k).dtype
    assert np.array_equal(engine.jD, j_hops(p, k))


def test_longest_first_lists_each_length_row_major():
    # the sweep meets the J-pairs of each length in the row-major order of
    # np.triu_indices, and lists a length only when it reaches it
    engine = DeltaEngine(product(path_graph(3), cycle_graph(4)).graph)
    iu = np.triu_indices(engine.nj, 1)
    lengths = np.unique(engine.jD[iu])[::-1].tolist()
    seen, listed = [], []
    real = engine.pairs_at
    engine.pairs_at = lambda d: listed.append(d) or real(d)

    def side(ii, jj, cur):
        seen.extend(zip(ii.tolist(), jj.tolist()))
        return cur, ii.size  # never raises the value: every pair is met

    assert engine.longest_first(side) == 0
    want = [(i, j) for d in lengths if d // 2 > 0
            for i, j in zip(*(x[engine.jD[iu] == d].tolist() for x in iu))]
    assert seen == want and listed == [d for d in lengths if d // 2 > 0]
    # a sweep that stops after the first pair lists only the longest length
    listed.clear()
    assert engine.longest_first(lambda ii, jj, cur: (lengths[0] // 2, 1)) == lengths[0] // 2
    assert listed == [lengths[0]]
