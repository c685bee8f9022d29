"""Automorphisms carried by products, and the value sweep's fold over J-pair
orbit roots: same outputs as a plain copy, verified generators, exact
orbits."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lexhyp.graph as graph_module
from lexhyp import (CARTESIAN, LEXICOGRAPHIC, STRONG, Graph, ValidationError,
                    complete_graph, cycle_graph, delta_exact, path_graph, product, star_graph)
from lexhyp.delta import DeltaEngine


@st.composite
def _factors(draw, max_n: int = 4):
    """A connected graph on 1..max_n vertices: a random spanning tree plus extra edges."""
    n = draw(st.integers(1, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    return Graph(n, tree + extra)


def _plain(g: Graph) -> Graph:
    """The same graph, carrying no automorphisms."""
    return Graph(g.vertex_count, g.edges)


def _group(gens: np.ndarray, n: int) -> set:
    """Every element of the permutation group that `gens` generate."""
    ident = tuple(range(n))
    seen, todo = {ident}, [ident]
    while todo:
        p = todo.pop()
        for g in gens.tolist():
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


# ---------------------------------------------------------------------------
# same outputs with and without the orbits
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(g1=_factors(), g2=_factors(), kind=st.sampled_from([LEXICOGRAPHIC, CARTESIAN, STRONG]))
@example(g1=path_graph(3), g2=cycle_graph(4), kind=LEXICOGRAPHIC)
@example(g1=cycle_graph(4), g2=path_graph(2), kind=CARTESIAN)
@example(g1=path_graph(3), g2=complete_graph(3), kind=STRONG)
@example(g1=path_graph(3), g2=path_graph(4), kind=CARTESIAN)
def test_product_sweep_matches_plain_copy(g1, g2, kind):
    p = product(g1, g2, kind).graph
    for cycle_only in (True, False):
        got = DeltaEngine(p).delta(cycle_only)
        plain = DeltaEngine(_plain(p)).delta(cycle_only)
        assert got.to_json_dict() == plain.to_json_dict()
        assert got.stats.triples_examined == plain.stats.triples_examined
        assert got.stats.sides_visited == plain.stats.sides_visited
        assert got.stats.tables_built <= plain.stats.tables_built
        assert got.stats.sides_exact <= plain.stats.sides_exact
    _short_triangle_matches_plain_copy(p)


def _short_triangle_matches_plain_copy(p: Graph) -> None:
    # the short-triangle predicate reads one midpoint pair per orbit
    fold, plain = DeltaEngine(p), DeltaEngine(_plain(p))
    assert fold.has_tight_short_triangle() == plain.has_tight_short_triangle()
    assert fold.stats.tables_built <= plain.stats.tables_built


def _rotated_p2_c5() -> Graph:
    """lex(P2, C5) carrying rotations of one C5 fiber and of both: unlike the
    involutions the search tends to return, g and its inverse differ."""
    p = product(path_graph(2), cycle_graph(5)).graph
    turn = (np.arange(5) + 1) % 5
    one = np.concatenate([turn, np.arange(5, 10)])
    both = np.concatenate([turn, turn + 5])
    p._automorphisms = np.array([one, both], dtype=np.int32)
    return p


def _two_products_at_a_cut_vertex() -> Graph:
    """Two copies of lex(P3, C4) sharing their vertex 0, a cut vertex.  It
    carries the swap of the copies and the first copy's generators that fix
    0: the sweeps read only in-block triples, and the generators map blocks
    to blocks."""
    p = product(path_graph(3), cycle_graph(4)).graph
    n = p.vertex_count
    second = np.concatenate([[0], np.arange(n, 2 * n - 1)])  # copy two's id of each vertex of p
    g = Graph(2 * n - 1, list(p.edges) + [(int(second[u]), int(second[v])) for u, v in p.edges])
    swap = np.arange(2 * n - 1)
    swap[1:n], swap[second[1:]] = second[1:], np.arange(1, n)
    fixing = [np.concatenate([perm, np.arange(n, 2 * n - 1)])
              for perm in p.automorphism_generators() if perm[0] == 0]
    g._automorphisms = np.array([swap, *fixing], dtype=np.int32)
    return g


def _identity_and_duplicate_p3_c4() -> Graph:
    """lex(P3, C4) carrying, besides its generators, the identity and a
    second copy of its first generator: rows that move no pair of a
    length, and edges that repeat."""
    p = product(path_graph(3), cycle_graph(4)).graph
    gens = p.automorphism_generators()
    p._automorphisms = np.concatenate([np.arange(p.vertex_count, dtype=np.int32)[None], gens,
                                       gens[:1]])
    return p


_FOLD_CASES = {
    "lex-P3-C4": product(path_graph(3), cycle_graph(4)).graph,
    "lex-P2-K3": product(path_graph(2), complete_graph(3)).graph,
    "lex-C4-P3": product(cycle_graph(4), path_graph(3)).graph,
    "lex-S2-C5": product(star_graph(2), cycle_graph(5)).graph,
    "cart-P3-C4": product(path_graph(3), cycle_graph(4), CARTESIAN).graph,
    "strong-C4-P2": product(cycle_graph(4), path_graph(2), STRONG).graph,
    "lex-P2-C5-rotations": _rotated_p2_c5(),
    "two-lex-P3-C4-cut-vertex": _two_products_at_a_cut_vertex(),
    "lex-P3-C4-identity-and-duplicate": _identity_and_duplicate_p3_c4(),
}


@pytest.mark.parametrize("p", _FOLD_CASES.values(), ids=_FOLD_CASES.keys())
def test_root_fold_matches_plain_copy(p):
    # each chunk is folded over its orbit roots: the value, the witness and
    # both counters must be those of the copy where every pair is its own root
    for cycle_only in (True, False):
        got = DeltaEngine(p).delta(cycle_only)
        plain = DeltaEngine(_plain(p)).delta(cycle_only)
        assert plain.stats.orbit_s == 0
        assert got.to_json_dict() == plain.to_json_dict()
        assert got.stats.triples_examined == plain.stats.triples_examined
        assert got.stats.sides_visited == plain.stats.sides_visited
        assert got.stats.tables_built <= plain.stats.tables_built
        assert got.stats.sides_exact <= plain.stats.sides_exact
    _short_triangle_matches_plain_copy(p)


@pytest.mark.parametrize("p", _FOLD_CASES.values(), ids=_FOLD_CASES.keys())
def test_first_pair_of_a_length_skips_the_root_search(p):
    # a length's first pair is its own root and is folded before the length's
    # roots are found: a length the sweep leaves after that pair keeps its
    # `_root` entries unset, every other length it folds has them all set
    sweep = DeltaEngine(p)
    assert sweep.gens is not None
    folded: dict[int, int] = {}  # length -> pairs folded there
    close = sweep._close_sides

    def counted(ii, jj, cur):
        got = close(ii, jj, cur)
        d = int(sweep.jD[ii[0], jj[0]])
        folded[d] = folded.get(d, 0) + got[1]
        return got

    sweep._close_sides = counted
    sweep.value_sweep()
    pi, pj = np.triu_indices(sweep.nj, 1)
    for d, pairs in folded.items():
        at = sweep.jD[pi, pj] == d
        roots = sweep._root[pi[at], pj[at]]
        assert (roots == -1).all() if pairs == 1 else (roots >= 0).all(), (d, pairs)


def test_plain_graph_enters_a_length_at_its_first_pair():
    # a graph without generators folds a length's first pair alone too: on
    # C40 the sweep stops after it, so one pair is masked, not all 40 of the
    # longest length, and the counters are those of masking the whole length
    sweep = DeltaEngine(cycle_graph(40))
    masked = []
    close = sweep.corner_masks
    sweep.corner_masks = lambda ii, jj, t: masked.append(len(ii)) or close(ii, jj, t)
    res = sweep.delta()
    assert masked == [1] and res.stats.masked_pairs == 1
    assert res.value.quarters == 40
    st = res.stats
    assert (st.triples_examined, st.sides_visited, st.tables_built, st.sides_exact) == (79, 1, 2, 1)


@pytest.mark.parametrize("p", [_FOLD_CASES[k] for k in ("lex-P2-K3", "cart-P3-C4",
                                                       "lex-P2-C5-rotations")])
def test_sweep_ending_after_one_pair_finds_no_roots(p):
    # these sweeps close one side and stop, so neither the value sweep nor the
    # witness search finds any root
    res = delta_exact(p)
    assert res.stats.orbit_s == 0 and res.stats.sides_visited == 1


@pytest.mark.parametrize("p", _FOLD_CASES.values(), ids=_FOLD_CASES.keys())
def test_roots_are_first_pairs_of_orbits(p):
    # every J-pair's root against its orbit closed pair by pair under the
    # generators: the orbit's first pair in row-major (longest_first) order
    sweep = DeltaEngine(p)
    pi, pj = np.triu_indices(sweep.nj, 1)
    gens = sweep.gens.tolist()
    for i, j in zip(pi.tolist(), pj.tolist()):
        orbit, todo = {(i, j)}, [(i, j)]
        while todo:
            a, b = todo.pop()
            for g in gens:
                q = (min(g[a], g[b]), max(g[a], g[b]))
                if q not in orbit:
                    orbit.add(q)
                    todo.append(q)
        first = min(orbit)
        assert all(sweep.jD[a, b] == sweep.jD[i, j] for a, b in orbit)
        assert int(sweep.roots(np.array([i]), np.array([j]))[0]) == first[0] * sweep.nj + first[1]


def test_roots_in_slices_match_one_slice(monkeypatch):
    # the edge list built and scattered a few pairs at a time gives the
    # roots of one list over the whole length
    import lexhyp.delta
    p = _FOLD_CASES["lex-P3-C4-identity-and-duplicate"]
    whole, sliced = DeltaEngine(p), DeltaEngine(p)
    pi, pj = np.triu_indices(whole.nj, 1)
    lengths = whole.jD[pi, pj]
    for d in np.unique(lengths).tolist():
        at = lengths == d
        want = whole.roots(pi[at], pj[at])
        monkeypatch.setattr(lexhyp.delta, "ROOT_CHUNK", 7)
        assert np.array_equal(sliced.roots(pi[at], pj[at]), want), d
        monkeypatch.undo()


@pytest.mark.parametrize("g1, g2, orbits", [
    (path_graph(6), cycle_graph(5), 135),
    (cycle_graph(10), path_graph(3), 158),
])
def test_j_pair_orbit_counts(g1, g2, orbits):
    # the orbit counts of the construction group, measured independently
    # with networkx VF2 generators and a union-find
    sweep = DeltaEngine(product(g1, g2).graph)
    pi, pj = np.triu_indices(sweep.nj, 1)
    lengths = sweep.jD[pi, pj]
    assert sum(np.unique(sweep.roots(pi[lengths == d], pj[lengths == d])).size
               for d in np.unique(lengths).tolist()) == orbits


def test_plain_graph_does_no_orbit_work():
    res = delta_exact(_plain(product(path_graph(3), cycle_graph(4)).graph))
    assert res.stats.orbit_s == 0
    assert res.stats.sides_exact > 0


# ---------------------------------------------------------------------------
# generators: from the construction, verified before use
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(g1=_factors(), g2=_factors(), kind=st.sampled_from([LEXICOGRAPHIC, CARTESIAN, STRONG]))
def test_carried_generators_are_automorphisms(g1, g2, kind):
    p = product(g1, g2, kind).graph
    perms = p.automorphism_generators()
    assert perms is p._automorphisms and not perms.flags.writeable
    for perm in perms.tolist():
        assert sorted(perm) == list(range(p.vertex_count))
        assert all(p.has_edge(perm[u], perm[v]) for u, v in p.edges)
    # they generate Aut(G2) wr Aut(G1) for lex (Sabidussi), Aut(G1) x Aut(G2) otherwise
    a1 = len(_group(g1.automorphism_generators(), g1.vertex_count))
    a2 = len(_group(g2.automorphism_generators(), g2.vertex_count))
    order = a2 ** g1.vertex_count * a1 if kind == LEXICOGRAPHIC else a1 * a2
    if order <= 2000:
        assert len(_group(perms, p.vertex_count)) == order


def test_no_search_runs_on_a_product(monkeypatch):
    searched = []
    real = graph_module._search_automorphisms
    monkeypatch.setattr(graph_module, "_search_automorphisms",
                        lambda d: searched.append(d.shape[0]) or real(d))
    inner = product(path_graph(2), cycle_graph(3))
    outer = product(inner.graph, path_graph(4))
    assert searched == []  # the generators are built when a sweep first asks
    delta_exact(outer.graph)
    assert sorted(searched) == [2, 3, 4]  # the factors only, never the inner product


def test_planted_non_automorphism_is_rejected():
    p = product(path_graph(3), cycle_graph(4)).graph
    swap = np.arange(p.vertex_count, dtype=np.int32)
    swap[[0, 4]] = 4, 0  # (0, 0) <-> (1, 0): an end fiber with the middle one
    p._automorphisms = np.concatenate([p.automorphism_generators(), swap[None]])
    with pytest.raises(ValidationError, match="not an edge"):
        delta_exact(p)
    p._automorphisms = np.zeros((1, p.vertex_count), dtype=np.int32)
    with pytest.raises(ValidationError, match="not a vertex permutation"):
        delta_exact(p)


def test_atlas_generator_orbits_match_vf2():
    # every connected graph on at most 6 vertices: the generators found by
    # the search generate the full automorphism group VF2 enumerates
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    checked = 0
    for h in nx.graph_atlas_g()[1:]:
        n = h.number_of_nodes()
        if n > 6 or not nx.is_connected(h):
            continue
        g = Graph(n, list(h.edges()))
        gens = g.automorphism_generators()
        full = {tuple(m[v] for v in range(n)) for m in GraphMatcher(h, h).isomorphisms_iter()}
        assert _group(gens, n) == full, g.edges  # so the vertex orbits are equal too
        checked += 1
    assert checked == 143


def test_search_cap_keeps_a_subgroup(monkeypatch):
    # a search stopped early returns fewer generators, each one still valid
    monkeypatch.setattr(graph_module, "AUT_SEARCH_NODES", 3)
    g = product(cycle_graph(5), path_graph(2), CARTESIAN).graph
    perms = graph_module._search_automorphisms(g.vertex_distances())
    for perm in perms.tolist():
        assert all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)
    assert len(_group(perms, g.vertex_count)) < 20  # Aut(C5 [] P2) has order 20


# ---------------------------------------------------------------------------
# the corner masks never prune on a non-finite product entry
# ---------------------------------------------------------------------------

def test_corner_masks_keep_corners_on_nan():
    sweep = DeltaEngine(cycle_graph(6))
    ii, jj = np.array([0, 1]), np.array([3, 4])
    t = 8
    clean = sweep.corner_masks(ii, jj, t)
    far = sweep._far[1].copy()
    far[2, :] = np.nan  # third corner 2
    sweep._far = (t, far)
    got = sweep.corner_masks(ii, jj, t)
    assert got[:, 2].all()
    assert not clean[:, 2].all()
    rest = np.arange(sweep.nj) != 2
    assert np.array_equal(got[:, rest], clean[:, rest])
    assert sweep.stats.masks_recomputed == 1  # the NaN came back, so it stayed


def _nan_in_products(rows: np.ndarray, times: int) -> np.ndarray:
    """`rows` as an engine's J rows whose corner-mask products come back with
    a NaN at their first zero, the first `times` products that have one."""
    left = [times]

    class Faulty(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            got = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
            if ufunc is np.greater:  # jrows > t, the product's right factor
                return got.view(Faulty)
            if ufunc is np.matmul and left[0] and (got == 0).any():
                left[0] -= 1
                got[tuple(np.argwhere(got == 0)[0])] = np.nan
            return got

    return rows.view(Faulty)


@pytest.mark.parametrize("g", [product(cycle_graph(6), path_graph(n)).graph for n in (2, 3)],
                         ids=["lex-C6-P2", "lex-C6-P3"])
def test_corner_masks_recompute_a_one_off_nan(g):
    # a product that held a NaN once is computed again: the sweep's output
    # and counters are those of a clean run; had the NaN come back, its
    # corner would have been kept and counted
    def run(times):
        engine = DeltaEngine(g)
        if times:
            engine.jrows = _nan_in_products(engine.jrows, times)
        res = engine.delta()
        return res.to_json_dict(), res.stats.sides_visited, res.stats.masks_recomputed

    clean, once, twice = run(0), run(1), run(2)
    assert once == (clean[0], clean[1], 1) and clean[2] == 0
    assert twice[2] == 1
    assert twice[0]["stats"]["triples_examined"] > clean[0]["stats"]["triples_examined"]


# ---------------------------------------------------------------------------
# Graph construction against the per-edge loop it replaces
# ---------------------------------------------------------------------------

def _loop_graph(n: int, edges):
    """The per-edge reference: (sorted edges, neighbor tuples) or the error."""
    seen = set()
    for u, v in edges:
        if u == v:
            return f"loop at vertex {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) outside vertex range 0..{n - 1}"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge ({key[0]},{key[1]})"
        seen.add(key)
    nbrs = [[] for _ in range(n)]
    for u, v in sorted(seen):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(sorted(seen)), tuple(tuple(sorted(a)) for a in nbrs)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), edges=st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)),
                                           max_size=12))
@example(n=3, edges=[(0, 1), (0, 5), (1, 1)])
@example(n=3, edges=[(2, 2), (0, 1), (0, 1)])
@example(n=4, edges=[(0, 5), (1, 2)])  # out of range, and later a key collision
def test_graph_init_matches_per_edge_loop(n, edges):
    want = _loop_graph(n, edges)
    try:
        g = Graph(n, edges, _allow_disconnected=True)
    except ValidationError as err:
        assert str(err) == want
    else:
        assert (g.edges, g._neighbors) == want
