"""Forbidden-family catalog: counts, dedup, isomorphism, membership."""

import random
import tracemalloc
from itertools import combinations
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from lexhyp import (CorpusSpec, Graph, build_catalog, complete_graph, cycle_graph,
                    generate_corpus, get_catalog, in_family_F, induced_subgraph, is_isomorphic,
                    path_graph, random_connected, star_graph)
import lexhyp.catalog
from lexhyp.catalog import DEDUP_MEMBERS, FAMILY_CHORD_POOLS, _find_induced
from lexhyp.graph import UNREACHABLE

RAW_COUNT = 68
# one-time exhaustive isomorphism pass over the 68 raw members (see the
# pairwise oracle below, which recomputes it independently)
DEDUP_GOLDEN = 40


def test_raw_counts_per_family():
    raw = build_catalog(dedup=False)
    assert len(raw) == RAW_COUNT
    by_family = {}
    for tag in raw.family_tags:
        by_family[tag] = by_family.get(tag, 0) + 1
    assert by_family == {"C6_1": 4, "C7_1": 16, "C8_1": 16, "C8_2": 16, "C9_1": 16}


def test_chord_pools_shape():
    sizes = {tag: len(pool) for tag, _, pool in FAMILY_CHORD_POOLS}
    assert sizes == {"C6_1": 2, "C7_1": 4, "C8_1": 4, "C8_2": 4, "C9_1": 4}


def test_chordless_cycles_are_members():
    raw = build_catalog(dedup=False)
    for n in (6, 7, 8, 9):
        assert any(g == Graph(n, cycle_graph(n).edges) and not ch
                   for g, ch in zip(raw.members, raw.chords))


def test_members_span_their_cycle():
    raw = build_catalog(dedup=False)
    for g in raw.members:
        n = g.vertex_count
        assert 6 <= n <= 9
        assert set(cycle_graph(n).edges) <= set(g.edges)


def _iso_oracle(g1: Graph, g2: Graph) -> bool:
    """Independent isomorphism test: networkx VF2."""
    nx = pytest.importorskip("networkx")

    def to_nx(g: Graph):
        h = nx.Graph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges)
        return h

    return nx.is_isomorphic(to_nx(g1), to_nx(g2))


def test_dedup_golden_constant_against_pairwise_oracle():
    raw = build_catalog(dedup=False)
    reps = []
    for i, g in enumerate(raw.members):
        if not any(_iso_oracle(g, raw.members[r]) for r in reps):
            reps.append(i)
    assert len(reps) == DEDUP_GOLDEN
    cat = build_catalog(dedup=True)
    assert len(cat) == DEDUP_GOLDEN
    assert cat.deduplicated
    # the first member of each class, with its tag and chords
    assert cat.members == tuple(raw.members[i] for i in reps)
    assert cat.family_tags == tuple(raw.family_tags[i] for i in reps)
    assert cat.chords == tuple(raw.chords[i] for i in reps)


def test_stored_catalog_matches_the_search():
    # the stored member list is the reference search's output, member by
    # member: tags, chords, edges and order
    stored, searched = get_catalog(), build_catalog(dedup=True)
    assert len(DEDUP_MEMBERS) == len(stored) == len(searched) == DEDUP_GOLDEN
    assert stored.deduplicated and searched.deduplicated
    assert stored.family_tags == searched.family_tags
    assert stored.chords == searched.chords
    assert [g.edges for g in stored.members] == [g.edges for g in searched.members]
    assert stored.members == searched.members


def test_stored_catalog_runs_no_search(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _find_induced(*args)

    monkeypatch.setattr(lexhyp.catalog, "_find_induced", counted)
    lexhyp.catalog.get_catalog.cache_clear()
    try:
        assert len(get_catalog()) == DEDUP_GOLDEN
    finally:
        lexhyp.catalog.get_catalog.cache_clear()
    assert calls == []


def test_dedup_members_pairwise_non_isomorphic():
    cat = get_catalog()
    for i, g1 in enumerate(cat.members):
        for g2 in cat.members[i + 1:]:
            assert not _iso_oracle(g1, g2)
            assert not is_isomorphic(g1, g2)


def test_is_isomorphic_agrees_with_oracle_on_members():
    raw = build_catalog(dedup=False)
    members = raw.members
    for i in range(len(members)):
        for jj in range(i + 1, len(members)):
            assert is_isomorphic(members[i], members[jj]) == _iso_oracle(members[i], members[jj])


def test_is_isomorphic_basics():
    c6 = Graph(6, [(5, 0), (0, 3), (3, 1), (1, 4), (4, 2), (2, 5)])  # relabeled C6
    for g1, g2, want in ((cycle_graph(6), c6, True),
                         (path_graph(4), star_graph(3), False),
                         (complete_graph(5), complete_graph(5), True)):
        assert is_isomorphic(g1, g2) == _iso_oracle(g1, g2) == want


def test_family_tag_keeps_first_listed_family():
    cat = get_catalog()
    order = [tag for tag, _, _ in FAMILY_CHORD_POOLS]
    seen = [order.index(t) for t in cat.family_tags]
    # tags follow enumeration order, so indexes are non-decreasing
    assert seen == sorted(seen)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_c6_is_member_with_full_witness():
    ok, w = in_family_F(cycle_graph(6))
    assert ok
    assert w.subset == (0, 1, 2, 3, 4, 5)
    assert w.member_index == 0


def test_c5_not_member():
    assert in_family_F(cycle_graph(5)) == (False, None)


def test_k6_not_member_exhaustive():
    # every 6-subset of K6 induces K6 itself, which is no catalog member
    cat = get_catalog()
    k6 = complete_graph(6)
    for sub in combinations(range(6), 6):
        induced = induced_subgraph(k6, sub)
        assert not any(is_isomorphic(induced, m) for m in cat.members)
    assert in_family_F(k6) == (False, None)


def test_c9_with_one_chord_is_member():
    g = Graph(9, list(cycle_graph(9).edges) + [(1, 5)])  # chord v2-v6
    ok, w = in_family_F(g)
    assert ok


def test_witness_induces_tagged_member():
    cat = get_catalog()
    for idx, member in enumerate(cat.members):
        ok, w = in_family_F(member)
        assert ok
        realized = induced_subgraph(member, w.subset)
        assert is_isomorphic(realized, cat.members[w.member_index])
        assert w.member_index <= idx  # lowest member index wins


def test_membership_monotone_under_supergraphs():
    # attach a pendant vertex to a member: still in the family
    cat = get_catalog()
    for member in cat.members[:6]:
        n = member.vertex_count
        g = Graph(n + 1, list(member.edges) + [(0, n)])
        ok, w = in_family_F(g)
        assert ok


def test_membership_deterministic():
    g = Graph(9, list(cycle_graph(9).edges) + [(1, 5)])
    assert in_family_F(g) == in_family_F(g)


def test_small_graphs_never_members():
    for g in (path_graph(5), cycle_graph(3), complete_graph(5), star_graph(4)):
        assert in_family_F(g)[0] is False


@st.composite
def _graphs(draw, max_n: int) -> Graph:
    """Any graph on 1..max_n vertices, disconnected ones included."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges, _allow_disconnected=True)


@settings(max_examples=300, deadline=None)
@given(pattern=_graphs(5), target=_graphs(8))
@example(pattern=induced_subgraph(path_graph(3), [0, 2]), target=path_graph(3))
def test_find_induced_matches_vf2(pattern, target):
    # the distance prune must not reject patterns with two components
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges)
        return h

    mapping = _find_induced(pattern, target)
    vf2 = GraphMatcher(to_nx(target), to_nx(pattern)).subgraph_is_isomorphic()
    assert (mapping is not None) == vf2
    if mapping is not None:  # an injective map keeping edges and non-edges
        assert sorted(mapping) == list(range(pattern.vertex_count))
        assert len(set(mapping.values())) == pattern.vertex_count
        for u, v in combinations(range(pattern.vertex_count), 2):
            assert pattern.has_edge(u, v) == target.has_edge(mapping[u], mapping[v])


def _find_induced_reference(pattern: Graph, target: Graph) -> Optional[dict]:
    """The plain backtracking search, with sets and a distance matrix: the
    same order (rarest candidates first, ascending images) and prunes as
    `_find_induced`, one candidate at a time."""
    np_, nt = pattern.vertex_count, target.vertex_count
    if np_ > nt:
        return None
    tdeg = [target.degree(t) for t in range(nt)]
    padj = [set(pattern.neighbors(u)) for u in range(np_)]
    tadj = [set(target.neighbors(t)) for t in range(nt)]
    pdist = pattern.vertex_distances()
    tdist = target.vertex_distances()
    cands = {u: [t for t in range(nt) if tdeg[t] >= pattern.degree(u)] for u in range(np_)}
    if any(not c for c in cands.values()):
        return None

    order = [min(range(np_), key=lambda u: (len(cands[u]), u))]
    placed = set(order)
    while len(order) < np_:
        frontier = [u for u in range(np_) if u not in placed and padj[u] & placed]
        pick = min(frontier or [u for u in range(np_) if u not in placed],
                   key=lambda u: (len(cands[u]), u))
        order.append(pick)
        placed.add(pick)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == np_:
            return True
        u = order[i]
        for t in cands[u]:
            if t in used:
                continue
            ok = True
            for u2, t2 in mapping.items():
                adj_p = u2 in padj[u]
                if adj_p != (t2 in tadj[t]):
                    ok = False
                    break
                if not adj_p and pdist[u, u2] != UNREACHABLE and tdist[t, t2] > pdist[u, u2]:
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = t
            used.add(t)
            if extend(i + 1):
                return True
            del mapping[u]
            used.remove(t)
        return False

    return mapping if extend(0) else None


def _family_targets(which: str) -> list[Graph]:
    if which == "members":
        return list(get_catalog().members)
    if which == "corpus":
        return [g for seed in range(3) for g in generate_corpus(CorpusSpec(seed=seed)).graphs]
    return [random_connected(n, random.Random(s)) for n in range(6, 15) for s in range(3)]


@pytest.mark.parametrize("which", ["members", "corpus", "random"])
def test_bitset_search_matches_the_reference(which):
    # the bitset search returns the reference's first embedding, image for
    # image, for every catalog member as the pattern
    members = get_catalog().members
    found = 0
    for target in _family_targets(which):
        for member in members:
            want = _find_induced_reference(member, target)
            assert _find_induced(member, target) == want, (member.edges, target.edges)
            found += want is not None
    assert found


@pytest.mark.parametrize("g", [path_graph(1000), cycle_graph(1000)], ids=["P1000", "C1000"])
def test_membership_bitsets_stay_small_on_a_long_graph(g):
    # the bitsets keep one row per distance the catalog members need, not
    # one per distance of the target: with the distances already cached,
    # deciding membership holds a few n^2 bytes at its peak, where a row
    # per radius up to the diameter would hold hundreds
    g.vertex_distances()
    tracemalloc.start()
    try:
        assert in_family_F(g) == (False, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.vertex_count ** 2
