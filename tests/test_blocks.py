"""Biconnected blocks: the lowpoint DFS, and the engine's in-block sweeps
against the same engine sweeping the whole graph."""

import itertools
import logging
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lexhyp import (DeltaEngine, Graph, QDist, cycle_graph, path_graph, random_connected,
                    random_tree, star_graph, thinness)

# C5 on 0..4 and a triangle 0, 5, 6 sharing vertex 0, and a pendant edge at 6
C5_K3_PENDANT = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (0, 6), (5, 6), (6, 7)])


def _atlas(max_n: int) -> list[Graph]:
    nx = pytest.importorskip("networkx")
    return [Graph(h.number_of_nodes(), list(h.edges)) for h in nx.graph_atlas_g()[1:]
            if h.number_of_nodes() <= max_n and nx.is_connected(h)]


def _networkx_blocks(g: Graph) -> list[tuple[int, ...]]:
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.vertex_count))
    return sorted(tuple(sorted(b)) for b in nx.biconnected_components(h))


def test_blocks_match_networkx_on_the_atlas():
    graphs = _atlas(7)
    assert len(graphs) == 996
    for g in graphs:
        assert list(g.blocks()) == _networkx_blocks(g), g.edges


def test_blocks_of_a_long_path_need_no_recursion():
    # 5000 vertices deep: a recursive DFS would pass Python's recursion limit
    g = path_graph(5000)
    assert list(g.blocks()) == _networkx_blocks(g) == [(v, v + 1) for v in range(4999)]
    assert g.blocks() is g.blocks()  # cached


def _whole_graph(g: Graph, cycle_only: bool):
    """The engine's result with its block finder reporting one block, so
    that it sweeps every J-pair and third corner, as on a 2-connected graph."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Graph, "blocks", lambda self: (tuple(range(self.vertex_count)),))
        return DeltaEngine(g).delta(cycle_only)


def _whole_graph_engine(g: Graph) -> DeltaEngine:
    """An engine built while its block finder reports one block, so that
    its J metric holds every J-pair, as on a 2-connected graph."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Graph, "blocks", lambda self: (tuple(range(self.vertex_count)),))
        return DeltaEngine(g)


def _check_against_whole_graph(g: Graph) -> None:
    blocked, whole_graph = DeltaEngine(g), _whole_graph_engine(g)
    assert blocked.bigon_lower_bound() == whole_graph.bigon_lower_bound(), g.edges
    assert blocked.has_tight_short_triangle() == whole_graph.has_tight_short_triangle(), g.edges
    for cycle_only in (True, False):
        engine = DeltaEngine(g)
        got, whole = engine.delta(cycle_only), _whole_graph(g, cycle_only)
        assert got.value == whole.value, g.edges
        assert thinness(got.grid, got.witness) == (got.value, got.witness_point)
        if cycle_only and got.value.quarters > 0:
            assert got.witness.is_cycle
        if got.value.quarters > 0:  # a positive value's witness lies in one block
            ids = [engine.J.index(c) for c in got.witness.corners]
            assert all(engine.jD[i, j] >= 0 for i, j in itertools.combinations(ids, 2)), g.edges
        if len(g.blocks()) <= 1:  # no cut vertex: today's sweep, output for output
            assert got.to_json_dict() == whole.to_json_dict()
            continue
        # the first attaining triple is the same when the whole-graph one lies in a block
        corners = [engine.J.index(c) for c in whole.witness.corners]
        if all(engine.jD[i, j] >= 0 for i, j in itertools.combinations(corners, 2)):
            assert got.to_json_dict()["witness"] == whole.to_json_dict()["witness"], g.edges


def test_block_sweep_matches_whole_graph_on_the_atlas():
    graphs = _atlas(6)
    assert len(graphs) == 143
    for g in graphs:
        _check_against_whole_graph(g)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 10**6))
@example(n=40, seed=1)
def test_block_sweep_matches_whole_graph_on_random_graphs(n, seed):
    _check_against_whole_graph(random_connected(n, random.Random(seed)))


def test_bigon_sweeps_blocks_only():
    # random n=120 hangs long pendant trees off its blocks: the bigon sweep
    # skips the pairs across blocks and builds fewer tables for the same bound
    g = random_connected(120, random.Random(7))
    assert len(g.blocks()) > 1
    engine, whole = DeltaEngine(g), _whole_graph_engine(g)
    assert engine.bigon_lower_bound() == whole.bigon_lower_bound()
    assert engine.stats.tables_built < whole.stats.tables_built


@pytest.mark.parametrize("g, corners", [(path_graph(7), (0, 1, 2)), (star_graph(5), (0, 1, 2)),
                                        (random_tree(20, random.Random(1)), (0, 1, 2)),
                                        (path_graph(2), (0, 1, 3))],
                         ids=["P7", "S5", "tree-20", "P2"])
def test_a_tree_sweeps_nothing(g, corners):
    # no block has three vertices, so the value sweep lists no pair and the
    # witness search takes the first triple, at 0; K2 is one block of two
    # vertices, and its third J-point is its edge's midpoint, grid id 3
    res = DeltaEngine(g).delta()
    stats = res.stats
    assert res.value == QDist(0) and res.witness.corners == corners
    assert (stats.blocks, stats.sides_visited, stats.tables_built, stats.triples_examined) == \
        (0, 0, 0, 1)


@pytest.mark.parametrize("g, blocks", [(cycle_graph(5), 1), (C5_K3_PENDANT, 2), (path_graph(2), 0)],
                         ids=["C5", "C5-K3-pendant", "P2"])
def test_block_count_in_stats_and_log(g, blocks, caplog):
    engine = DeltaEngine(g)
    with caplog.at_level(logging.DEBUG, logger="lexhyp"):
        res = engine.delta()
    lines = [r for r in caplog.records if r.msg.startswith("value sweep")]
    assert len(lines) == 1 and lines[0].args[0] == blocks == res.stats.blocks
    assert "blocks" not in res.to_json_dict()["stats"]
    assert res.value == QDist(5 if blocks else 0)
