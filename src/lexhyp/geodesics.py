"""Shortest-path structure on unit graphs and subdivision grids.

All functions work on a neighbor table (or its `neighbor_arcs`) plus a
precomputed hop matrix, so the same code serves vertex-level graphs and S_k
grids.  Geodesics between two points form a DAG (the union of all shortest
paths); enumeration backtracks over that DAG in deterministic lexicographic
order.

The farthest-geodesic question ("how far from p can an a-b geodesic stay?")
is answered for every target b at once by one (max, min) table per source a,
a bottleneck-paths DP over the BFS DAG of a.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import GeodesicCapError
from .graph import neighbor_arcs
from .subdivision import SubdividedGraph


def interval(hops: np.ndarray, a: int, b: int) -> np.ndarray:
    """Sorted ids of every vertex lying on some geodesic from a to b."""
    return np.flatnonzero(hops[a] + hops[b] == hops[a, b])


def geodesic_count(neighbors: Sequence[Sequence[int]], hops: np.ndarray,
                   a: int, b: int) -> int:
    """Number of distinct geodesics from a to b (exact, arbitrary precision)."""
    if a == b:
        return 1
    da, db = hops[a], hops[b]
    nodes = interval(hops, a, b)
    count = {a: 1}
    for q in nodes[np.argsort(da[nodes], kind="stable")][1:].tolist():
        # a neighbor one step closer to a and one farther from b is on the interval
        count[q] = sum(count[w] for w in neighbors[q]
                       if da[w] == da[q] - 1 and db[w] == db[q] + 1)
    return count[b]


def enumerate_paths(neighbors: Sequence[Sequence[int]], hops: np.ndarray,
                    a: int, b: int, cap: int) -> list[tuple[int, ...]]:
    """All geodesic vertex sequences a..b, lexicographic by vertex ids.

    Raises GeodesicCapError if the pair has more than `cap` geodesics; the
    count is checked up front so no partial enumeration escapes.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if a == b:
        return [(a,)]
    total = geodesic_count(neighbors, hops, a, b)
    if total > cap:
        raise GeodesicCapError((a, b), cap)
    da, db = hops[a], hops[b]
    target = int(hops[a, b])
    out: list[tuple[int, ...]] = []
    path = [a]

    def extend(q: int, depth: int):
        if depth == target:
            out.append(tuple(path))
            return
        for w in neighbors[q]:
            if da[w] == depth + 1 and db[w] == target - depth - 1:
                path.append(w)
                extend(w, depth + 1)
                path.pop()

    extend(a, 0)
    return out


def enumerate_geodesics(s: SubdividedGraph, a: int, b: int,
                        cap: int = 10**6) -> list[tuple[int, ...]]:
    """All distinct shortest a-b paths on the grid of `s` (deterministic order)."""
    hops = s.metrics().hops
    return enumerate_paths(s._neighbors, hops, a, b, cap)


def table_dtype(n: int) -> np.dtype:
    """Narrowest signed dtype that holds every hop count of an n-point grid."""
    return np.min_scalar_type(-n)


def farthest_geodesic_table(hops: np.ndarray, arcs: np.ndarray, a: int) -> np.ndarray:
    """W[p, q]: the largest distance from p to any single a-q geodesic.

    d(p, geodesic) is the minimum of hops[p, v] over the path's vertices, so
    W[:, q] is a maximin (bottleneck) path value over the geodesic DAG from a.
    Every a-q geodesic ends with an edge from a BFS predecessor w of q, so

        W[:, a] = hops[:, a],  W[:, q] = min(hops[:, q], max over w of W[:, w]),

    evaluated one BFS layer at a time: the layer's columns start from each
    q's first predecessor and fold in its r-th one with `np.maximum` for
    r = 1, 2, ... while some q of the layer has more than r (most grid
    points have one).  Entries are stored in `table_dtype` of the point
    count; every hop count is below it, so the narrowing is exact.  `arcs`
    are the graph's (tail, head) rows grouped by head (`neighbor_arcs`,
    cached per grid as `SubdividedGraph.arcs`).
    """
    n = hops.shape[0]
    da = hops[a]
    src, dst = arcs.T
    keep = da[src] == da[dst] - 1
    src, dst = src[keep], dst[keep]
    order = np.argsort(da[dst], kind="stable")  # by layer, then by q
    src, dst = src[order], dst[order]
    head = np.flatnonzero(np.diff(dst, prepend=-1))  # first edge into each q
    indeg = np.diff(head, append=src.size)
    cut = np.searchsorted(da[dst[head]], np.arange(1, int(da.max()) + 2))
    # t[q] is column q of W; hops is symmetric, so row q starts as hops[:, q]
    t = hops.astype(table_dtype(n))
    for lo, hi in zip(cut[:-1].tolist(), cut[1:].tolist()):
        first = head[lo:hi]
        best = t[src[first]]
        deg_q = indeg[lo:hi]
        for r in range(1, int(deg_q.max())):
            more = np.flatnonzero(deg_q > r)
            best[more] = np.maximum(best[more], t[src[first[more] + r]])
        qs = dst[first]
        t[qs] = np.minimum(t[qs], best)
    return t.T


def farthest_geodesic_profile(neighbors: Sequence[Sequence[int]], hops: np.ndarray,
                              a: int, b: int) -> np.ndarray:
    """For every vertex p: the largest distance from p to any single a-b geodesic.

    Column b of `farthest_geodesic_table` from source a.
    """
    return farthest_geodesic_table(hops, neighbor_arcs(neighbors), a)[:, b].astype(hops.dtype)
