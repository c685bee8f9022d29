"""Shortest-path structure on unit graphs and subdivision grids.

The reference functions work on a neighbor table plus a precomputed hop
matrix, so the same code serves vertex-level graphs and S_k grids:
`geodesic_count` counts the geodesics between two points over the DAG of
their interval, and `enumerate_paths` backtracks over that DAG in
lexicographic order of point ids.

On an S_k grid neither needs the grid's own adjacency.  A geodesic crosses
each edge's chain of interior points whole, or enters it only at its ends,
so it is a half-chain from its first point to a vertex, a walk over base
vertices one whole edge (k hops) at a time, and a half-chain to its last
point.  `enumerate_geodesics` counts and lists the geodesics by that walk,
in the order `enumerate_paths` gives on the grid.

The farthest-geodesic question ("how far from p can an a-b geodesic stay?")
is answered for every target b at once by one (max, min) table per source a,
a bottleneck-paths DP over the BFS DAG of a.  `farthest_geodesic_table` is
the plain reference: that DP run point by point on any graph, which the
tests use and whose column b is `farthest_geodesic_profile`.  The engine's
kernel, `j_source_table`, gives the same values on the J(G) columns of an
S_k grid from a DP over the base graph: a geodesic crosses an edge's
interior whole or turns back at its midpoint, so each edge enters only
through its chain minima (`EdgeChains`), one base layer per k grid hops, and
the midpoint columns follow in closed form.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .errors import GeodesicCapError
from .subdivision import SubdividedGraph, table_dtype


def interval(hops: np.ndarray, a: int, b: int) -> np.ndarray:
    """Sorted ids of every vertex lying on some geodesic from a to b.

    The one sum of two hop rows, taken in `np.intp` so that it is exact
    whatever the hop matrix's width (`subdivision.table_dtype`).  The other
    readers here only compare entries, or offset them by 1 within the range
    of hop counts."""
    return np.flatnonzero(np.add(hops[a], hops[b], dtype=np.intp) == hops[a, b])


def geodesic_count(neighbors: Sequence[Sequence[int]], hops: np.ndarray,
                   a: int, b: int) -> int:
    """Number of distinct geodesics from a to b (exact, arbitrary precision);
    0 between components."""
    if a == b:
        return 1
    if hops[a, b] < 0:
        return 0
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
    todo = [iter(neighbors[a])]  # untried neighbors per path vertex: no recursion limit
    while todo:
        depth = len(path)  # hops from a to the next vertex
        for w in todo[-1]:
            if da[w] == depth and db[w] == target - depth:
                if depth == target:
                    out.append((*path, w))
                else:
                    path.append(w)
                    todo.append(iter(neighbors[w]))
                    break
        else:
            todo.pop()
            path.pop()
    return out


def enumerate_geodesics(s: SubdividedGraph, a: int, b: int,
                        cap: int = 10**6) -> list[tuple[int, ...]]:
    """All geodesics a..b on the grid of `s`, the list `enumerate_paths`
    gives on the grid's neighbor tables, found by a walk over base vertices.

    A geodesic between points of different edges runs from a to an end of
    a's edge (a itself if a is a vertex), steps whole edges from vertex to
    vertex, each k hops, and ends along b's edge.  The base vertices it
    passes are the base vertices of `interval(hops, a, b)`; a step w -> x
    has hops[a, x] == hops[a, w] + k.  Two points inside one edge
    have one geodesic, the chain between them.

    The order is the grid's lexicographic order for free: the chain of
    (w, x) starts at n + i (k-1), plus k-2 when x < w, for edge i, and that
    id grows with x, so stepping in order of w's sorted base neighbors is
    stepping in order of grid ids.  The one exception is an interior first
    point, where the step toward the smaller end comes first except at
    offset k-1 (for k > 2), where the larger end is the adjacent point.

    The geodesics are counted on base vertices before any path is built:
    more than `cap` raises GeodesicCapError.  Points in different
    components have none.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if a == b:
        return [(a,)]
    hops = s.hops()
    n, k = s.base.vertex_count, s.k
    target = int(hops[a, b])
    if target < 0:
        return []
    if a >= n and b >= n and (a - n) // (k - 1) == (b - n) // (k - 1):  # inside one edge
        return [tuple(range(a, b + 1) if a < b else range(a, b - 1, -1))]
    on = interval(hops, a, b)
    on = on[on < n].tolist()
    da, db = hops[a, :n].tolist(), hops[b, :n].tolist()
    # walks to b counted backwards: the vertices within k of b end a walk,
    # b itself or an end of b's edge
    count, succ = {}, {}
    for w in sorted(on, key=da.__getitem__, reverse=True):
        if db[w] < k:
            count[w] = 1
        else:
            succ[w] = nxt = [x for x in s.base.neighbors(w) if x in count and da[x] == da[w] + k]
            count[w] = sum(count[x] for x in nxt)
    starts = [w for w in on if da[w] < k]  # a, or the ends of a's edge that lie on a geodesic
    if a >= n and (a - n) % (k - 1) == k - 2 and k > 2:
        starts.reverse()  # at offset k-1 the larger end is the adjacent point
    if sum(count[w] for w in starts) > cap:
        raise GeodesicCapError((a, b), cap)
    steps = {w: [(x, (*s.chain(w, x), x)) for x in nxt] for w, nxt in succ.items()}
    for w in count.keys() - succ.keys():  # a walk's last vertex: -1 ends the path at b
        steps[w] = [(-1, () if w == b else _half(s, b, w)[-2::-1])]
    out: list[tuple[int, ...]] = []
    segs: list[tuple[int, ...]] = []
    todo = [iter([(w, (a,) if w == a else _half(s, a, w)) for w in starts])]
    while todo:  # no recursion limit
        for x, seg in todo[-1]:
            if x < 0:
                out.append((*chain.from_iterable(segs), *seg))
            else:
                segs.append(seg)
                todo.append(iter(steps[x]))
                break
        else:
            todo.pop()
            if segs:
                segs.pop()
    return out


def _half(s: SubdividedGraph, p: int, end: int) -> tuple[int, ...]:
    """The grid points from the interior point p along its edge to the edge's
    end `end`, both included."""
    u, v = s.base.edges[(p - s.base.vertex_count) // (s.k - 1)]
    run = s.chain(v, u) if end == u else s.chain(u, v)
    return (*run[run.index(p):], end)


def farthest_geodesic_table(neighbors: Sequence[Sequence[int]], hops: np.ndarray,
                            a: int) -> np.ndarray:
    """W[p, q]: the largest distance from p to any single a-q geodesic.

    d(p, geodesic) is the minimum of hops[p, v] over the path's vertices, so
    W[:, q] is a maximin (bottleneck) path value over the geodesic DAG from a.
    Every a-q geodesic ends with an edge from a DAG predecessor w of q (a
    neighbor one hop closer to a), so, visiting points in order of distance
    from a,

        W[:, a] = hops[:, a],  W[:, q] = min(hops[:, q], max over w of W[:, w]).

    Points that a cannot reach keep their hop columns.  Entries are stored
    in `table_dtype` of the largest hop count, so the narrowing is exact.
    """
    da = hops[a].tolist()
    t = hops.astype(table_dtype(int(hops.max())))  # row q: column q of W (hops is symmetric)
    for q in np.argsort(hops[a], kind="stable").tolist():
        if da[q] > 0:
            t[q] = np.minimum(t[q], t[[w for w in neighbors[q] if da[w] == da[q] - 1]].max(axis=0))
    return t.T


def j_source_table(s: SubdividedGraph, a: int) -> np.ndarray:
    """W_a on the J(G) columns of the grid: `farthest_geodesic_table(
    nbrs, s.hops(), a)[:, s.j_set]`, with nbrs[v] = `s.neighbors(v)`, as a
    C-contiguous (grid_n, |J|) array, same dtype, for a source a in J(G).

    Every base vertex sits at da = hops[a] congruent to da of a's end mod k
    (0 for a vertex, k/2 for a midpoint), so an edge (u, v) either meets
    (da[u] = da[v]) or is crossed forward, da[v] = da[u] + k, along its
    monotone chain.  With T[v] the column of vertex v and H its hop row:

      - a forward chain leaves min(T[u], whole) at v, so one layer per k hops
        T[v] = min(H[v], max over forward edges u->v of min(T[u], whole));
      - a midpoint source on (u, v) seeds T[u] = min(H[u], u_mid) and
        T[v] = min(H[v], v_mid), and its own column stays `mid`;
      - the midpoint column of an edge crossed u->v is min(T[u], u_mid),
        of one crossed v->u min(T[v], v_mid), and of a meeting edge
        min(mid, max(min(T[u], left), min(T[v], right))).

    Points the source cannot reach (da = -1) keep their hop rows, as in the
    reference; two such ends do not make a meeting edge.  A layer's forward
    edges are sorted by head; where a head has several, their values are
    scattered into a (head, rank) block padded with the dtype's minimum and
    maxed over the rank.
    """
    n, k = s.base.vertex_count, s.k
    c = s.chains()
    t = c.jrows.copy()  # column q of W_a, for q in j_set order, starts as hops[q]
    tv, tm = t[:n], t[n:]  # vertex columns T, midpoint columns
    da = s.hops()[a, :n].astype(np.intp)  # da + k would wrap in one byte
    u, v = c.ends.T
    du, dv = da[u], da[v]
    own = (a - n) // (k - 1) if a >= n else -1  # the source's edge, if any
    if own >= 0:
        tv[u[own]] = np.minimum(tv[u[own]], c.u_mid[own])
        tv[v[own]] = np.minimum(tv[v[own]], c.v_mid[own])
    fu, fv = np.flatnonzero(dv == du + k), np.flatnonzero(du == dv + k)
    if fu.size + fv.size:
        tail = np.concatenate([u[fu], v[fv]])
        head = np.concatenate([v[fu], u[fv]])
        edge = np.concatenate([fu, fv])
        order = np.lexsort((head, da[head]))  # by layer, then by head
        tail, head, edge = tail[order], head[order], edge[order]
        new = np.concatenate(([True], head[1:] != head[:-1]))
        first = np.flatnonzero(new)  # each head's first forward edge
        group = np.cumsum(new) - 1
        rank = np.arange(head.size) - first[group]  # position in the head's group
        heads = head[first]
        layer = da[heads]
        cut = np.searchsorted(layer, np.arange(int(layer[0]), int(layer[-1]) + 2 * k, k)).tolist()
        ends = first.tolist() + [head.size]
        lead = c.whole[edge]
        low = np.iinfo(t.dtype).min
        for lo, hi in zip(cut[:-1], cut[1:]):
            e0, e1 = ends[lo], ends[hi]
            best = np.minimum(tv[tail[e0:e1]], lead[e0:e1])
            if e1 - e0 > hi - lo:  # some head has several forward edges: max over them
                pad = np.full((hi - lo, int(rank[e0:e1].max()) + 1, t.shape[1]), low, dtype=t.dtype)
                pad[group[e0:e1] - lo, rank[e0:e1]] = best
                best = pad.max(axis=1)
            hs = heads[lo:hi]
            tv[hs] = np.minimum(tv[hs], best)
    tm[fu] = np.minimum(tv[u[fu]], c.u_mid[fu])
    tm[fv] = np.minimum(tv[v[fv]], c.v_mid[fv])
    meet = (du == dv) & (du >= 0)
    if own >= 0:
        meet[own] = False
    mm = np.flatnonzero(meet)
    tm[mm] = np.minimum(c.mid[mm], np.maximum(np.minimum(tv[u[mm]], c.left[mm]),
                                              np.minimum(tv[v[mm]], c.right[mm])))
    return np.ascontiguousarray(t.T)


def farthest_geodesic_profile(neighbors: Sequence[Sequence[int]], hops: np.ndarray,
                              a: int, b: int) -> np.ndarray:
    """For every vertex p: the largest distance from p to any single a-b geodesic.

    Column b of `farthest_geodesic_table` from source a.
    """
    return farthest_geodesic_table(neighbors, hops, a)[:, b].astype(hops.dtype)
