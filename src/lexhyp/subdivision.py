"""Edge-subdivision grids and exact metric computations.

`subdivide(g, k)` realises the interior points of each edge as a finite grid:
original vertices keep their ids, and each edge gains k-1 equally spaced
points.  Hop counts on the S_k grid are k times the metric distance, so every
quarter-integer quantity of interest is an exact integer here.

The grid metric is never searched for: it follows in closed form from the
base graph's vertex distances (`all_pairs_distances`).  Neither are the
bottleneck tables walked point by point: an edge's interior is a chain that
a geodesic crosses whole or enters up to its midpoint, so each edge's chain
minima of hop rows (`edge_chains`) stand in for its k-1 interior points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SizeCapError, ValidationError
from .graph import UNREACHABLE, Graph
from .qdist import QDist

SUBDIVISION_FACTORS = (2, 4, 8)
DEFAULT_GRID_CAP = 4096


class SubdividedGraph:
    """The S_k subdivision of a base graph, with its edge points and J(G).

    Grid ids: 0..n-1 are the original vertices; interior points of edge i
    (edges in sorted order) occupy n + i*(k-1) .. n + (i+1)*(k-1) - 1,
    ordered from the smaller endpoint to the larger one.  J(G) is the
    vertices followed by the edge midpoints, in edge order.

    Two per-grid structures are built on first use and kept: `metrics()`,
    the hop matrix, and `chains()`, its J-point rows and per-edge chain
    minima (`EdgeChains`), from which the bottleneck tables are built.
    """

    __slots__ = ("base", "k", "grid_n", "j_set", "edge_points",
                 "_neighbors", "_metrics", "_chains")

    def __init__(self, base: Graph, k: int, cap: int):
        if k not in SUBDIVISION_FACTORS:
            raise ValidationError(f"subdivision factor must be one of {SUBDIVISION_FACTORS}, got {k}")
        n, m = base.vertex_count, base.m
        grid_n = n + (k - 1) * m
        if grid_n > cap:
            raise SizeCapError(f"S_{k} grid needs {grid_n} vertices, cap is {cap}")
        self.base = base
        self.k = k
        self.grid_n = grid_n
        edge_points = {}
        nbrs = [[] for _ in range(grid_n)]

        def link(a, b):
            nbrs[a].append(b)
            nbrs[b].append(a)

        next_id = n
        for u, v in base.edges:
            chain = [u, *range(next_id, next_id + k - 1), v]
            next_id += k - 1
            for a, b in zip(chain, chain[1:]):
                link(a, b)
            edge_points[(u, v)] = tuple(chain)
        self.edge_points = edge_points
        self._neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        half = k // 2
        j = list(range(n)) + [pts[half] for pts in edge_points.values()]
        self.j_set = tuple(sorted(j))
        self._metrics: Optional[GraphMetrics] = None
        self._chains: Optional[EdgeChains] = None

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def point_on_edge(self, edge: tuple[int, int], offset: int) -> int:
        """Grid id of the point at `offset`/k along `edge` (from its smaller end)."""
        u, v = edge
        key = (u, v) if u < v else (v, u)
        pts = self.edge_points[key]
        if key != (u, v):
            pts = pts[::-1]
        return pts[offset]

    def midpoint(self, edge: tuple[int, int]) -> int:
        return self.point_on_edge(edge, self.k // 2)

    def metrics(self) -> "GraphMetrics":
        if self._metrics is None:
            self._metrics = all_pairs_distances(self)
        return self._metrics

    def chains(self) -> "EdgeChains":
        """The J-point rows and per-edge chain minima (`edge_chains`), built once."""
        if self._chains is None:
            self._chains = edge_chains(self)
        return self._chains

    def __repr__(self) -> str:
        return f"SubdividedGraph(k={self.k}, grid_n={self.grid_n}, base={self.base!r})"


def table_dtype(max_hops: int) -> np.dtype:
    """Narrowest signed dtype that holds every hop count up to `max_hops`.

    Keyed on a grid's largest hop count, not its point count: int8 up to
    127 hops (an S_4 grid of diameter below 32 edges, every product of the
    benchmark and the suite), int16 from 128.  Signed, so UNREACHABLE fits.
    The bottleneck kernels only take min and max of entries, so no
    arithmetic on them can overflow.
    """
    return np.min_scalar_type(-max_hops - 1)


def subdivide(g: Graph, k: int, cap: int = DEFAULT_GRID_CAP) -> SubdividedGraph:
    """Build S_k(g) for k in {2, 4, 8}; fails fast above the grid-vertex cap."""
    return SubdividedGraph(g, k, cap)


@dataclass
class GraphMetrics:
    """Dense exact metric data for one subdivision grid.

    `hops` is the symmetric hop-count matrix over grid vertices; divide by
    the grid's subdivision factor k (via `distance`) for values in edge
    lengths.  It keeps k, not the grid: the grid caches its metrics, and a
    reference back would make a cycle that holds every grid, with its hop
    matrix and chains, until the cyclic garbage collector runs.
    """

    k: int
    hops: np.ndarray
    diam_v: QDist
    diam_g: QDist

    def distance(self, a: int, b: int) -> QDist:
        return QDist.from_hops(int(self.hops[a, b]), self.k)


def all_pairs_distances(s: SubdividedGraph) -> GraphMetrics:
    """Exact grid hop matrix from the base graph's vertex distances D.

    Every grid point p has two (endpoint, offset) pairs: (v, 0) twice for a
    vertex v, and (u, i), (w, k-i) for the i-th interior point of edge uw.
    An interior point meets the rest of the grid only through its edge's two
    endpoints, and a grid path between two vertices is a chain of whole
    subdivided edges, k hops each.  So for points on different edges

        hops[p, q] = min over the four endpoint choices of s_p + k*D[e_p, e_q] + t_q,

    while two points i and j of the same edge are |i - j| apart: leaving the
    edge costs at least min(i + j, 2k - i - j) >= |i - j|.  The minimum is
    taken in two stages, first to every vertex (`to_vertex`, grid points by
    base vertices), then to every point, all in int32.  Pairs whose
    endpoints lie in different components of the base graph stay
    UNREACHABLE.  Diameters are taken over vertices and over J(G).
    """
    g, k = s.base, s.k
    n, m = g.vertex_count, g.m
    unreachable = np.int32(2 ** 30)  # above any hop count, far below int32 overflow
    d = g.vertex_distances()
    kd = np.where(d == UNREACHABLE, unreachable, k * d).astype(np.int32)
    ends = np.asarray(g.edges, dtype=np.intp).reshape(m, 2)
    off = np.arange(1, k, dtype=np.int32)
    e1 = np.concatenate([np.arange(n), np.repeat(ends[:, 0], k - 1)])
    e2 = np.concatenate([np.arange(n), np.repeat(ends[:, 1], k - 1)])
    s1 = np.concatenate([np.zeros(n, np.int32), np.tile(off, m)])
    s2 = np.concatenate([np.zeros(n, np.int32), np.tile(k - off, m)])
    to_vertex = np.minimum(kd[e1] + s1[:, None], kd[e2] + s2[:, None])
    hops = to_vertex[:, e1]
    hops += s1
    via = to_vertex[:, e2]
    via += s2
    np.minimum(hops, via, out=hops)
    block = n + (k - 1) * np.arange(m)[:, None, None]
    i = np.arange(k - 1)
    hops[block + i[:, None], block + i[None, :]] = np.abs(i[:, None] - i[None, :])
    hops[hops >= unreachable] = UNREACHABLE
    hops.setflags(write=False)
    diam_v = QDist.from_hops(int(hops[:n, :n].max()), k)
    j = np.asarray(s.j_set)
    diam_g = QDist.from_hops(int(hops[np.ix_(j, j)].max()), k)
    return GraphMetrics(k=k, hops=hops, diam_v=diam_v, diam_g=diam_g)


@dataclass(frozen=True)
class EdgeChains:
    """The hop rows of J(G) and their minima along each base edge's chain.

    `jrows` holds the grid hop row of every J-point, in `j_set` order.  Row
    i of the other arrays belongs to edge i = (u, v) of `ends`, whose
    interior points x_1 .. x_{k-1} run from u to v: `mid` is the row of the
    midpoint x_{k/2} (a view of `jrows`), `left` the min of the rows of x_1
    .. x_{k/2-1} and `right` the min of x_{k/2+1} .. x_{k-1}; `u_mid` =
    min(left, mid), `v_mid` = min(right, mid) and `whole` = min(left, mid,
    right).  All are in `table_dtype` of the grid's largest hop count; for
    k = 2, `left` and `right` are empty chains and hold the dtype's maximum,
    the identity of min.
    """

    ends: np.ndarray
    jrows: np.ndarray
    mid: np.ndarray
    left: np.ndarray
    right: np.ndarray
    u_mid: np.ndarray
    v_mid: np.ndarray
    whole: np.ndarray


def edge_chains(s: SubdividedGraph) -> EdgeChains:
    """The J rows and chain minima of `s`, read off its hop matrix."""
    n, k, m = s.base.vertex_count, s.k, s.base.m
    hops = s.metrics().hops
    dtype = table_dtype(int(hops.max()))
    jrows = hops[list(s.j_set)].astype(dtype)
    rows = hops[n:].reshape(m, k - 1, s.grid_n)  # edge, offset - 1, point
    h, top = k // 2, np.iinfo(dtype).max
    left = rows[:, :h - 1].min(axis=1, initial=top).astype(dtype)
    right = rows[:, h:].min(axis=1, initial=top).astype(dtype)
    mid = jrows[n:]
    u_mid = np.minimum(left, mid)
    v_mid = np.minimum(right, mid)
    return EdgeChains(ends=np.asarray(s.base.edges, dtype=np.intp).reshape(m, 2), jrows=jrows,
                      mid=mid, left=left, right=right, u_mid=u_mid, v_mid=v_mid,
                      whole=np.minimum(u_mid, right))


def diam_v(g: Graph) -> QDist:
    """Diameter over vertices only."""
    return QDist.from_edges(int(g.vertex_distances().max()))


def diam_g(g: Graph) -> QDist:
    """Diameter over all points of the metric graph.

    Point-to-point distance restricted to a pair of edges is a lower envelope
    of linear functions with slopes +-1 and integer offsets; its maximum over
    the two edges is attained with both endpoints at vertices or midpoints,
    so the J(G) x J(G) maximum on the S_2 grid is exact.
    """
    if g.m == 0:
        return QDist(0)
    return subdivide(g, 2).metrics().diam_g
