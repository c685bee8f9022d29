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

Maxima at J(G), the vertices and edge midpoints, need no grid: `j_hops` is
the S_k hop matrix on J(G) from the vertex distances alone.  The suite's
copy-lemma checks read it, whose distance to a copy is a tent along each
edge, min(i + A, k - i + B) with |A - B| <= k, and `diam_g` takes its
maximum one block of rows at a time, without the matrix.

Every hop matrix is built in blocks of rows (`_point_hop_blocks`).  The
grid's, its J rows, its chain minima and the tables built from them all
share one dtype, `table_dtype` of the grid's largest hop count.
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
HOP_BLOCK = 1 << 16  # entries of a hop matrix built at a time (whole rows, at least one)


class SubdividedGraph:
    """The S_k subdivision of a base graph, with its edge points and J(G).

    Grid ids: 0..n-1 are the original vertices; interior points of edge i
    (edges in sorted order) occupy n + i*(k-1) .. n + (i+1)*(k-1) - 1,
    ordered from the smaller endpoint to the larger one.  J(G) is the
    vertices followed by the edge midpoints, in edge order.  All of it is
    arithmetic on the base graph, so the grid keeps no per-point adjacency:
    `chain` gives an edge's interior points, and the engine walks geodesics
    over base vertices (`geodesics.enumerate_geodesics`).  `neighbors` and
    `edge_points`, the grid's adjacency and each edge's points, are built
    on first access, for callers that walk the grid point by point.

    Two per-grid structures are built on first use and kept: `hops()`,
    the read-only hop matrix (`all_pairs_distances`) in `table_dtype` of
    its largest entry, and `chains()`, its J-point rows and per-edge chain
    minima (`EdgeChains`), from which the bottleneck tables are built.  Neither refers back to the grid: a
    reference would make a cycle that holds every grid, with its hop
    matrix and chains, until the cyclic garbage collector runs.
    """

    __slots__ = ("base", "k", "grid_n", "j_set", "_edge_index", "_edge_points",
                 "_neighbors", "_hops", "_chains")

    def __init__(self, base: Graph, k: int):
        if k not in SUBDIVISION_FACTORS:
            raise ValidationError(f"subdivision factor must be one of {SUBDIVISION_FACTORS}, got {k}")
        n, m = base.vertex_count, base.m
        grid_n = n + (k - 1) * m
        if grid_n > DEFAULT_GRID_CAP:
            raise SizeCapError(f"S_{k} grid needs {grid_n} vertices, cap is {DEFAULT_GRID_CAP}")
        self.base = base
        self.k = k
        self.grid_n = grid_n
        self.j_set = tuple(range(n)) + tuple(range(n + k // 2 - 1, grid_n, k - 1))  # midpoints
        self._edge_index: Optional[dict[tuple[int, int], int]] = None
        self._edge_points: Optional[dict[tuple[int, int], tuple[int, ...]]] = None
        self._neighbors: Optional[tuple[tuple[int, ...], ...]] = None
        self._hops: Optional[np.ndarray] = None
        self._chains: Optional[EdgeChains] = None

    def chain(self, u: int, v: int) -> range:
        """The interior points of the edge between u and v, in order from u to v."""
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.base.edges)}
        k = self.k
        lo = self.base.vertex_count + self._edge_index[(u, v) if u < v else (v, u)] * (k - 1)
        return range(lo, lo + k - 1) if u < v else range(lo + k - 2, lo - 1, -1)

    @property
    def edge_points(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Every edge (u, v) of the base graph and its k+1 grid points, u to v."""
        if self._edge_points is None:
            self._edge_points = {(u, v): (u, *self.chain(u, v), v) for u, v in self.base.edges}
        return self._edge_points

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The grid points adjacent to point v, in increasing order."""
        if self._neighbors is None:
            nbrs: list[list[int]] = [[] for _ in range(self.grid_n)]
            for pts in self.edge_points.values():
                for p, q in zip(pts, pts[1:]):
                    nbrs[p].append(q)
                    nbrs[q].append(p)
            self._neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        return self._neighbors[v]

    def hops(self) -> np.ndarray:
        """The grid hop matrix (`all_pairs_distances`), built once."""
        if self._hops is None:
            self._hops = all_pairs_distances(self)
        return self._hops

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
    The grid hop matrix, its J rows and chain minima and the bottleneck
    tables all take this dtype.
    """
    return np.min_scalar_type(-max_hops - 1)


def j_automorphisms(s: SubdividedGraph) -> Optional[np.ndarray]:
    """The base graph's carried automorphisms (`Graph.automorphism_generators`
    of a product) as permutations of J(G) indices, one per row; None when it
    carries none.

    Vertex v goes to pi(v), and the midpoint of edge e to the midpoint of
    pi(e), so each row extends to an isometry of the metric graph, and of
    the S_k grid by mapping each edge's points along.  Every generator is
    checked here before use: a row that is not a permutation, or an edge
    whose image is not an edge, raises ValidationError.
    """
    if s.base._automorphisms is None or s.base.m == 0:
        return None
    perms = s.base.automorphism_generators()
    if len(perms) == 0:
        return None
    n = s.base.vertex_count
    if perms.shape[1] != n or not (np.sort(perms, axis=1) == np.arange(n)).all():
        raise ValidationError("a carried automorphism is not a vertex permutation")
    ends = np.asarray(s.base.edges, dtype=np.intp).reshape(-1, 2)
    a, b = perms[:, ends[:, 0]], perms[:, ends[:, 1]]
    at = edge_ids(s.base, a, b)
    if (at < 0).any():
        g, e = (int(x) for x in np.argwhere(at < 0)[0])
        raise ValidationError(f"carried automorphism {g} maps edge {s.base.edges[e]} to "
                              f"({int(a[g, e])},{int(b[g, e])}), which is not an edge")
    return np.concatenate([perms, n + at], axis=1).astype(np.int32)


def edge_ids(g: Graph, a, b) -> np.ndarray:
    """Index in `g.edges` (not empty) of each pair (a, b), or -1 for a non-edge."""
    n = g.vertex_count
    keys = np.asarray(g.edges, dtype=np.int64) @ np.array([n, 1])  # ascending: edges are sorted
    pair = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
    at = np.minimum(np.searchsorted(keys, pair), len(keys) - 1)
    return np.where(keys[at] == pair, at, -1)


def subdivide(g: Graph, k: int) -> SubdividedGraph:
    """Build S_k(g) for k in {2, 4, 8}; fails fast with SizeCapError above
    DEFAULT_GRID_CAP grid vertices."""
    return SubdividedGraph(g, k)


def all_pairs_distances(s: SubdividedGraph) -> np.ndarray:
    """Exact grid hop matrix (read-only) from the base graph's vertex
    distances D; divide by k (`QDist.from_hops`) for edge lengths.

    Every grid point p has two (endpoint, offset) pairs: (v, 0) twice for a
    vertex v, and (u, i), (w, k-i) for the i-th interior point of edge uw.
    An interior point meets the rest of the grid only through its edge's two
    endpoints, and a grid path between two vertices is a chain of whole
    subdivided edges, k hops each.  So for points on different edges

        hops[p, q] = min over the four endpoint choices of s_p + k*D[e_p, e_q] + t_q,

    while two points i and j of the same edge are |i - j| apart: leaving the
    edge costs at least min(i + j, 2k - i - j) >= |i - j|.  The minimum is
    taken in two stages, first to every vertex, then to every point, in
    blocks of whole rows of at most HOP_BLOCK entries (`_point_hop_blocks`),
    so no int32 matrix of the grid's size is ever built.  Pairs whose
    endpoints lie in different components of the base graph stay
    UNREACHABLE.

    The entries are stored in `table_dtype` of the largest of them
    (`_hop_dtype`), so a sum of entries can wrap: code that adds to them
    widens first (`geodesics.interval`).
    """
    g, k = s.base, s.k
    n, m = g.vertex_count, g.m
    hops = np.empty((s.grid_n, s.grid_n), _hop_dtype(g, k))
    edges, offsets = np.repeat(np.arange(m), k - 1), np.tile(np.arange(1, k), m)
    for lo, rows in _point_hop_blocks(g, k, edges, offsets):
        hops[lo:lo + len(rows)] = rows
    block = n + (k - 1) * np.arange(m)[:, None, None]
    i = np.arange(k - 1)
    hops[block + i[:, None], block + i[None, :]] = np.abs(i[:, None] - i[None, :])
    hops.setflags(write=False)
    return hops


def _hop_dtype(g: Graph, k: int) -> np.dtype:
    """`table_dtype` of the largest hop count of the S_k grid of g: int8 up
    to 127 hops across and int16 above (the grid cap keeps hop counts below
    4096).

    A grid point is at most k/2 hops from a vertex, so the largest hop count
    lies between k D and k (D + 1), D the largest vertex distance.  Only
    when those two bounds straddle a dtype is it computed (`_max_hops`).
    """
    low = k * int(g.vertex_distances().max())
    got = table_dtype(low + k)
    return got if got == table_dtype(low) else table_dtype(_max_hops(g, k))


def _point_hop_blocks(g: Graph, k: int, edges: np.ndarray, offsets: np.ndarray):
    """S_k hop counts between the points of g: its vertices, then for each
    r the point offsets[r] hops along edge edges[r] (an index into g.edges)
    from its smaller end.  Each is the min over the four endpoint choices of
    s_p + k*D[e_p, e_q] + t_q: exact for points on different edges,
    UNREACHABLE between components.  Yields (lo, rows): rows lo ..
    lo + len(rows) - 1 of that matrix in int32, whole rows of at most
    HOP_BLOCK entries in all (one row if a row is longer).  Every block is
    built in the same two buffers, so the next block overwrites it, and no
    temporary grows with the square of the point count."""
    n = g.vertex_count
    ends = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2)
    e1 = np.concatenate([np.arange(n), ends[edges, 0]])
    e2 = np.concatenate([np.arange(n), ends[edges, 1]])
    s1 = np.concatenate([np.zeros(n, np.int32), offsets]).astype(np.int32)
    s2 = k - s1  # a vertex's second choice, (v, k), never wins
    unreachable = np.int32(2 ** 30)  # above any hop count, far below int32 overflow
    d = g.vertex_distances()
    split = d.min() == UNREACHABLE  # g is disconnected
    step = max(1, HOP_BLOCK // e1.size)
    buf = np.empty((2, min(step, e1.size), e1.size), np.int32)
    for lo in range(0, e1.size, step):
        r = slice(lo, lo + step)
        to_vertex = k * d[e1[r]]  # points x vertices
        to_vertex += s1[r, None]
        np.minimum(to_vertex, k * d[e2[r]] + s2[r, None], out=to_vertex)
        if split:
            to_vertex[d[e1[r]] == UNREACHABLE] = unreachable  # an edge's ends share a component
        rows, via = buf[:, :len(to_vertex)]
        # the indices are in range, so "clip" changes nothing; it spares np.take a copy of `out`
        np.take(to_vertex, e1, axis=1, out=rows, mode="clip")
        np.take(to_vertex, e2, axis=1, out=via, mode="clip")
        rows += s1
        via += s2
        np.minimum(rows, via, out=rows)
        if split:
            rows[rows >= unreachable] = UNREACHABLE
        yield lo, rows


@dataclass(frozen=True)
class EdgeChains:
    """The hop rows of J(G) and their minima along each base edge's chain.

    `jrows` holds the grid hop row of every J-point, in `j_set` order.  Row
    i of the other arrays belongs to edge i = (u, v) of `ends`, whose
    interior points x_1 .. x_{k-1} run from u to v: `mid` is the row of the
    midpoint x_{k/2} (a view of `jrows`), `left` the min of the rows of x_1
    .. x_{k/2-1} and `right` the min of x_{k/2+1} .. x_{k-1}; `u_mid` =
    min(left, mid), `v_mid` = min(right, mid) and `whole` = min(left, mid,
    right).  All are in the hop matrix's dtype; for k = 2, `left` and
    `right` are empty chains and hold the dtype's maximum, the identity of
    min.
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
    hops = s.hops()
    jrows = hops[list(s.j_set)]
    rows = hops[n:].reshape(m, k - 1, s.grid_n)  # edge, offset - 1, point
    h, top = k // 2, np.iinfo(hops.dtype).max
    left = rows[:, :h - 1].min(axis=1, initial=top)
    right = rows[:, h:].min(axis=1, initial=top)
    mid = jrows[n:]
    u_mid = np.minimum(left, mid)
    v_mid = np.minimum(right, mid)
    return EdgeChains(ends=np.asarray(s.base.edges, dtype=np.intp).reshape(m, 2), jrows=jrows,
                      mid=mid, left=left, right=right, u_mid=u_mid, v_mid=v_mid,
                      whole=np.minimum(u_mid, right))


def j_hops(g: Graph, k: int = 4) -> np.ndarray:
    """The S_k hop matrix on J(G) in `j_set` order (vertex v at v, the midpoint
    of edge e at n + e), from the vertex distances D alone: k D between
    vertices, k/2 + k min(D[v, x], D[v, y]) from v to the midpoint of (x, y),
    and k + k min over the end pairs between midpoints of different edges.
    In int32, built one row block at a time."""
    size = g.vertex_count + g.m
    hops = np.empty((size, size), np.int32)
    for lo, rows in _j_hop_blocks(g, k):
        hops[lo:lo + len(rows)] = rows
    np.fill_diagonal(hops, 0)  # a midpoint and itself, which the formula puts k apart
    return hops


def _j_hop_blocks(g: Graph, k: int):
    """`_point_hop_blocks` of J(G): the rows of `j_hops` but for its diagonal."""
    return _point_hop_blocks(g, k, np.arange(g.m), np.full(g.m, k // 2))


def _max_hops(g: Graph, k: int) -> int:
    """The largest S_k hop count between two points of g, UNREACHABLE aside:
    k/2 times the largest S_2 hop count on J(G) (see `diam_g`), taken one
    row block at a time.  The diagonal a midpoint gets from the formula,
    k hops, never raises it: the edge's two ends are k hops apart."""
    return max(int(rows.max()) for _, rows in _j_hop_blocks(g, 2)) * k // 2


def diam_v(g: Graph) -> QDist:
    """Diameter over vertices only."""
    return QDist.from_edges(int(g.vertex_distances().max()))


def diam_g(g: Graph) -> QDist:
    """Diameter over all points of the metric graph, the maximum of `j_hops`.

    Point-to-point distance restricted to a pair of edges is a lower envelope
    of linear functions with slopes +-1 and integer offsets; its maximum over
    the two edges is attained with both endpoints at vertices or midpoints,
    so the maximum over J(G) x J(G) is exact.  UNREACHABLE is -1.  The
    maximum is taken one row block at a time (`_max_hops`), without the
    matrix.
    """
    return QDist.from_hops(_max_hops(g, 2), 2)
