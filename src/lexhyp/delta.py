"""Exact hyperbolicity constants with witness geodesic triangles.

The sharp constant is computed on the S_4 quarter grid: corner triples range
over J(G) (vertices and edge midpoints), sides over all geodesics between the
corners, and thinness is sampled at grid vertices.  Quarter sampling is
exact: along a side the distance-to-the-other-sides profile is 1-Lipschitz
and piecewise linear, any strict peak between adjacent quarter points has a
value that is not a multiple of 1/4, and the sharp constant is a multiple of
1/4 — so the peak realizing it sits on the quarter lattice.  The S_8
stability check in the verification suite guards the implementation, not the
argument.

One metric primitive serves every geodesic-free bound: a per-source
bottleneck table W_a, where W_a[p, c] is the farthest p can be from some a-c
geodesic.  It is built once per J-point source that the sweep touches, only
on its J(G) columns and C-contiguous, by a DP over the base graph
(`j_source_table`): a geodesic crosses each edge's chain of interior points
whole, or turns back at its midpoint, so the grid points in between enter
only through per-edge minima of hop rows, cached once per grid
(`SubdividedGraph.chains`).  One base layer stands for k grid hops, and each
midpoint column follows in closed form from its edge's two end columns.  The
table gives the exact value of a role (side a-b, third corner c) as the max
over p in I(a, b) of min(W_a[p, c], W_b[p, c]), and the farthest bigon point
on a-b as the max of W_a[p, b] over the same interval.

The value sweep walks sides in decreasing length and stops once no side
left can raise the running value t: a side of length d contributes at most
d/2 (`_Sweep.longest_first`).  Third corners are pruned by the corner
ceiling, max over grid points p of min(d(a, p), d(b, p), d(c, p)), which
bounds every role value of the triple {a, b, c}.  The sweep reads it only
thresholded: the ceiling exceeds t exactly when some p has min(d(a, p),
d(b, p)) > t and d(c, p) > t.  For a chunk of at most 256 pairs of one
length that is one matrix product of 0/1 float32 matrices, (min(rows of a,
b) > t) @ (J rows > t).T > 0 (`_Sweep.corner_masks`), exact at any size
because a sum of nonnegative terms is 0 only when every term is.  When t
rises inside a chunk, the rest of the chunk is masked again at the new t,
so a side is charged exactly the third corners whose ceiling exceeds the
running value at that side.  A side with any left is closed by two
contiguous row gathers, W_a[I(a, b)] and W_b[I(a, b)]: their elementwise
min, maxed over the interval, is the role value for every third corner at
once (`_Sweep.side_values`) — no geodesic enumeration at all.  Side values
are kept per J-pair, so the witness search reads those the value sweep
computed.

Tables, J rows and chain minima are stored in `table_dtype` of the grid's
largest hop count: one byte per entry below 128 hops, which covers every
product the benchmark and the suite build.

Everything that needs explicit triangles shares one triangle search: a
walker over corner triples in lexicographic J order, filtered per corner
pair by a vectorized third-corner mask (`_Sweep.triples`); a walker over the
geodesic side choices of one triple, in lexicographic order and optionally
restricted to cycle triangles (`_Sweep.combos`); and one kernel giving every
side point's distance to the other two sides (`_side_distances`).  The
witness search walks them until a triangle attains the value, the
short-triangle predicate until a vertex sits exactly 3/2 from the other
sides, and `thinness` applies the kernel to a given triangle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GeodesicCapError, ValidationError
from .geodesics import enumerate_paths, interval, j_source_table
from .graph import Graph
from .qdist import QDist
from .subdivision import DEFAULT_GRID_CAP, SubdividedGraph, subdivide


@dataclass(frozen=True)
class DeltaConfig:
    """Knobs for the exact sweep; defaults match the library contract.

    `geodesic_cap` bounds the geodesics enumerated for one pair by the
    witness sweep (the value sweep enumerates none: it reads per-source
    bottleneck tables); `cycle_only` restricts the witness to cycle
    triangles; `grid_factor` is the subdivision (4, or 8 for the stability
    check); `grid_cap` bounds the grid's point count, and with it the size of
    every table (points x J-points per source, each entry in the narrowest
    signed dtype holding the grid's largest hop count: one byte below 128).
    """

    geodesic_cap: int = 1_000_000
    cycle_only: bool = True
    grid_factor: int = 4
    grid_cap: int = DEFAULT_GRID_CAP

    def __post_init__(self):
        if self.geodesic_cap < 1:
            raise ValidationError("geodesic_cap must be >= 1")
        if self.grid_factor not in (4, 8):
            raise ValidationError("grid_factor must be 4 or 8")


@dataclass
class GeodesicTriangle:
    """Three corners in J(G) plus explicit geodesic sides on the grid.

    Sides run x->y, y->z and z->x; `is_cycle` records whether the sides
    pairwise intersect only at their shared corners.
    """

    corners: tuple[int, int, int]
    sides: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    is_cycle: bool


@dataclass
class DeltaStats:
    """Counters of one engine run.  Only the first two enter `to_json_dict`.

    `table_bytes` is the memory held by the `tables_built` per-source tables
    (one byte per entry on grids below 128 hops across, see `table_dtype`),
    and `table_s` the seconds spent building them.  `sides_visited` counts
    the sides the value sweep closed, those whose corner mask kept some
    third corner, and `mask_s` the seconds spent computing corner masks.
    """

    triples_examined: int = 0
    geodesics_enumerated: int = 0
    wall_time_s: float = 0.0
    tables_built: int = 0
    table_bytes: int = 0
    table_s: float = 0.0
    sides_visited: int = 0
    mask_s: float = 0.0


@dataclass
class DeltaResult:
    value: QDist
    witness: GeodesicTriangle
    witness_point: int
    witness_side: int
    stats: DeltaStats
    grid: SubdividedGraph

    def to_json_dict(self) -> dict:
        """Stable JSON form; volatile wall time is deliberately excluded."""
        return {
            "quarters": self.value.quarters,
            "value": str(self.value),
            "grid_factor": self.grid.k,
            "witness": {
                "corners": list(self.witness.corners),
                "sides": [list(s) for s in self.witness.sides],
                "is_cycle": self.witness.is_cycle,
                "witness_side": self.witness_side,
                "witness_point": self.witness_point,
            },
            "stats": {
                "triples_examined": self.stats.triples_examined,
                "geodesics_enumerated": self.stats.geodesics_enumerated,
            },
        }


def _side_distances(D: np.ndarray, sides) -> list[np.ndarray]:
    """For each of three sides (point arrays), every point's hop distance to
    the union of the other two sides; thinness is the max over all three."""
    return [D[np.ix_(sides[i], np.concatenate([sides[(i + 1) % 3], sides[(i + 2) % 3]]))]
            .min(axis=1) for i in range(3)]


MASK_CHUNK = 256  # J-pairs masked per matrix product in the value sweep


class _Sweep:
    """Shared state for one graph: grid, hop matrix, per-source tables and
    per-pair caches."""

    def __init__(self, s: SubdividedGraph, cfg: DeltaConfig):
        self.s = s
        self.cfg = cfg
        self.D = s.metrics().hops
        self.j = np.asarray(s.j_set, dtype=np.int64)
        self.nj = len(self.j)
        self.jD = self.D[np.ix_(self.j, self.j)]
        self.jpos = np.full(s.grid_n, -1, dtype=np.int64)
        self.jpos[self.j] = np.arange(self.nj)
        self.jrows = s.chains().jrows  # hop rows of the J-points, for corner_masks
        self.nbrs = s._neighbors
        self._tables: dict[int, np.ndarray] = {}
        self._geos: dict[tuple[int, int], tuple] = {}
        self._sides: dict[tuple[int, int], np.ndarray] = {}
        self._far: tuple = (None, None)  # (t, jrows > t as float32), for the last t only
        self.stats = DeltaStats()

    # -- caches (grid-id keys, smaller id first for pairs) -------------------

    def table(self, a: int) -> np.ndarray:
        """W_a on the J(G) columns: [p, jpos[c]] is the farthest p can be from
        some a-c geodesic."""
        got = self._tables.get(a)
        if got is None:
            t0 = time.perf_counter()
            got = self._tables[a] = j_source_table(self.s, a)
            self.stats.table_s += time.perf_counter() - t0
            self.stats.tables_built += 1
            self.stats.table_bytes += got.nbytes
        return got

    def corner_masks(self, ii: np.ndarray, jj: np.ndarray, t: int) -> np.ndarray:
        """For each J-pair (ii[r], jj[r]) and every third corner c (as a J
        index): whether the corner ceiling of {a, b, c} exceeds t.

        Every role value of the triple is at most the ceiling, max over grid
        points p of min(d(a, p), d(b, p), d(c, p)): sample points lie on
        geodesics, geodesics contain the corners, and widening p's range to
        the full grid only raises the max.  It exceeds t exactly when some p
        has min(d(a, p), d(b, p)) > t and d(c, p) > t, so the masks are one
        product of 0/1 matrices, nonzero exactly where such a p exists.  The
        corners a and b themselves are not excluded.
        """
        t0 = time.perf_counter()
        if self._far[0] != t:
            self._far = (t, (self.jrows > t).astype(np.float32))
        near = np.minimum(self.jrows[ii], self.jrows[jj]) > t
        got = near.astype(np.float32) @ self._far[1].T > 0
        self.stats.mask_s += time.perf_counter() - t0
        return got

    def geos(self, a: int, b: int):
        """(arrays, frozensets) of the pair's geodesics, enumerated a -> b."""
        key = (a, b)
        got = self._geos.get(key)
        if got is None:
            paths = enumerate_paths(self.nbrs, self.D, a, b, self.cfg.geodesic_cap)
            self.stats.geodesics_enumerated += len(paths)
            got = ([np.asarray(p, dtype=np.int64) for p in paths],
                   [frozenset(p) for p in paths])
            self._geos[key] = got
        return got

    def longest_first(self, side) -> int:
        """Fold the J-pairs, longest first, into a running value `cur` from 0
        until no pair left can raise it: every quantity swept here (a role
        value or a bigon thinness) is at most half its side's length.

        `side(ii, jj, cur)` gets index arrays of at most MASK_CHUNK pairs of
        one length, folds them in order, and returns (cur, pairs folded),
        returning as soon as a pair raises `cur`; the rest of the chunk comes
        back in the next call, after the stop test.
        """
        cur = 0
        iu = np.triu_indices(self.nj, 1)
        dvals = self.jD[iu]
        for d in np.unique(dvals)[::-1].tolist():
            at = dvals == d
            level_i, level_j = iu[0][at], iu[1][at]
            for lo in range(0, level_i.size, MASK_CHUNK):
                ii, jj = level_i[lo:lo + MASK_CHUNK], level_j[lo:lo + MASK_CHUNK]
                while ii.size:
                    if d // 2 <= cur:
                        return cur
                    cur, done = side(ii, jj, cur)
                    ii, jj = ii[done:], jj[done:]
        return cur

    # -- triangle walkers ------------------------------------------------------

    def longest_side(self, ii: int, jj: int) -> np.ndarray:
        """Longest side of every corner triple (ii, jj, kk) with kk > jj."""
        return np.maximum(np.maximum(self.jD[ii, jj + 1:], self.jD[jj, jj + 1:]),
                          self.jD[ii, jj])

    def triples(self, keep):
        """Corner triples (x, y, z) in lexicographic J order; `keep(ii, jj)`
        masks the third corners kk > jj to visit."""
        for ii in range(self.nj):
            for jj in range(ii + 1, self.nj):
                for kk in (jj + 1 + np.flatnonzero(keep(ii, jj))).tolist():
                    yield int(self.j[ii]), int(self.j[jj]), int(self.j[kk])

    def combos(self, x: int, y: int, z: int, cycle_only: bool):
        """Each (x->y, y->z, x->z) geodesic choice in lexicographic order, as
        (sides, is_cycle, side distances); with cycle_only, cycle triangles
        only (sides pairwise meeting only at their shared corner)."""
        arr_xy, fs_xy = self.geos(x, y)
        arr_yz, fs_yz = self.geos(y, z)
        arr_xz, fs_xz = self.geos(x, z)
        for a0, f0 in zip(arr_xy, fs_xy):
            for a1, f1 in zip(arr_yz, fs_yz):
                for a2, f2 in zip(arr_xz, fs_xz):
                    is_cycle = f0 & f1 == {y} and f1 & f2 == {z} and f2 & f0 == {x}
                    if cycle_only and not is_cycle:
                        continue
                    sides = (a0, a1, a2)
                    yield sides, is_cycle, _side_distances(self.D, sides)

    # -- per-triple machinery ------------------------------------------------

    def side_values(self, a: int, b: int) -> np.ndarray:
        """For every third corner c (as a J index): the largest thinness any
        geodesic choice of triangle (a, b, c) realizes on side a-b (a < b)."""
        got = self._sides.get((a, b))
        if got is None:
            iv = interval(self.D, a, b)
            got = np.minimum(self.table(a)[iv], self.table(b)[iv]).max(axis=0)
            self._sides[(a, b)] = got
        return got

    def triple_can_reach(self, x: int, y: int, z: int, target: int) -> bool:
        """Whether some geodesic combination of this triple (x < y < z)
        attains `target`.  A side shorter than 2 * target is skipped unread:
        its role values are at most half its length."""
        return any(self.D[a, b] >= 2 * target and self.side_values(a, b)[self.jpos[c]] >= target
                   for a, b, c in ((x, y, z), (x, z, y), (y, z, x)))

    # -- value sweep ---------------------------------------------------------

    def value_sweep(self) -> int:
        """Max sampled thinness over all corner triples, in grid hops.

        Each (triangle, distinguished side) pair is visited exactly once as a
        (side, third corner) combination: sides are processed in decreasing
        length (a side of length d contributes at most d/2), third corners are
        filtered by the corner masks at the running value, and survivors get
        their exact role value from the bottleneck tables in one batched
        min/max.
        """
        return self.longest_first(self._close_sides) if self.nj >= 3 else 0

    def _close_sides(self, ii: np.ndarray, jj: np.ndarray, cur: int) -> tuple[int, int]:
        """Fold the roles distinguished at sides (ii[r], jj[r]), in order, into
        the running max; stop after the first side that raises it."""
        masks = self.corner_masks(ii, jj, cur)
        rows = np.arange(ii.size)
        masks[rows, ii] = masks[rows, jj] = False  # corners must be distinct
        for r, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
            cs = np.flatnonzero(masks[r])
            if cs.size == 0:
                continue
            self.stats.sides_visited += 1
            self.stats.triples_examined += int(cs.size)
            got = int(self.side_values(int(self.j[i]), int(self.j[j]))[cs].max())
            if got > cur:
                return got, r + 1
        return cur, ii.size

    # -- witness sweep ---------------------------------------------------------

    def witness_search(self, target: int, cycle_only: bool):
        """First triangle attaining `target`, in lexicographic corner order.

        Returns (triangle, side, point) or None.  Triples whose longest side
        is below 2 * target, or that the corner masks or the tables show
        cannot attain it, are skipped.  With cycle_only, non-cycle
        combinations are skipped; a cycle witness always exists for a
        correctly computed positive target because extremal triangles can be
        chosen to be cycles.
        """
        def keep(ii: int, jj: int) -> np.ndarray:
            hit = self.longest_side(ii, jj) >= 2 * target
            if target > 0 and hit.any():
                hit &= self.corner_masks(np.array([ii]), np.array([jj]), target - 1)[0, jj + 1:]
            return hit

        for x, y, z in self.triples(keep):
            if target > 0 and not self.triple_can_reach(x, y, z, target):
                continue
            self.stats.triples_examined += 1
            for sides, is_cycle, dists in self.combos(x, y, z, cycle_only):
                if max(int(v.max()) for v in dists) != target:
                    continue
                side = next(i for i, v in enumerate(dists) if v.max() == target)
                point = int(sides[side][dists[side].argmax()])
                tri = GeodesicTriangle(
                    corners=(x, y, z),
                    sides=(tuple(sides[0].tolist()), tuple(sides[1].tolist()),
                           tuple(sides[2][::-1].tolist())),  # stored z -> x
                    is_cycle=is_cycle)
                return tri, side, point
        return None


def _degenerate_result(s: SubdividedGraph, stats: DeltaStats) -> DeltaResult:
    p = int(s.j_set[0])
    tri = GeodesicTriangle(corners=(p, p, p), sides=((p,), (p,), (p,)), is_cycle=True)
    return DeltaResult(value=QDist(0), witness=tri, witness_point=p,
                       witness_side=0, stats=stats, grid=s)


def delta_exact(g: Graph, cfg: Optional[DeltaConfig] = None) -> DeltaResult:
    """Sharp hyperbolicity constant of `g`, with a witness triangle.

    The returned value is exact (integer quarter-units); the witness is the
    first attaining triangle in lexicographic (x, y, z, geodesic) order and,
    unless `cfg.cycle_only` is off or the value is 0, a cycle triangle.
    """
    cfg = cfg or DeltaConfig()
    t0 = time.perf_counter()
    s = subdivide(g, cfg.grid_factor, cfg.grid_cap)
    sweep = _Sweep(s, cfg)
    if sweep.nj < 3:
        result = _degenerate_result(s, sweep.stats)
        sweep.stats.wall_time_s = time.perf_counter() - t0
        return result
    hops = sweep.value_sweep()
    value = QDist.from_hops(hops, s.k)
    # delta = 0 admits no cycle triangle (the graph is a tree), so the cycle
    # restriction is waived for the witness there; any triangle attains 0.
    cycle_only = cfg.cycle_only and hops > 0
    try:
        got = sweep.witness_search(hops, cycle_only)
    except GeodesicCapError as e:
        raise GeodesicCapError(e.pair, e.cap, partial_lower_bound=value) from None
    if got is None:
        raise AssertionError(
            f"no {'cycle ' if cycle_only else ''}triangle attains {value}; "
            "this contradicts the extremal-triangle reduction — please report")
    tri, side, point = got
    sweep.stats.wall_time_s = time.perf_counter() - t0
    return DeltaResult(value=value, witness=tri, witness_point=point,
                       witness_side=side, stats=sweep.stats, grid=s)


def delta_bigon_lower_bound(g: Graph, cfg: Optional[DeltaConfig] = None) -> QDist:
    """Max thinness over bigons (pairs of distinct geodesics between J-points).

    Always a lower bound for delta(g); on S_8 grids the hop maximum is
    floored to the nearest quarter, which keeps it a valid bound.
    """
    cfg = cfg or DeltaConfig()
    s = subdivide(g, cfg.grid_factor, cfg.grid_cap)
    sweep = _Sweep(s, cfg)

    def bigon(ii: np.ndarray, jj: np.ndarray, cur: int) -> tuple[int, int]:
        # a pair with one geodesic has that geodesic as its interval, so its
        # points score 0 here and cannot raise the bound
        for r, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
            a, b = int(sweep.j[i]), int(sweep.j[j])
            got = int(sweep.table(a)[interval(sweep.D, a, b), j].max())
            if got > cur:
                return got, r + 1
        return cur, ii.size

    return QDist((4 * sweep.longest_first(bigon)) // s.k)


def thinness(s: SubdividedGraph, t: GeodesicTriangle) -> tuple[QDist, int]:
    """Sharp thinness of one triangle on its grid, with the witness point.

    Validates that each side is a geodesic between its endpoints before
    evaluating.
    """
    D = s.metrics().hops
    corners = t.corners
    ends = ((corners[0], corners[1]), (corners[1], corners[2]), (corners[2], corners[0]))
    for side, (a, b) in zip(t.sides, ends):
        if side[0] != a or side[-1] != b:
            raise ValidationError("side endpoints do not match corners")
        if len(side) - 1 != D[a, b]:
            raise ValidationError("side is not a geodesic (wrong length)")
        for u, v in zip(side, side[1:]):
            if v not in s.neighbors(u):
                raise ValidationError("side is not a grid path")
    dists = _side_distances(D, [np.asarray(side, dtype=np.int64) for side in t.sides])
    i = max(range(3), key=lambda i: dists[i].max())  # first side attaining the max
    return QDist.from_hops(int(dists[i].max()), s.k), int(t.sides[i][dists[i].argmax()])


def has_tight_short_triangle(g: Graph, cfg: Optional[DeltaConfig] = None) -> bool:
    """Whether some cycle triangle with corners in J(G) and all sides of
    length at most 3 realizes thinness 3/2 at a vertex of G.

    The tight point sits 3/2 from both ends of a length-3 side, so requiring
    it to be a vertex forces those two corners to be edge midpoints.  That is
    the configuration the forbidden-family characterization describes (a
    length-3 side between two vertices realizes 3/2 only at an edge midpoint,
    and such triangles occur in graphs outside the family).  The classifier's
    induced-subgraph search must agree with this predicate.
    """
    cfg = cfg or DeltaConfig(grid_factor=4)
    s = subdivide(g, 4, cfg.grid_cap)
    sweep = _Sweep(s, cfg)
    target = 6  # 3/2 in quarter hops
    limit = 12  # sides of length <= 3, the longest exactly 3
    n_base = g.vertex_count
    for x, y, z in sweep.triples(lambda ii, jj: sweep.longest_side(ii, jj) == limit):
        if not sweep.triple_can_reach(x, y, z, target):
            continue
        for sides, _, dists in sweep.combos(x, y, z, cycle_only=True):
            if any(((d == target) & (side < n_base)).any() for side, d in zip(sides, dists)):
                return True
    return False
