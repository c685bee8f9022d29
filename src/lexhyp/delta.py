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

One engine per graph and config (`DeltaEngine`) serves the value sweep, the
bigon bound, the short-triangle predicate and the witness search.  It builds
the grid, its hop matrix and chains once, and keeps every per-source table
(but those the short-triangle predicate builds), side vector and geodesic
list it computes for the calls that follow; the value sweep runs once, and
each `delta()` call runs only a witness search.
`DeltaConfig` holds the geodesic cap and the grid factor; the witness kind
is chosen per call, `delta(cycle_only=True)`.  `delta_exact` builds a fresh
engine for its config, the bigon bound and the short-triangle predicate a
default S_4 one, and the verification suite keeps one per corpus graph.

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
d/2 (`DeltaEngine.longest_first`).  A length's J-pairs are listed only when
the sweep reaches it, row-major, from one comparison of the int32 J metric
(`DeltaEngine.pairs_at`), so the sweep holds the pairs of one length at a
time and lists none below the length where it stops.  Third corners are
pruned by the corner ceiling, max over grid points p of min(d(a, p),
d(b, p), d(c, p)), which bounds every role value of the triple {a, b, c}.
The sweep reads it only thresholded: the ceiling exceeds t exactly when
some p has min(d(a, p), d(b, p)) > t and d(c, p) > t.  For at most 256
pairs of one length that is one matrix product of 0/1 float32 matrices,
(min(rows of a, b) > t) @ (J rows > t).T > 0 (`DeltaEngine.corner_masks`),
exact at any size because a sum of nonnegative terms is 0 only when every
term is.  The sweep enters a length at its first pair, masked and read
alone, and masks the rest only if it goes on: C200 stops after the first
pair of its longest length and masks that one pair, not all 200 of the
length.  When t rises at a side, the length's later sides are masked again
at the new t, so a side is charged exactly the third corners whose ceiling
exceeds the running value at that side.  A side with any left is closed by
two contiguous row gathers, W_a[I(a, b)] and W_b[I(a, b)]: their
elementwise min, maxed over the interval, is the role value for every
third corner at once (`DeltaEngine.side_values`) — no geodesic enumeration
at all.  Side values are kept per J-pair read, so the witness search and
the short-triangle predicate reuse those the value sweep computed.

A graph that carries automorphisms (a product, see `products`) folds each
length over its J-pair orbit roots.  Masks and side values are metric, so an
automorphism g maps them along, mask(g a, g b, t)[g c] = mask(a, b, t)[c]:
every side of an orbit keeps as many third corners as the orbit's root,
with the same best role value.  The generators are lifted to J(G), vertex v
to g(v) and the midpoint of edge e to the midpoint of g(e), and checked
against the edge set before use (`j_automorphisms`).  Each J-pair's root,
the first pair of its orbit, is found one length at a time by min-label
propagation (`DeltaEngine.roots`), after the length's first pair, which is
its own root, has been folded.  The propagation runs on one edge list per
length, from each pair to its image under each generator that moves it,
and each round is one scatter-min over that list, a slice at a time on
long lengths.  The sweep masks and reads only a length's distinct roots
and charges every side its root's count (`_close_sides`), so the
counters, the value and the witness are those of a graph without
generators, where every pair is its own root.  On lex(P6, C5) the 17,020
J-pairs fall into 135 orbits, and the sweep builds 14 tables, not 160.

A graph with a cut vertex is swept block by block, on the engine's one J
metric.  Its delta is the largest delta of its biconnected blocks
(Rodriguez and Touris, "Gromov hyperbolicity through decomposition of
metric spaces", 2004; Bermudo, Rodriguez, Sigarreta and Vilaire, "Gromov
hyperbolic graphs", 2013), and a block is convex: a path that leaves it
through a cut vertex comes back through the same vertex, so geodesics,
intervals, side values and thinness between its points are those of the
block alone.  So `DeltaEngine.jD` holds the hop count between two J-points
that share a block of at least three vertices and -1 otherwise, as between
components (`subdivision.restrict_to_blocks`), and every sweep reads only
pairs and third corners at entries of at least 0: a tree sweeps nothing,
and a graph without a cut vertex keeps every entry.  `triples_examined`
counts in-block triples, and the witness is the first attaining in-block
triangle: a later one than the whole graph's first where that one crosses
blocks.
The bigon bound stays exact: two a-b geodesics cross the same cut vertices
in the same order, and a point of one between consecutive cut vertices x
and y is no nearer the other outside that block than x or y, which lie on
both.  So does the short-triangle predicate: its tight configuration
contains a cycle triangle (a, b, w), and a cycle lies in one block.

The grid hop matrix, its J rows and chain minima and the tables share one
dtype, `table_dtype` of the grid's largest hop count: one byte per entry
below 128 hops, which covers every product the benchmark and the suite
build.

Explicit triangles serve only the witness search and `thinness`.  The
witness search walks corner triples in lexicographic J order, skips those
whose longest side is below twice the value or whose side values show they
cannot attain it (`DeltaEngine.triple_can_reach`), and enumerates the
geodesic side choices of the rest, in lexicographic order and optionally
only cycle triangles, until one attains the value; `thinness` evaluates a
given triangle, checking each step of a side on the hop matrix.  Both read
every side point's distance to the other two sides from one kernel
(`_side_distances`).  A side's geodesics are listed by a walk over base
vertices, a whole edge chain per step (`enumerate_geodesics`), so neither
walks the grid point by point.  The short-triangle predicate enumerates no
geodesic: it is a query on the side vectors of the pairs of edge midpoints
at 12 hops (`DeltaEngine.has_tight_short_triangle`).

The sweeps log to the "lexhyp" logger at DEBUG: one line per value sweep
with its block count, one per length the value or bigon sweep enters, and
one per triple the witness search examines.
"""

from __future__ import annotations

import itertools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import GeodesicCapError, ValidationError
from .geodesics import enumerate_geodesics, interval, j_source_table
from .graph import Graph
from .qdist import QDist
from .subdivision import SubdividedGraph, j_automorphisms, restrict_to_blocks, subdivide


@dataclass(frozen=True)
class DeltaConfig:
    """Knobs for the exact sweep; defaults match the library contract.

    `geodesic_cap` bounds the geodesics enumerated for one pair by the
    witness sweep (the value sweep enumerates none: it reads per-source
    bottleneck tables); `grid_factor` is the subdivision (4, or 8 for the
    stability check).  `DEFAULT_GRID_CAP` bounds the grid's points, and with
    them the hop matrix and every table (points x J-points per source), all
    in the grid's one hop dtype (`table_dtype`).
    """

    geodesic_cap: int = 1_000_000
    grid_factor: int = 4

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
    """Counters of one engine's work since it was built.  Only the first two
    enter `to_json_dict`.

    `wall_time_s` is the seconds spent in the engine.  Building it took,
    among other things, `apsp_s` for the base graph's vertex distances
    (none when they were cached), `hops_s` for the grid hop matrix and
    `chains_s` for the J rows and chain minima; `value_s` went to the value sweep and
    `witness_s` to witness searches, of which `geodesic_s` to enumerating
    the geodesics of their sides.  `table_bytes` counts the bytes of the
    `tables_built` per-source tables built (in the hop matrix's dtype,
    `table_dtype`), and `table_s` the seconds spent building them; they
    are the bytes the engine holds except after the short-triangle
    predicate, which drops the tables it builds and may build one again.
    `sides_visited` counts the sides the value sweep closed,
    those whose corner mask kept some third corner.  `masked_pairs` counts
    the J-pairs whose corner masks were computed (a length the sweep
    leaves after its first pair adds one), and `mask_s` the seconds spent
    computing them; `masks_recomputed` counts the mask products computed
    again because they held a NaN.  `sides_exact` counts
    the side vectors computed from tables: on a graph carrying automorphisms
    the value sweep computes them for orbit roots only, and `orbit_s` is the
    seconds spent finding the roots.  `blocks` counts the blocks of at least
    three vertices the value sweep ran over: 0 for a tree, 1 for a graph of
    three or more vertices without a cut vertex.  On a graph with a cut
    vertex the sweeps read in-block triples only, so every counter counts
    those; a bigon sweep there also builds fewer tables than one over the
    whole graph, as it skips the pairs across blocks.  The short-triangle
    predicate builds tables for edge-midpoint sources only.
    """

    triples_examined: int = 0
    geodesics_enumerated: int = 0
    wall_time_s: float = 0.0
    tables_built: int = 0
    table_bytes: int = 0
    table_s: float = 0.0
    sides_visited: int = 0
    masked_pairs: int = 0
    mask_s: float = 0.0
    sides_exact: int = 0
    orbit_s: float = 0.0
    masks_recomputed: int = 0
    apsp_s: float = 0.0
    hops_s: float = 0.0
    chains_s: float = 0.0
    value_s: float = 0.0
    witness_s: float = 0.0
    geodesic_s: float = 0.0
    blocks: int = 0


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


def _debug_logger():
    """The "lexhyp" logger if it is enabled for DEBUG, else None.

    Only a process that has imported `logging` can have configured it, so
    one that has not gets None without importing the module, whose import
    would add several ms to the start-up of every process that imports
    lexhyp.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("lexhyp")
    return log if log.isEnabledFor(logging.DEBUG) else None


def _side_distances(D: np.ndarray, sides) -> list[np.ndarray]:
    """For each of three sides (point arrays), every point's hop distance to
    the union of the other two sides; thinness is the max over all three."""
    return [D[np.ix_(sides[i], np.concatenate([sides[(i + 1) % 3], sides[(i + 2) % 3]]))]
            .min(axis=1) for i in range(3)]


MASK_CHUNK = 256  # orbit roots per corner-mask product of the value sweep
ROOT_CHUNK = 4096  # J-pairs per slice of a length's orbit-root edge list, bounding its memory


class DeltaEngine:
    """The exact-delta engine of one graph and config: its grid, hop matrix,
    per-source tables and per-pair caches, built once and shared by the
    value sweep, the witness search, the bigon bound and the short-triangle
    predicate.  Its `stats` count the work done since it was built."""

    def __init__(self, g: Graph, cfg: Optional[DeltaConfig] = None):
        t0 = time.perf_counter()
        self.cfg = cfg = cfg or DeltaConfig()
        self.s = s = subdivide(g, cfg.grid_factor)  # fails fast above the grid cap
        t1 = time.perf_counter()
        g.vertex_distances()
        t2 = time.perf_counter()
        self.D = s.hops()
        t3 = time.perf_counter()
        self.jrows = s.chains().jrows  # hop rows of the J-points, for corner_masks
        t4 = time.perf_counter()
        self.J = J = list(s.j_set)  # grid ids of the J-points
        self.nj = len(J)
        # j_hops(g, k) in int32, but -1 between J-points sharing no block of >= 3 vertices
        self.jD = self.D[np.ix_(J, J)].astype(np.int32)
        restrict_to_blocks(s, g.blocks(), self.jD)
        self.gens = j_automorphisms(s)  # checked generators on J indices (int32), or None
        if self.gens is not None:
            self._root = np.full((self.nj, self.nj), -1, dtype=np.int32)  # see roots()
        self._length: Optional[int] = None  # the length _close_sides last folded
        self._tables: dict[int, np.ndarray] = {}
        self._geos: dict[tuple[int, int], tuple] = {}
        self._sides: dict[tuple[int, int], np.ndarray] = {}
        self._side_lengths: set[int] = set()  # hop lengths of the sides in _sides, see _root_best
        self._far: tuple = (None, None)  # (t, jrows > t as float32), for the last t only
        self._hops: Optional[int] = None  # the value sweep's result, see delta()
        self.stats = DeltaStats(wall_time_s=time.perf_counter() - t0, apsp_s=t2 - t1,
                                hops_s=t3 - t2, chains_s=t4 - t3)

    # -- caches (grid-id keys, smaller id first for pairs) -------------------

    def table(self, a: int) -> np.ndarray:
        """W_a on the J(G) columns: [p, i] is the farthest p can be from some
        a-c geodesic, c the i-th J-point."""
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

        Such a product has been seen, rarely, to hold a NaN.  It is computed
        once more (`stats.masks_recomputed`), and a NaN still there keeps its
        corner, never prunes it, so the counters stay those of an exact
        product unless the fault repeats.
        """
        t0 = time.perf_counter()
        if self._far[0] != t:
            self._far = (t, (self.jrows > t).astype(np.float32))
        near = (np.minimum(self.jrows[ii], self.jrows[jj]) > t).astype(np.float32)
        got = near @ self._far[1].T
        if np.isnan(got).any():
            self.stats.masks_recomputed += 1
            got = near @ self._far[1].T
        got = ~(got <= 0)  # not "> 0", which a NaN would fail
        self.stats.masked_pairs += len(ii)
        self.stats.mask_s += time.perf_counter() - t0
        return got

    def geos(self, a: int, b: int):
        """(arrays, frozensets) of the pair's geodesics, enumerated a -> b."""
        key = (a, b)
        got = self._geos.get(key)
        if got is None:
            t0 = time.perf_counter()
            paths = enumerate_geodesics(self.s, a, b, self.cfg.geodesic_cap)
            self.stats.geodesics_enumerated += len(paths)
            got = ([np.asarray(p, dtype=np.int64) for p in paths],
                   [frozenset(p) for p in paths])
            self._geos[key] = got
            self.stats.geodesic_s += time.perf_counter() - t0
        return got

    def longest_first(self, side) -> int:
        """Fold the J-pairs, longest first, into a running value `cur` from 0
        until no pair left can raise it: every quantity swept here (a role
        value or a bigon thinness) is at most half its side's length.

        `side(ii, jj, cur)` gets index arrays of the pairs of one length not
        yet folded, folds them in order, and returns (cur, pairs folded),
        returning as soon as a pair raises `cur`; the rest come back in the
        next call, after the stop test.  A length's pairs are listed when the
        sweep reaches it (`pairs_at`), and logged at DEBUG.  The lengths are
        read off a count of the J metric's entries, so the sweep meets only
        J-pairs that share a block, and -1, the entry of every other pair,
        ends it.
        """
        cur = 0
        for d in (np.flatnonzero(np.bincount(self.jD.ravel() + 1))[::-1] - 1).tolist():
            if d // 2 <= cur:
                return cur
            ii, jj = self.pairs_at(d)
            log = _debug_logger()
            if log is not None:
                log.debug("sweep length %d: value %d, %d pairs", d, cur, ii.size)
            while ii.size and d // 2 > cur:
                cur, done = side(ii, jj, cur)
                ii, jj = ii[done:], jj[done:]
        return cur

    def pairs_at(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The J-pairs (i, j), i < j, at `d` hops, row-major: index arrays."""
        i, j = np.divmod(np.flatnonzero(self.jD == d), self.nj)
        upper = i < j
        return i[upper], j[upper]

    # -- per-triple machinery ------------------------------------------------

    def side_values(self, a: int, b: int) -> np.ndarray:
        """For every third corner c (as a J index): the largest thinness any
        geodesic choice of triangle (a, b, c) realizes on side a-b (a < b).
        Memoised per pair."""
        got = self._sides.get((a, b))
        if got is None:
            iv = interval(self.D, a, b)
            got = self._sides[(a, b)] = np.minimum(self.table(a)[iv], self.table(b)[iv]).max(axis=0)
            self._side_lengths.add(int(self.D[a, b]))
            self.stats.sides_exact += 1
        return got

    def roots(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Orbit root of each J-pair (ii[r], jj[r]), all of one length, as the
        code i * nj + j of the first pair (i, j) of its orbit in
        `longest_first` order; without generators, the pair itself.

        A length's roots are found together, when first asked for, by
        min-label propagation with pointer jumping.  It runs on one edge
        list: an edge from each pair to its image under each generator that
        moves an end of the pair, so a generator that moves no pair of the
        length adds none.  Each round is one scatter-min of the images'
        labels into the pairs' (`np.minimum.at`), then two jumps.  The list
        is built in slices of ROOT_CHUNK pairs, one scatter each, which keeps
        its transient near that of one list per generator: one slice on
        every length the ladder's products search (at most 2,175 pairs), 16
        on the largest that lex(P16, C8) searches (64,384 pairs).  Labels
        only fall and stay in their orbit.  At the fixpoint none exceeds its
        images', so labels are equal around each cycle x, g x, g^2 x, ...,
        and each orbit is labeled by its first pair.
        """
        if self.gens is None:
            return ii * self.nj + jj
        got = self._root[ii, jj]
        if got[0] >= 0:
            return got
        t0 = time.perf_counter()
        pi, pj = self.pairs_at(self.jD[ii[0], jj[0]])
        label = np.arange(pi.size, dtype=np.int32)
        self._root[pi, pj] = label  # pair ids, until the roots replace them
        moves = np.ascontiguousarray((self.gens != np.arange(self.nj)).T)  # J-point by generator
        edges = []  # per slice of ROOT_CHUNK pairs: the ids of each moved pair and its image
        for lo in range(0, pi.size, ROOT_CHUNK):
            si, sj = pi[lo:lo + ROOT_CHUNK], pj[lo:lo + ROOT_CHUNK]
            pair, gen = np.nonzero(moves[si] | moves[sj])
            a, b = self.gens[gen, si[pair]], self.gens[gen, sj[pair]]
            edges.append((pair + lo, self._root[np.minimum(a, b), np.maximum(a, b)]))
        while True:
            low = label.copy()
            for pair, image in edges:
                np.minimum.at(low, pair, label[image])
            low = low[low[low]]
            if np.array_equal(low, label):
                break
            label = low
        self._root[pi, pj] = pi[label] * self.nj + pj[label]
        self.stats.orbit_s += time.perf_counter() - t0
        return self._root[ii, jj]

    def triple_can_reach(self, i: int, j: int, l: int, target: int) -> bool:
        """Whether some geodesic combination of the triple of J indices
        i < j < l attains `target`, where i and j share a block.  A triple
        whose corners share no block is rejected unread (the J metric holds
        -1 across blocks).  A side is skipped unread when it is shorter than
        2 * target (its role values are at most half its length) or when its
        orbit root was read and reaches no `target` (automorphisms permute
        the third corners)."""
        if self.jD[i, l] < 0 or self.jD[j, l] < 0:
            return False
        for p, q, r in ((i, j, l), (i, l, j), (j, l, i)):
            if self.jD[p, q] < 2 * target:
                continue
            a, b = self.J[p], self.J[q]
            if (a, b) not in self._sides and self._root_best(p, q) < target:
                continue
            if self.side_values(a, b)[r] >= target:
                return True
        return False

    def _root_best(self, i: int, j: int) -> float:
        """The best role value of the orbit root of J-pair (i, j), or inf
        when the root's side was not read.  The root is a pair of the same
        length, so where no side of that length was read the answer is inf
        without finding the length's roots."""
        code = int(self._root[i, j]) if self.gens is not None else i * self.nj + j
        if code < 0:  # the pair's length has no roots yet
            if int(self.jD[i, j]) not in self._side_lengths:
                return np.inf
            code = int(self.roots(np.array([i]), np.array([j]))[0])
        ri, rj = divmod(code, self.nj)
        got = self._sides.get((self.J[ri], self.J[rj]))
        return np.inf if got is None else got.max()

    # -- value sweep ---------------------------------------------------------

    def value_sweep(self) -> int:
        """Max sampled thinness over all corner triples, in grid hops.

        Each (triangle, distinguished side) pair is visited exactly once as a
        (side, third corner) combination: sides are processed in decreasing
        length (a side of length d contributes at most d/2), third corners are
        filtered by the corner masks at the running value, and survivors get
        their exact role value from the bottleneck tables in one batched
        min/max.  Only the J-pairs that share a block of at least three
        vertices are sides, and only the third corners in that block are
        kept (the J metric holds -1 elsewhere): a tree sweeps nothing.
        """
        self.stats.blocks = sum(len(b) >= 3 for b in self.s.base.blocks())
        log = _debug_logger()
        if log is not None:
            log.debug("value sweep over %d blocks of 3 or more vertices", self.stats.blocks)
        return self.longest_first(self._close_sides)

    def _close_sides(self, ii: np.ndarray, jj: np.ndarray, cur: int) -> tuple[int, int]:
        """Fold the roles distinguished at sides (ii[r], jj[r]), all of one
        length, in order, into the running max; stop after the first side
        that raises it.

        Masks and side values are orbit-invariant, so each side is charged
        its root's count of kept third corners and has its root's best role
        value.  The distinct roots are masked MASK_CHUNK at a time and read
        in the order they first appear, up to the first whose best exceeds
        `cur`.  A length is entered at its first pair, folded alone: a sweep
        that stops after it masks one pair, not the length's first chunk,
        and, as that pair is its own root, never searches the length's
        roots.
        """
        d = int(self.jD[ii[0], jj[0]])
        if d != self._length:  # a length is entered at its first pair
            ii, jj = ii[:1], jj[:1]
            codes = (ii * self.nj + jj).tolist()
        else:
            codes = self.roots(ii, jj).tolist()
        self._length = d
        order = list(dict.fromkeys(codes))  # the distinct roots, in the order they first appear
        counts: dict[int, int] = {}
        value, done = cur, len(codes)
        for lo in range(0, len(order), MASK_CHUNK):
            chunk = order[lo:lo + MASK_CHUNK]
            fi, fj = np.divmod(chunk, self.nj)
            masks = self.corner_masks(fi, fj, cur)
            rows = np.arange(len(chunk))
            masks[rows, fi] = masks[rows, fj] = False  # corners must be distinct
            masks &= np.minimum(self.jD[fi], self.jD[fj]) >= 0  # and in the pair's block
            counts.update(zip(chunk, masks.sum(axis=1).tolist()))
            for k, r in enumerate(chunk):
                if counts[r]:  # read lazily: never past the first raising root
                    best = int(self.side_values(self.J[fi[k]], self.J[fj[k]])[masks[k]].max())
                    if best > cur:
                        value, done = best, codes.index(r) + 1
                        break
            if value > cur:
                break
        charged = [counts[r] for r in codes[:done]]
        self.stats.sides_visited += done - charged.count(0)
        self.stats.triples_examined += sum(charged)
        return value, done

    # -- witness sweep ---------------------------------------------------------

    def _candidate_triples(self, target: int):
        """The triples of J indices i < j < l, in lexicographic order, whose
        longest side is at least 2 * target and that `triple_can_reach` it.
        A target of 0 is a tree's, which every triangle attains: the first
        triple, (0, 1, 2), is the only one."""
        if target == 0:
            yield 0, 1, 2
            return
        jD = self.jD
        for i in range(self.nj):
            for j in (i + 1 + np.flatnonzero(jD[i, i + 1:] >= 0)).tolist():
                longest = np.maximum(np.maximum(jD[i, j + 1:], jD[j, j + 1:]), jD[i, j])
                for l in (j + 1 + np.flatnonzero(longest >= 2 * target)).tolist():
                    if self.triple_can_reach(i, j, l, target):
                        yield i, j, l

    def witness_search(self, target: int, cycle_only: bool):
        """First triangle attaining `target`, in lexicographic corner order.

        Returns (triangle, side, point) or None.  Only the triples that may
        attain it (`_candidate_triples`) are examined; each has its geodesic
        side choices enumerated in lexicographic order.  With cycle_only,
        non-cycle choices are skipped; a cycle witness always exists for a
        correctly computed positive target because extremal triangles can be
        chosen to be cycles.  Each triple examined is logged at DEBUG.
        """
        J = self.J
        log = _debug_logger()
        for ii, jj, kk in self._candidate_triples(target):
            x, y, z = J[ii], J[jj], J[kk]
            self.stats.triples_examined += 1
            if log is not None:
                log.debug("witness triple (%d, %d, %d) at target %d", x, y, z, target)
            choices = (zip(*self.geos(x, y)), zip(*self.geos(y, z)), zip(*self.geos(x, z)))
            for (a0, f0), (a1, f1), (a2, f2) in itertools.product(*choices):
                is_cycle = f0 & f1 == {y} and f1 & f2 == {z} and f2 & f0 == {x}
                if cycle_only and not is_cycle:
                    continue
                sides = (a0, a1, a2)
                dists = _side_distances(self.D, sides)
                if max(int(v.max()) for v in dists) != target:
                    continue
                side = next(i for i, v in enumerate(dists) if v.max() == target)
                tri = GeodesicTriangle(
                    corners=(x, y, z),
                    sides=(tuple(a0.tolist()), tuple(a1.tolist()),
                           tuple(a2[::-1].tolist())),  # stored z -> x
                    is_cycle=is_cycle)
                return tri, side, int(sides[side][dists[side].argmax()])
        return None

    # -- entry points ----------------------------------------------------------

    @contextmanager
    def _working(self):
        """Add the block's seconds to `stats.wall_time_s`."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stats.wall_time_s += time.perf_counter() - t0

    def delta(self, cycle_only: bool = True) -> DeltaResult:
        """Sharp hyperbolicity constant, with a witness triangle.

        The value is exact (integer quarter-units).  The witness is the first
        attaining triangle in lexicographic (x, y, z, geodesic) order and,
        unless `cycle_only` is off or the value is 0, a cycle triangle.  On a
        graph with a cut vertex and a positive value it is the first among
        the triangles whose corners share a block, which may come after a
        triangle across blocks that attains the value as well.  The
        value sweep runs on the first call only; each call runs the witness
        search.  The result holds a copy of `stats`.
        A disconnected graph raises ValidationError before the sweep.
        """
        if not self.s.base.is_connected():
            raise ValidationError("delta needs a connected graph")
        with self._working():
            if self._hops is None:
                t0 = time.perf_counter()
                self._hops = self.value_sweep()
                self.stats.value_s += time.perf_counter() - t0
            value = QDist.from_hops(self._hops, self.s.k)
            tri, side, point = self._witness(value, cycle_only)
        return DeltaResult(value=value, witness=tri, witness_point=point,
                           witness_side=side, stats=replace(self.stats), grid=self.s)

    def _witness(self, value: QDist, cycle_only: bool):
        """(triangle, side, point) of the first triangle attaining the swept value."""
        if self.nj < 3:  # no triangle with distinct corners: one point attains 0
            p = self.J[0]
            return GeodesicTriangle(corners=(p, p, p), sides=((p,), (p,), (p,)), is_cycle=True), 0, p
        # delta = 0 admits no cycle triangle (the graph is a tree), so the cycle
        # restriction is waived for the witness there; any triangle attains 0.
        cycle_only = cycle_only and self._hops > 0
        t0 = time.perf_counter()
        try:
            got = self.witness_search(self._hops, cycle_only)
        except GeodesicCapError as e:
            raise GeodesicCapError(e.pair, e.cap, value=value) from None
        finally:
            self.stats.witness_s += time.perf_counter() - t0
        if got is None:
            raise AssertionError(
                f"no {'cycle ' if cycle_only else ''}triangle attains {value}; "
                "this contradicts the extremal-triangle reduction — please report")
        return got

    def bigon_lower_bound(self) -> QDist:
        """Max thinness over bigons (pairs of distinct geodesics between
        J-points).

        Always a lower bound for delta; on S_8 grids the hop maximum is
        floored to the nearest quarter, which keeps it a valid bound.

        It is the diagonal of the side vectors: W_a[p, b] <= d(p, b) =
        W_b[p, b], so `side_values(a, b)[b]` is the max of W_a[p, b] over
        I(a, b).  It still reads that column of W_a itself, because
        `side_values` would also build W_b: on the singles of the seed-0
        corpus that took the bound from 61 to 117 tables on fresh engines
        and its time from about 12 to 18 ms.
        """
        def bigon(ii: np.ndarray, jj: np.ndarray, cur: int) -> tuple[int, int]:
            # a pair with one geodesic has that geodesic as its interval, so its
            # points score 0 here and cannot raise the bound
            for r, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
                a, b = self.J[i], self.J[j]
                got = int(self.table(a)[interval(self.D, a, b), j].max())
                if got > cur:
                    return got, r + 1
            return cur, ii.size

        with self._working():
            return QDist((4 * self.longest_first(bigon)) // self.s.k)

    def has_tight_short_triangle(self) -> bool:
        """Whether some cycle triangle with corners in J(G) and all sides of
        length at most 3 realizes thinness 3/2 at a vertex of G; S_4 grids
        only.  The classifier's induced-subgraph search must agree with it.

        A query on the side vectors: it holds iff some pair (a, b) of edge
        midpoints 3 apart has a third corner c, not a or b and at most 3
        from both, with `side_values(a, b)[c]` >= 3/2.  Exact:
        - On S_4 a vertex and an edge midpoint are 2 mod 4 hops apart, so a
          J-pair at 3 (12 hops) is two vertices or two midpoints.
        - A role value at p on [ab] is at most min(d(p, a), d(p, b)) <= 3/2,
          as a and b lie on the other two sides, so it reaches 3/2 only at
          the middle of [ab]; nothing exceeds 3/2, so >= is =.
        - Between two vertices the middle is an edge midpoint (4 + 2 hops
          from the nearer end), so vertex pairs never qualify.  Between two
          midpoints it is a vertex (2 + 4 hops), so the tight point is a
          vertex of G by itself, and the side vector over all of I(a, b)
          gives the answer of one restricted to vertices.
        - A non-cycle triangle attaining it contains a cycle one with
          corners a, b and w, the point of [ac] ∩ [bc] nearest a along
          [ac].  The other sides meet [ab] at most at its ends, since every
          other point of [ab] is within 3/2 of p, and b is not on [ac]
          (else d(a, c) > 3), nor a on [bc].  w is a vertex of G or c, so
          in J(G): a geodesic enters and leaves an edge chain, whose
          interior points have two neighbors, at its ends, or ends at its
          midpoint, so two geodesics cannot first meet inside one.
        It enumerates no geodesic, so it cannot raise GeodesicCapError.
        It walks the midpoint pairs in a chain where it can, each sharing a
        source with the one before (`_chained`), and holds a table it
        builds only while the pair it reads uses it; the side vectors, and
        the tables it found built, stay.  So it holds at most two tables
        more than the engine held before, where keeping them all would hold
        one per edge midpoint (about 16 GB on `cycle:1000`).  On
        `cycle:1000` the pairs form one chain, so it builds one table per
        midpoint and the first one again.  On a graph that carries
        automorphisms it skips a pair whose orbit it has read (`roots`):
        they carry the pair, its third corners and its side vector along.
        The pairs it reads are a subsequence of the walk on the same graph
        without generators, so it builds no more tables than that walk: a
        table it builds for a pair is not at the pair it read before, so
        that walk builds it at some pair in between.
        """
        if self.s.k != 4:
            raise ValidationError("the short-triangle predicate runs on the S_4 grid only")
        short = (self.jD >= 0) & (self.jD <= 12)  # at most 3 apart, in quarter hops
        with self._working():
            ii, jj = self.pairs_at(12)
            mid = ii >= self.s.base.vertex_count  # i < j, so both ends are edge midpoints
            if not mid.any():
                return False
            pi, pj = ii[mid], jj[mid]

            def pairs():
                # the first pair is its orbit's root: it is read before the
                # walk is indexed and the length's roots are found, which a
                # True answer there spares
                chain = _chained(pi, pj)
                yield int(pi[0]), int(pj[0])
                next(chain)
                codes = self.roots(pi, pj)
                orbits = int((codes == pi * self.nj + pj).sum())  # pairs that are their own root
                codes = codes.tolist()
                read = {codes[0]}
                for r in chain:
                    if len(read) == orbits:  # the rest of the walk reads nothing new
                        return
                    if codes[r] not in read:
                        read.add(codes[r])
                        yield int(pi[r]), int(pj[r])

            built: set = set()  # the tables this call built and still holds
            try:
                for i, j in pairs():
                    ab = {self.J[i], self.J[j]}
                    for x in built - ab:
                        self._tables.pop(x, None)
                    built = (built & ab) | (ab - self._tables.keys())
                    cs = short[i] & short[j]
                    cs[[i, j]] = False
                    if (self.side_values(self.J[i], self.J[j])[cs] >= 6).any():
                        return True
                return False
            finally:
                for x in built:
                    self._tables.pop(x, None)


def _chained(pi: np.ndarray, pj: np.ndarray):
    """The indices r of the pairs (pi[r], pj[r]) in an order where each pair
    shares an end with the pair before it where it can: pair 0 first, then
    after each pair the first unread pair at its newer end (the one it does
    not share with its own predecessor), else at its other end, else the
    first unread pair.  One stable sort lists each end's pairs in order, and
    each end's list is read off lazily, so a walk stopped early pays only
    for the pairs it passed."""
    n = pi.size
    ends = np.stack([pi, pj], axis=1).ravel()  # pair r's ends at 2r and 2r + 1
    order = np.argsort(ends, kind="stable")
    slots = (order // 2).tolist()  # the pairs at each end, in pair order
    bounds = np.searchsorted(ends[order], np.arange(int(ends.max()) + 2)).tolist()
    at = bounds[:-1]  # per end: its first slot not yet passed
    P, Q = pi.tolist(), pj.tolist()
    unread = [True] * n
    unread[0], first, last = False, 1, 0
    yield 0
    near = (Q[0], P[0])
    for _ in range(n - 1):
        nxt = -1
        for end in near:
            k, stop = at[end], bounds[end + 1]
            while k < stop and not unread[slots[k]]:
                k += 1
            at[end] = k
            if k < stop:
                nxt = slots[k]
                break
        if nxt < 0:
            while not unread[first]:
                first += 1
            nxt = first
        unread[nxt] = False
        yield nxt
        # the newer end first
        near = (P[nxt], Q[nxt]) if Q[nxt] in (P[last], Q[last]) else (Q[nxt], P[nxt])
        last = nxt


def delta_exact(g: Graph, cfg: Optional[DeltaConfig] = None) -> DeltaResult:
    """Sharp hyperbolicity constant of `g`, with a witness triangle
    (`DeltaEngine.delta` on a fresh engine)."""
    return DeltaEngine(g, cfg).delta()


def delta_bigon_lower_bound(g: Graph) -> QDist:
    """Max thinness over bigons, a lower bound for delta(g)
    (`DeltaEngine.bigon_lower_bound` on a fresh S_4 engine)."""
    return DeltaEngine(g).bigon_lower_bound()


def has_tight_short_triangle(g: Graph) -> bool:
    """Whether some short cycle triangle is 3/2-thin at a vertex of G
    (`DeltaEngine.has_tight_short_triangle` on a fresh S_4 engine)."""
    return DeltaEngine(g).has_tight_short_triangle()


def thinness(s: SubdividedGraph, t: GeodesicTriangle) -> tuple[QDist, int]:
    """Sharp thinness of one triangle on its grid, with the witness point.

    Validates that each side is a geodesic between its endpoints before
    evaluating: a path of the right length whose every step is 1 hop.
    """
    D = s.hops()
    corners = t.corners
    ends = ((corners[0], corners[1]), (corners[1], corners[2]), (corners[2], corners[0]))
    sides = [np.asarray(side, dtype=np.int64) for side in t.sides]
    for side, (a, b) in zip(sides, ends):
        if side[0] != a or side[-1] != b:
            raise ValidationError("side endpoints do not match corners")
        if len(side) - 1 != D[a, b]:
            raise ValidationError("side is not a geodesic (wrong length)")
        if not (D[side[:-1], side[1:]] == 1).all():
            raise ValidationError("side is not a grid path")
    dists = _side_distances(D, sides)
    i = max(range(3), key=lambda i: dists[i].max())  # first side attaining the max
    return QDist.from_hops(int(dists[i].max()), s.k), int(t.sides[i][dists[i].argmax()])
