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
the grid, its hop matrix and chains once, and keeps every per-source table,
side vector and geodesic list it computes for the calls that follow; the
value sweep runs once, and each `delta()` call runs only a witness search.
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
some p has min(d(a, p), d(b, p)) > t and d(c, p) > t.  For a chunk of at
most 256 pairs of one length that is one matrix product of 0/1 float32
matrices, (min(rows of a, b) > t) @ (J rows > t).T > 0
(`DeltaEngine.corner_masks`), exact at any size because a sum of
nonnegative terms is 0 only when every term is.  When t rises inside a
chunk, the rest of the chunk is masked again at the new t, so a side is
charged exactly the third corners whose ceiling exceeds the running value
at that side.  A side with any left is closed by two contiguous row
gathers, W_a[I(a, b)] and W_b[I(a, b)]: their elementwise min, maxed over
the interval, is the role value for every third corner at once
(`DeltaEngine.side_values`) — no geodesic enumeration at all.  Side values
are kept per J-pair read, so the witness search reuses those the value
sweep computed.

A graph that carries automorphisms (a product, see `products`) folds each
chunk over its J-pair orbit roots.  Masks and side values are metric, so an
automorphism g maps them along, mask(g a, g b, t)[g c] = mask(a, b, t)[c]:
every side of an orbit keeps as many third corners as the orbit's root,
with the same best role value.  The generators are lifted to J(G), vertex v
to g(v) and the midpoint of edge e to the midpoint of g(e), and checked
against the edge set before use (`j_automorphisms`).  Each J-pair's root,
the first pair of its orbit, is found one length at a time by min-label
propagation (`DeltaEngine.roots`), after the length's first pair, which is
its own root, has been folded.  A chunk masks and reads only its distinct
roots and charges every side its root's count (`DeltaEngine._close_sides`),
so the counters, the value and the witness are those of a graph without
generators, where every pair is its own root.  On lex(P6, C5) the 17,020
J-pairs fall into 135 orbits, and the sweep builds 14 tables, not 160.

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
geodesic: it is a query on the tables
(`DeltaEngine.has_tight_short_triangle`).

The sweeps log to the "lexhyp" logger at DEBUG: one line per length the
value or bigon sweep enters, and one per triple the witness search
examines.
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
from .subdivision import SubdividedGraph, j_automorphisms, subdivide


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
    the geodesics of their sides.  `table_bytes` is the memory held by
    the `tables_built` per-source tables (in the hop matrix's dtype,
    `table_dtype`), and `table_s` the seconds spent building them.
    `sides_visited` counts the sides the value sweep closed,
    those whose corner mask kept some third corner, and `mask_s` the seconds
    spent computing corner masks; `masks_recomputed` counts the mask
    products computed again because they held a NaN.  `sides_exact` counts
    the side vectors computed from tables: on a graph carrying automorphisms
    the value sweep computes them for orbit roots only, and `orbit_s` is the
    seconds spent finding the roots.
    """

    triples_examined: int = 0
    geodesics_enumerated: int = 0
    wall_time_s: float = 0.0
    tables_built: int = 0
    table_bytes: int = 0
    table_s: float = 0.0
    sides_visited: int = 0
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


MASK_CHUNK = 256  # J-pairs per value-sweep chunk; its distinct orbit roots share one mask product


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
        self.j = np.asarray(s.j_set, dtype=np.int64)
        self.J = list(s.j_set)  # the same grid ids, for scalar reads
        self.nj = len(self.j)
        self.jD = self.D[np.ix_(self.j, self.j)].astype(np.int32)  # = j_hops(g, k), int32 too
        self.gens = j_automorphisms(s)  # checked generators on J indices (int32), or None
        if self.gens is not None:
            self._root = np.full((self.nj, self.nj), -1, dtype=np.int32)  # see roots()
        self._known: tuple = (None, None, {})  # (length, cur, {root: (count, best)}): _close_sides
        self._tables: dict[int, np.ndarray] = {}
        self._geos: dict[tuple[int, int], tuple] = {}
        self._sides: dict[tuple[int, int], np.ndarray] = {}
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

        `side(ii, jj, cur)` gets index arrays of at most MASK_CHUNK pairs of
        one length, folds them in order, and returns (cur, pairs folded),
        returning as soon as a pair raises `cur`; the rest of the chunk comes
        back in the next call, after the stop test.  A length's pairs are
        listed when the sweep reaches it (`pairs_at`), and logged at DEBUG.
        The lengths are read off a count of the J metric's entries, -1 for
        points in different components included.
        """
        cur = 0
        for d in (np.flatnonzero(np.bincount(self.jD.ravel() + 1))[::-1] - 1).tolist():
            if d // 2 <= cur:
                return cur
            level_i, level_j = self.pairs_at(d)
            log = _debug_logger()
            if log is not None:
                log.debug("sweep length %d: value %d, %d pairs", d, cur, level_i.size)
            for lo in range(0, level_i.size, MASK_CHUNK):
                ii, jj = level_i[lo:lo + MASK_CHUNK], level_j[lo:lo + MASK_CHUNK]
                while ii.size:
                    if d // 2 <= cur:
                        return cur
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
            self.stats.sides_exact += 1
        return got

    def roots(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Orbit root of each J-pair (ii[r], jj[r]), all of one length, as the
        code i * nj + j of the first pair (i, j) of its orbit in
        `longest_first` order; without generators, the pair itself.

        A length's roots are found together, when first asked for, by
        min-label propagation with pointer jumping over the pairs each
        generator moves.  Labels only fall and stay in their orbit.  At the
        fixpoint none exceeds its images', so labels are equal around each
        cycle x, g x, g^2 x, ..., and each orbit is labeled by its first pair.
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
        moved = []  # per generator: the pairs it moves, and the ids of their images
        for perm, moves in zip(self.gens, self.gens != np.arange(self.nj)):
            hit = np.flatnonzero(moves[pi] | moves[pj])
            a, b = perm[pi[hit]], perm[pj[hit]]
            moved.append((hit, self._root[np.minimum(a, b), np.maximum(a, b)]))
        while True:
            low = label.copy()
            for hit, image in moved:
                low[hit] = np.minimum(low[hit], label[image])
            low = low[low]
            if np.array_equal(low, label):
                break
            label = low
        self._root[pi, pj] = pi[label] * self.nj + pj[label]
        self.stats.orbit_s += time.perf_counter() - t0
        return self._root[ii, jj]

    def triple_can_reach(self, i: int, j: int, l: int, target: int) -> bool:
        """Whether some geodesic combination of the triple of J indices
        i < j < l attains `target`.  A side is skipped unread when it is
        shorter than 2 * target (its role values are at most half its
        length) or when its orbit root was read and reaches no `target`
        (automorphisms permute the third corners)."""
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
        when the root's side was not read."""
        code = int(self._root[i, j]) if self.gens is not None else i * self.nj + j
        if code < 0:  # the pair's length has no roots yet
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
        min/max.
        """
        return self.longest_first(self._close_sides) if self.nj >= 3 else 0

    def _close_sides(self, ii: np.ndarray, jj: np.ndarray, cur: int) -> tuple[int, int]:
        """Fold the roles distinguished at sides (ii[r], jj[r]), in order, into
        the running max; stop after the first side that raises it.

        Masks and side values are orbit-invariant, so each side is charged
        its root's count of kept third corners and has its root's best role
        value.  The chunk's distinct roots are masked once per length and
        `cur`, and read in the order they first appear, up to the first
        whose best exceeds `cur`.  A length's first pair is its own root, so
        on a graph with generators it is folded alone, before the length's
        roots are found: a sweep that stops after it never searches them.
        """
        d = int(self.jD[ii[0], jj[0]])
        if d != self._known[0] and self.gens is not None:  # a length is entered at its first pair
            ii, jj = ii[:1], jj[:1]
            codes = (ii * self.nj + jj).tolist()
        else:
            codes = self.roots(ii, jj).tolist()
        if self._known[:2] != (d, cur):
            self._known = (d, cur, {})
        known = self._known[2]
        order = list(dict.fromkeys(codes))  # distinct roots, in the order they first appear
        fresh = [r for r in order if r not in known]
        if fresh:
            fi, fj = np.divmod(fresh, self.nj)
            masks = self.corner_masks(fi, fj, cur)
            rows = np.arange(len(fresh))
            masks[rows, fi] = masks[rows, fj] = False  # corners must be distinct
            counts = masks.sum(axis=1).tolist()
        value, done, k = cur, len(codes), 0
        for r in order:
            got = known.get(r)
            if got is None:  # the k-th fresh root
                best = -1
                if counts[k]:  # read lazily: never ahead of the first raising root
                    vals = self.side_values(int(self.j[fi[k]]), int(self.j[fj[k]]))
                    best = int(vals[masks[k]].max())
                got = known[r] = (counts[k], best)
                k += 1
            if got[1] > cur:
                value, done = got[1], codes.index(r) + 1
                break
        charged = [known[r][0] for r in codes[:done]]
        self.stats.sides_visited += done - charged.count(0)
        self.stats.triples_examined += sum(charged)
        return value, done

    # -- witness sweep ---------------------------------------------------------

    def witness_search(self, target: int, cycle_only: bool):
        """First triangle attaining `target`, in lexicographic corner order.

        Returns (triangle, side, point) or None.  Triples whose longest side
        is below 2 * target, or whose side values show they cannot attain it
        (`triple_can_reach`), are skipped; the rest have their geodesic side
        choices enumerated in lexicographic order.  With cycle_only, non-cycle
        choices are skipped; a cycle witness always exists for a correctly
        computed positive target because extremal triangles can be chosen to
        be cycles.  Each triple examined is logged at DEBUG.
        """
        J, jD = self.J, self.jD
        log = _debug_logger()
        for ii in range(self.nj):
            for jj in range(ii + 1, self.nj):
                longest = np.maximum(np.maximum(jD[ii, jj + 1:], jD[jj, jj + 1:]), jD[ii, jj])
                for kk in (jj + 1 + np.flatnonzero(longest >= 2 * target)).tolist():
                    if target > 0 and not self.triple_can_reach(ii, jj, kk, target):
                        continue
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
        unless `cycle_only` is off or the value is 0, a cycle triangle.  The
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
            p = int(self.j[0])
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
        """
        def bigon(ii: np.ndarray, jj: np.ndarray, cur: int) -> tuple[int, int]:
            # a pair with one geodesic has that geodesic as its interval, so its
            # points score 0 here and cannot raise the bound
            for r, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
                a, b = int(self.j[i]), int(self.j[j])
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

        A query on the tables: it holds iff some J-pair (a, b) at 3 has a
        vertex p of G in I(a, b) and a third corner c, not a or b and at
        most 3 from both, with min(W_a[p, c], W_b[p, c]) >= 3/2.  Exact:
        - The tight point p is the midpoint of a length-3 side [ab], as the
          other sides contain a and b and d(p, a) + d(p, b) <= 3.  A vertex
          p forces a and b to be edge midpoints: the configuration of the
          family characterization (between two vertices a length-3 side
          realizes 3/2 only at an edge midpoint, also outside the family).
        - The min of the two columns is exact: the other two sides are
          chosen independently, and p's distance to their union is the min
          of its distances to each.  Nothing exceeds 3/2, so >= is =.
        - A non-cycle triangle attaining it contains a cycle one with
          corners a, b and w, the point of [ac] ∩ [bc] nearest a along
          [ac].  The other sides meet [ab] at most at its ends, since every
          other point of [ab] is within 3/2 of p, and b is not on [ac]
          (else d(a, c) > 3), nor a on [bc].  w is a vertex of G or c, so
          in J(G): a geodesic enters and leaves an edge chain, whose
          interior points have two neighbors, at its ends, or ends at its
          midpoint, so two geodesics cannot first meet inside one.
        It enumerates no geodesic, so it cannot raise GeodesicCapError.
        """
        if self.s.k != 4:
            raise ValidationError("the short-triangle predicate runs on the S_4 grid only")
        n_base = self.s.base.vertex_count
        short = (self.jD >= 0) & (self.jD <= 12)  # at most 3 apart, in quarter hops
        with self._working():
            for i, j in zip(*self.pairs_at(12)):
                a, b = int(self.j[i]), int(self.j[j])
                iv = interval(self.D, a, b)
                iv = iv[iv < n_base]  # the tight point is a vertex of G
                if not iv.size:
                    continue
                cs = short[i] & short[j]
                cs[[i, j]] = False
                if (np.minimum(self.table(a)[iv][:, cs], self.table(b)[iv][:, cs]) >= 6).any():
                    return True
            return False


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
