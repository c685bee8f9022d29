"""Verification suite: every computable claim as a falsifiable check.

Each check compares two independently computed quantities (closed form vs
all-pairs search, table vs exact engine, ...) or a computed quantity
against a fixed constant, over a deterministic corpus.  A failing check never
aborts the run; failures become replayable report entries.

The copy-lemma checks (`neighborhood_3_2`, `geodesic_copy_5_2`,
`geodesic_copy_gt3`) read the S_4 metric of J(G) from `j_hops` and build no
grid: their extremes sit at vertices and edge midpoints (`_copy_lemmas`).
All three come from one pass per product, which the first of them to run
pays for, and `SuiteContext` keeps each product's instance counts and
failures, not its matrices.  `SuiteContext` likewise decides family
membership once per graph for `F_characterization` and `f_triangle_lemma`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from .catalog import in_family_F
from .corpus import Corpus
from .delta import DeltaConfig, DeltaEngine, DeltaResult, delta_exact, thinness
from .errors import LexhypError
from .geodesics import geodesic_count
from .graph import Graph, complete_graph, cycle_graph, induced_subgraph, is_isometric_embedding, path_graph
from .products import LEXICOGRAPHIC, ProductGraph, lex_distance_matrix, product
from .qdist import ONE, THREE_HALVES, QDist
from .subdivision import diam_g, diam_v, edge_ends, edge_ids, j_hops
from .treeformula import _tree_lex_case, bound_check


@dataclass
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail"
    instances: int
    failures: list
    millis: int


@dataclass
class SuiteReport:
    results: dict[str, CheckResult]

    @property
    def all_pass(self) -> bool:
        return all(r.status == "pass" for r in self.results.values())

    def to_json_dict(self) -> dict:
        return {
            cid: {
                "status": r.status,
                "instances": r.instances,
                "failures": r.failures,
                "millis": r.millis,
            }
            for cid, r in sorted(self.results.items())
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


class SuiteContext:
    """Shared memoization across checks, whatever order they run in.

    One run keeps:
    - the engines of the `singles`, the corpus graphs: one default S_4
      `DeltaEngine` each, with its grid, tables and default result.  The
      value checks, the witness, cycle-only, bigon and short-triangle
      checks all sweep these graphs and share that engine;
    - the exact value of every other graph swept, the products above all;
    - the products, `lex`, one per corpus pair;
    - the copy-lemma results per product (`copy_lemmas`): each check's
      instance count and failures, from one pass over the product's J(G)
      metric;
    - family membership per graph (`in_family`), which the tree-formula
      oracle reads too.

    It deliberately keeps no J metric, of a product or of its factors, and
    no engine but the singles': keeping the products' engines as well
    raised the peak RSS of a `lexhyp verify --seed 0` run from 62.5 to
    90.0 MB, for the same grid and table counts, and each J metric is read
    by one pass only.
    """

    def __init__(self, product_cap: int, singles: Iterable[Graph] = ()):
        self.product_cap = product_cap
        self._singles = frozenset(singles)
        self._engines: dict[Graph, DeltaEngine] = {}
        self._results: dict[Graph, DeltaResult] = {}
        self._delta: dict[Graph, QDist] = {}
        self._products: dict[tuple[Graph, Graph], ProductGraph] = {}
        self._copies: dict[tuple[Graph, Graph], dict[str, tuple[int, list]]] = {}
        self._family: dict[Graph, bool] = {}

    def engine(self, g: Graph) -> DeltaEngine:
        """The default engine of g, built on first use and kept."""
        if g not in self._engines:
            self._engines[g] = DeltaEngine(g)
        return self._engines[g]

    def result(self, g: Graph) -> DeltaResult:
        """The default `delta_exact` result of g, from its kept engine."""
        if g not in self._results:
            self._results[g] = self.engine(g).delta()
        return self._results[g]

    def delta(self, g: Graph) -> QDist:
        """The exact value of g; a single's comes from its kept engine."""
        if g in self._singles:
            return self.result(g).value
        if g not in self._delta:
            self._delta[g] = delta_exact(g).value
        return self._delta[g]

    def lex(self, g1: Graph, g2: Graph) -> ProductGraph:
        key = (g1, g2)
        if key not in self._products:
            self._products[key] = product(g1, g2, LEXICOGRAPHIC)
        return self._products[key]

    def copy_lemmas(self, g1: Graph, g2: Graph) -> dict[str, tuple[int, list]]:
        """(instances, failures) of each copy-lemma check on `lex(g1, g2)`,
        by check id (`_copy_lemmas`), from one pass kept per product."""
        key = (g1, g2)
        if key not in self._copies:
            self._copies[key] = _copy_lemmas(self.lex(g1, g2), g1, g2)
        return self._copies[key]

    def in_family(self, g: Graph) -> bool:
        """Whether g is in the family F (`in_family_F`), decided once."""
        if g not in self._family:
            self._family[g] = in_family_F(g)[0]
        return self._family[g]

    def delta_pairs(self, corpus: Corpus):
        """Pairs whose lexicographic product fits the engine budget."""
        for g1, g2 in corpus.pairs:
            if g1.vertex_count * g2.vertex_count <= self.product_cap:
                yield g1, g2


CHECKS: dict[str, Callable] = {}


def _register(check_id: str):
    def deco(fn):
        CHECKS[check_id] = fn
        return fn
    return deco


def _fail(failures, inputs, expected, actual):
    failures.append({"inputs": inputs, "expected": str(expected), "actual": str(actual)})


def _pair_tag(g1: Graph, g2: Graph) -> str:
    return f"G1(n={g1.vertex_count},m={g1.m}) o G2(n={g2.vertex_count},m={g2.m})"


def _lex_pairs(pairs):
    """Pairs with a non-trivial G1: for trivial G1 the product is G2 itself."""
    return ((g1, g2) for g1, g2 in pairs if not g1.is_trivial())


def _small_pairs(pairs):
    """Pairs whose product has at most 400 vertices (checks over vertex pairs)."""
    return ((g1, g2) for g1, g2 in pairs if g1.vertex_count * g2.vertex_count <= 400)


def _fits_s4(g: Graph) -> bool:
    """The copy-lemma and short-triangle checks' domain: S_4 grids of n + 3m <= 2000 points."""
    return g.vertex_count + 3 * g.m <= 2000


def _lift(p: ProductGraph, g: Graph, ids: np.ndarray) -> np.ndarray:
    """Product J(G) indices of J(g), in J order, for each copy of g in the
    product: row r of `ids` holds the product vertex of each vertex of g in
    copy r, and the midpoint of (a, b) goes to that of the product edge
    (ids[r, a], ids[r, b]).  One edge lookup serves every copy."""
    n = p.graph.vertex_count
    pairs = ids[:, edge_ends(g)]  # copy, edge of g, end
    at = edge_ids(edge_ends(p.graph), n, pairs[..., 0], pairs[..., 1])
    if (at < 0).any():
        raise LexhypError(f"edge {g.edges[int(np.argwhere(at < 0)[0, 1])]} "
                          "does not lift to a product edge")
    return np.concatenate([ids, n + at], axis=1)


def _copy_lemmas(p: ProductGraph, g1: Graph, g2: Graph) -> dict[str, tuple[int, list]]:
    """(instances, failures) of the three copy-lemma checks on the product
    `p` of g1 and g2, by check id, from one `j_hops` of the product and one
    of g2; empty when the product's S_4 grid is over `_fits_s4`, and without
    the geodesic-copy checks when g2 has no edge.

    `neighborhood_3_2`: every point of G1 o G2 lies within 3/2 of each copy
    G1 x {w}.  Exact on J points alone.  A vertex's nearest point on a
    closed edge is an end, so the distance f to the copy is a multiple of
    k = 4 hops at every vertex; along any other edge f is the tent
    min(i + A, k - i + B), |A - B| <= k, which peaks at i in {0, k/2, k}.
    No J point is nearer to a point inside a copy edge than to its ends or
    midpoint, so the copy's J points stand for the whole copy.

    `geodesic_copy_5_2` and `geodesic_copy_gt3` compare, for each copy
    {x0} x G2 and each pair of J(G2) points named by `keys`, ("v", v) and
    ("m", (a, b)), the `j_hops` distance in G2 with that in the product:
    equal up to 5/2 (and for two midpoints 3 apart), shorter beyond 3.
    """
    g = p.graph
    if not _fits_s4(g):
        return {}
    pair = _pair_tag(g1, g2)
    hops = j_hops(g)
    ids = np.arange(g1.vertex_count * g2.vertex_count).reshape(g1.vertex_count, g2.vertex_count)
    failures: list = []
    for w, copy in enumerate(_lift(p, g1, ids.T)):  # the copies G1 x {w}
        worst = int(hops[:, copy].min(axis=1).max())
        if worst > 6:
            _fail(failures, {"pair": pair, "w": w}, "every point within 3/2 of the copy",
                  f"{worst}/4")
    out = {"neighborhood_3_2": (g2.vertex_count, failures)}
    if not g2.m:
        return out
    keys = [("v", v) for v in range(g2.vertex_count)] + [("m", e) for e in g2.edges]
    i, j = np.triu_indices(len(keys), 1)
    lift = _lift(p, g2, ids)  # the copies {x0} x G2
    dprod = hops[lift[:, i], lift[:, j]]  # row x0: the key pairs' distances in its copy
    d2 = j_hops(g2)[i, j]
    mid = np.array([key[0] == "m" for key in keys])
    for cid, kept, wrong, want in (
            ("geodesic_copy_5_2", (d2 <= 10) | (mid[i] & mid[j] & (d2 == 12)), dprod != d2, "{}/4"),
            ("geodesic_copy_gt3", d2 > 12, dprod >= d2, "< {}/4")):
        failures = []
        for x0, r in np.argwhere(kept & wrong).tolist():
            _fail(failures, {"pair": pair, "x0": x0, "y1": keys[i[r]], "y2": keys[j[r]]},
                  want.format(d2[r]), f"{dprod[x0, r]}/4")
        out[cid] = (len(dprod) * int(kept.sum()), failures)
    return out


# ---------------------------------------------------------------------------
# Product structure checks
# ---------------------------------------------------------------------------

@_register("dist_formula")
def _check_dist_formula(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g1, g2 in _lex_pairs(_small_pairs(corpus.pairs)):
        p = ctx.lex(g1, g2)
        searched, closed = p.graph.vertex_distances(), lex_distance_matrix(g1, g2)
        bad = np.argwhere(searched != closed)
        if bad.size:  # name the first mismatching pair; entries are hop counts
            a, b = bad[0].tolist()
            _fail(failures, {"pair": _pair_tag(g1, g2), "a": p.coords(a), "b": p.coords(b)},
                  int(searched[a, b]), int(closed[a, b]))
        instances += 1
    return instances, failures


@_register("edge_containment")
def _check_edge_containment(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g1, g2 in _small_pairs(corpus.pairs):
        cart = set(product(g1, g2, "cartesian").graph.edges)
        strong = set(product(g1, g2, "strong").graph.edges)
        lex = set(ctx.lex(g1, g2).graph.edges)
        if not (cart <= strong and strong <= lex):
            _fail(failures, {"pair": _pair_tag(g1, g2)},
                  "E(cartesian) <= E(strong) <= E(lexicographic)",
                  f"|cart\\strong|={len(cart - strong)}, |strong\\lex|={len(strong - lex)}")
        instances += 1
    return instances, failures


@_register("copy_isometry")
def _check_copy_isometry(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g1, g2 in _small_pairs(corpus.pairs):
        p = ctx.lex(g1, g2)
        for w in range(g2.vertex_count):
            emb = [p.vertex_id(u, w) for u in range(g1.vertex_count)]
            if not is_isometric_embedding(g1, p.graph, emb):
                _fail(failures, {"pair": _pair_tag(g1, g2), "w": w},
                      "copy G1 o {w} isometric", "distance mismatch")
            instances += 1
    return instances, failures


def _copy_entries(corpus: Corpus, ctx: SuiteContext, check_id: str):
    instances, failures = 0, []
    for g1, g2 in _lex_pairs(corpus.pairs):
        got, bad = ctx.copy_lemmas(g1, g2).get(check_id, (0, []))
        instances += got
        failures.extend(bad)
    return instances, failures


for _cid in ("neighborhood_3_2", "geodesic_copy_5_2", "geodesic_copy_gt3"):
    _register(_cid)(partial(_copy_entries, check_id=_cid))


@_register("projection_geodesic")
def _check_projection(corpus: Corpus, ctx: SuiteContext):
    """Far product geodesics project to G1 geodesics with no intra-copy step.

    One instance is one a-b geodesic (pairs with more than 20000 geodesics
    are skipped), but the claim is checked on the geodesic DAG, the union of
    all a-b geodesics.  Its edges are the directed product edges (x, y) with
    d(a, x) + 1 + d(y, b) = d(a, b), and every such edge lies on some
    geodesic.  So every geodesic avoids intra-copy steps and projects step by
    step onto G1 edges exactly when every DAG edge does.  Then each geodesic
    projects to a G1 walk of d(a, b) steps, which is a G1 geodesic exactly
    when d1(u_a, u_b) = d(a, b).  The lemma's "at least 3 projected
    vertices" clause is implied: d(a, b) > 3 here, and a G1 geodesic of that
    length has at least 5 vertices.
    """
    instances, failures = 0, []
    for g1, g2 in _lex_pairs(_small_pairs(corpus.pairs)):
        p = ctx.lex(g1, g2)
        g = p.graph
        dist = g.vertex_distances()
        d1 = g1.vertex_distances()
        first = np.arange(g.vertex_count) // g2.vertex_count
        src, dst = g.arcs().T
        far = np.argwhere(dist > 3)
        nbrs = [g.neighbors(v) for v in range(g.vertex_count)]
        for a, b in far[: 40].tolist():
            if a >= b:
                continue
            count = geodesic_count(nbrs, dist, a, b)
            if count > 20000:
                continue
            instances += count
            on_dag = dist[a, src] + 1 + dist[dst, b] == dist[a, b]
            x, y = first[src[on_dag]], first[dst[on_dag]]
            intra = int((x == y).sum())
            off_g1 = int(((x != y) & (d1[x, y] != 1)).sum())  # G1 edges: d1 == 1
            d1_ab = int(d1[first[a], first[b]])
            if intra or off_g1 or d1_ab != dist[a, b]:
                _fail(failures, {"pair": _pair_tag(g1, g2), "a": p.coords(a), "b": p.coords(b)},
                      "projection geodesic, no intra-copy edge",
                      f"intra-copy DAG edges={intra}, non-G1 DAG edges={off_g1}, "
                      f"d1={d1_ab}, d={int(dist[a, b])}")
    return instances, failures


def _isometric_subgraphs(g: Graph, rng_seed: int, want: int):
    """A few connected induced subgraphs of g that embed isometrically."""
    import random as _random
    rng = _random.Random(rng_seed)
    out = []
    dist = g.vertex_distances()
    tries = 0
    while len(out) < want and tries < 30:
        tries += 1
        size = rng.randint(1, g.vertex_count)
        root = rng.randrange(g.vertex_count)
        verts = sorted(v for v in range(g.vertex_count) if dist[root, v] <= 1 + size // 2)[:size]
        if not verts:
            continue
        sub = induced_subgraph(g, verts)
        if not sub.is_connected():
            continue
        if is_isometric_embedding(sub, g, verts):
            out.append((sub, verts))
    return out


@_register("isometric_subproduct")
def _check_isometric_subproduct(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for idx, (g1, g2) in enumerate(corpus.pairs):
        if g1.is_trivial() or g1.vertex_count * g2.vertex_count > 200:
            continue
        p = ctx.lex(g1, g2)
        subs1 = [(s, v) for s, v in _isometric_subgraphs(g1, 1000 + idx, 2) if not s.is_trivial()]
        subs2 = _isometric_subgraphs(g2, 2000 + idx, 2)
        for s1, v1 in subs1:
            for s2, v2 in subs2:
                small = product(s1, s2, LEXICOGRAPHIC)
                emb = [p.vertex_id(v1[u], v2[v])
                       for u in range(s1.vertex_count) for v in range(s2.vertex_count)]
                assert [small.vertex_id(u, v) for u in range(s1.vertex_count)
                        for v in range(s2.vertex_count)] == list(range(small.graph.vertex_count))
                instances += 1
                if not is_isometric_embedding(small.graph, p.graph, emb):
                    _fail(failures, {"pair": _pair_tag(g1, g2), "v1": v1, "v2": v2},
                          "sub-product isometric", "distance mismatch")
    return instances, failures


# ---------------------------------------------------------------------------
# Bound checks (exact engine on capped pairs)
# ---------------------------------------------------------------------------

def _bound_entries(corpus: Corpus, ctx: SuiteContext, names: tuple[str, ...]):
    instances, failures = 0, []
    for g1, g2 in _lex_pairs(ctx.delta_pairs(corpus)):
        report = bound_check(g1, g2, ctx.delta(ctx.lex(g1, g2).graph), ctx.delta(g1))
        hit = [e for e in report.entries if e.name in names]
        for e in hit:
            instances += 1
            if not e.ok:
                _fail(failures, {"pair": _pair_tag(g1, g2), "bound": e.name},
                      "bound holds", e.detail)
    return instances, failures


_BOUND_CHECKS = {  # check id -> the `bound_check` entries it reads
    "sandwich_bounds": ("sandwich_lower", "sandwich_upper"),
    "lower_bound_1": ("both_nontrivial_ge_1",),
    "lower_bound_5_4_diamV2": ("diam_v_g1_2_ge_5_4",),
    "lower_bound_3_2_diamV3": ("diam_v_g1_ge_3_ge_3_2",),
    "lower_bound_5_4_diamG2": ("diam_g2_gt_2_ge_5_4",),
}
for _cid, _names in _BOUND_CHECKS.items():
    _register(_cid)(partial(_bound_entries, names=_names))


@_register("upper_bound_tightness")
def _check_tightness(corpus: Corpus, ctx: SuiteContext):
    # contrapositive: a non-tree first factor keeps the product strictly
    # below delta(G1) + 3/2
    instances, failures = 0, []
    for g1, g2 in _lex_pairs(ctx.delta_pairs(corpus)):
        if g1.is_tree():
            continue
        dprod = ctx.delta(ctx.lex(g1, g2).graph)
        dg1 = ctx.delta(g1)
        instances += 1
        if not dprod < dg1 + THREE_HALVES:
            _fail(failures, {"pair": _pair_tag(g1, g2)},
                  f"< {dg1 + THREE_HALVES}", dprod)
    return instances, failures


# ---------------------------------------------------------------------------
# Engine self-consistency on singles
# ---------------------------------------------------------------------------

def _delta_subjects(corpus: Corpus, ctx: SuiteContext):
    seen = set()
    for g in corpus.graphs:
        if g not in seen:
            seen.add(g)
            yield g
    for g1, g2 in ctx.delta_pairs(corpus):
        p = ctx.lex(g1, g2).graph
        if p not in seen:
            seen.add(p)
            yield p


@_register("quarter_multiple")
def _check_quarter(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g in _delta_subjects(corpus, ctx):
        val = ctx.delta(g)
        instances += 1
        if (4 * val.as_fraction).denominator != 1:
            _fail(failures, {"graph": repr(g)}, "multiple of 1/4", val)
    return instances, failures


@_register("delta_diam_half")
def _check_diam_half(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g in _delta_subjects(corpus, ctx):
        val = ctx.delta(g)
        bound = diam_g(g)
        instances += 1
        if 2 * val.quarters > bound.quarters:
            _fail(failures, {"graph": repr(g)}, f"delta <= {bound}/2", val)
    return instances, failures


@_register("witness_validity")
def _check_witness(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g in corpus.graphs:
        res = ctx.result(g)
        re_val, _ = thinness(res.grid, res.witness)
        instances += 1
        if re_val != res.value:
            _fail(failures, {"graph": repr(g)}, res.value, re_val)
    return instances, failures


@_register("tree_delta_zero")
def _check_tree_zero(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g in corpus.graphs:
        if not g.is_tree():
            continue
        val = ctx.delta(g)
        instances += 1
        if val.quarters != 0:
            _fail(failures, {"graph": repr(g)}, "0", val)
    return instances, failures


@_register("cycle_delta_n_4")
def _check_cycles(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g in corpus.graphs:
        n = g.vertex_count
        if n < 3 or g != cycle_graph(n):
            continue
        val = ctx.delta(g)
        instances += 1
        if val != QDist(n):
            _fail(failures, {"graph": f"cycle:{n}"}, QDist(n), val)
    return instances, failures


@_register("grid_stability_S8")
def _check_grid_stability(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g in corpus.graphs:
        if g.vertex_count + 7 * g.m > 1000:
            continue
        v4 = ctx.delta(g)
        v8 = delta_exact(g, DeltaConfig(grid_factor=8)).value
        instances += 1
        if v4 != v8:
            _fail(failures, {"graph": repr(g)}, f"S4 value {v4}", f"S8 value {v8}")
    return instances, failures


@_register("cycle_only_equivalence")
def _check_cycle_only(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g in corpus.graphs:
        vt = ctx.delta(g)  # delta() restricts the witness to cycle triangles by default
        vf = ctx.engine(g).delta(cycle_only=False).value
        instances += 1
        if vt != vf:
            _fail(failures, {"graph": repr(g)}, f"cycle_only {vt}", f"unrestricted {vf}")
    return instances, failures


@_register("bigon_lower_bound")
def _check_bigon(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g in corpus.graphs:
        lo = ctx.engine(g).bigon_lower_bound()
        hi = ctx.delta(g)
        instances += 1
        if not lo <= hi:
            _fail(failures, {"graph": repr(g)}, f"bigon <= {hi}", lo)
    return instances, failures


@_register("block_decomposition")
def _check_blocks(corpus: Corpus, ctx: SuiteContext):
    """delta of a graph with a cut vertex is the largest delta of its blocks
    (Rodriguez and Touris, "Gromov hyperbolicity through decomposition of
    metric spaces", 2004), and 0 when no block has three vertices, as in a
    tree.  The engine sweeps such a graph only inside its blocks; each block
    here is an induced subgraph without a cut vertex, swept whole."""
    instances, failures = 0, []
    for g in corpus.graphs:
        blocks = g.blocks()
        if len(blocks) <= 1:
            continue
        want = max((ctx.delta(induced_subgraph(g, b)) for b in blocks if len(b) >= 3),
                   default=QDist(0))
        instances += 1
        if ctx.delta(g) != want:
            _fail(failures, {"graph": repr(g), "blocks": [list(b) for b in blocks]},
                  f"largest block delta {want}", ctx.delta(g))
    return instances, failures


@_register("isometric_monotonicity")
def _check_monotonicity(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for idx, g in enumerate(corpus.graphs):
        if g.vertex_count < 2:
            continue
        for sub, verts in _isometric_subgraphs(g, 3000 + idx, 2):
            instances += 1
            if not ctx.delta(sub) <= ctx.delta(g):
                _fail(failures, {"graph": repr(g), "subset": verts},
                      f"delta(sub) <= {ctx.delta(g)}", ctx.delta(sub))
    return instances, failures


# ---------------------------------------------------------------------------
# Fixed-value examples
# ---------------------------------------------------------------------------

def _p2_examples(corpus: Corpus, ctx: SuiteContext, spec: tuple):
    family, make, table = spec
    instances, failures = 0, []
    for n, want in table.items():
        got = ctx.delta(ctx.lex(make(n), path_graph(2)).graph)
        instances += 1
        if got != want:
            _fail(failures, {"product": f"{family}:{n} o path:2"}, want, got)
    return instances, failures


_P2_EXAMPLES = {  # check id -> G1 family, its generator, delta(G1(n) o P2) by n
    "examples_Pn_P2": ("path", path_graph, {2: QDist(4), 3: QDist(5), 4: QDist(6), 5: QDist(6)}),
    "examples_Cn_P2": ("cycle", cycle_graph, {3: QDist(4), 4: QDist(5), 5: QDist(5), 6: QDist(6)}),
}
for _cid, _spec in _P2_EXAMPLES.items():
    _register(_cid)(partial(_p2_examples, spec=_spec))


@_register("example_complete")
def _check_complete(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for m, n in ((2, 2), (2, 3), (3, 3)):
        p = product(complete_graph(m), complete_graph(n), LEXICOGRAPHIC).graph
        if p != complete_graph(m * n):
            _fail(failures, {"product": f"complete:{m} o complete:{n}"},
                  f"K_{m * n}", repr(p))
        got = ctx.delta(p)
        instances += 1
        if got != ONE:
            _fail(failures, {"product": f"complete:{m} o complete:{n}"}, ONE, got)
    return instances, failures


# ---------------------------------------------------------------------------
# Classifier checks
# ---------------------------------------------------------------------------

@_register("tree_lex_oracle")
def _check_tree_oracle(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g1, g2 in ctx.delta_pairs(corpus):
        if not g1.is_tree():
            continue
        table = _tree_lex_case(g1, g2, ctx.in_family)
        engine = ctx.delta(ctx.lex(g1, g2).graph)
        instances += 1
        if table.value != engine:
            _fail(failures, {"pair": _pair_tag(g1, g2), "case": table.case_id},
                  engine, table.value)
    return instances, failures


@_register("F_characterization")
def _check_f_char(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    TWO = QDist.from_edges(2)
    for g1, g2 in _lex_pairs(ctx.delta_pairs(corpus)):
        if not g1.is_tree() or g2.is_trivial():
            continue
        d1 = diam_v(g1)
        if not ONE <= d1 <= TWO:
            continue
        member = ctx.in_family(g2)
        val = ctx.delta(ctx.lex(g1, g2).graph)
        instances += 1
        if (val == THREE_HALVES) != member:
            _fail(failures, {"pair": _pair_tag(g1, g2)},
                  f"delta=3/2 iff member (member={member})", val)
    return instances, failures


@_register("f_triangle_lemma")
def _check_f_triangle(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for g in corpus.graphs:
        if not _fits_s4(g):
            continue
        member = ctx.in_family(g)
        triangle = ctx.engine(g).has_tight_short_triangle()
        instances += 1
        if member != triangle:
            _fail(failures, {"graph": repr(g)},
                  f"membership {member}", f"short-triangle sweep {triangle}")
    return instances, failures


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_suite(corpus: Corpus, checks: Optional[list[str]] = None) -> SuiteReport:
    """Run the selected checks (all by default) and aggregate a report."""
    selected = sorted(CHECKS) if checks is None else list(checks)
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise LexhypError(f"unknown check ids: {unknown}")
    ctx = SuiteContext(product_cap=corpus.spec.product_cap, singles=corpus.graphs)
    results = {}
    for cid in selected:
        t0 = time.perf_counter()
        try:
            instances, failures = CHECKS[cid](corpus, ctx)
        except Exception as exc:  # a crash is a failing check, not a crash of the suite
            instances, failures = 0, [{"inputs": "check raised", "expected": "no exception",
                                       "actual": repr(exc)}]
        millis = int(1000 * (time.perf_counter() - t0))
        results[cid] = CheckResult(
            check_id=cid,
            status="pass" if not failures else "fail",
            instances=instances,
            failures=failures,
            millis=millis,
        )
    return SuiteReport(results=results)
