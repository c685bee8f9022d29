"""Verification suite: every computable claim as a falsifiable check.

Each check compares two independently computed quantities (closed form vs
all-pairs search, table vs exact engine, ...) or a computed quantity
against a fixed constant, over a deterministic corpus.  A failing check never
aborts the run; failures become replayable report entries.

The copy-lemma checks (`neighborhood_3_2`, `geodesic_copy_5_2`,
`geodesic_copy_gt3`) read the S_4 metric of J(G) from `j_hops` and build no
grid: their extremes sit at vertices and edge midpoints (`_check_neighborhood`).
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
from .subdivision import diam_g, diam_v, edge_ids, j_hops
from .treeformula import bound_check, tree_lex_delta


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
    """Shared memoization across checks (exact deltas are the hot item).

    Each of the `singles`, the corpus graphs, keeps one default S_4
    `DeltaEngine` for the whole run, with its grid, tables and default
    result: the value checks, the witness, cycle-only, bigon and
    short-triangle checks all sweep these graphs, and share that engine
    whatever order they run in.  Every other graph, the products above all,
    keeps only its value: each is swept once, and keeping their engines as
    well raised the peak RSS of a `lexhyp verify --seed 0` run from 62.5 to
    90.0 MB, for the same grid and table counts.  The copy-lemma checks keep
    nothing: they read `j_hops`, exact for them as their extremes sit at J
    points.
    """

    def __init__(self, product_cap: int, singles: Iterable[Graph] = ()):
        self.product_cap = product_cap
        self._singles = frozenset(singles)
        self._engines: dict[Graph, DeltaEngine] = {}
        self._results: dict[Graph, DeltaResult] = {}
        self._delta: dict[Graph, QDist] = {}
        self._products: dict[tuple[Graph, Graph], ProductGraph] = {}

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


def _lift(p: ProductGraph, g: Graph, vid: Callable[[int], int]) -> np.ndarray:
    """Product J(G) indices of J(g), in J order, lifted by the vertex map
    `vid`; the midpoint of (a, b) goes to that of the product edge (vid(a), vid(b))."""
    ids = np.array([vid(v) for v in range(g.vertex_count)], dtype=np.intp)
    ends = ids[np.asarray(g.edges, dtype=np.intp).reshape(-1, 2)]
    at = edge_ids(p.graph, ends[:, 0], ends[:, 1])
    if (at < 0).any():
        raise LexhypError(f"edge {g.edges[int(np.argmax(at < 0))]} does not lift to a product edge")
    return np.concatenate([ids, p.graph.vertex_count + at])


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


@_register("neighborhood_3_2")
def _check_neighborhood(corpus: Corpus, ctx: SuiteContext):
    """Every point of G1 o G2 lies within 3/2 of each copy G1 x {w}.

    Exact on J points alone.  A vertex's nearest point on a closed edge is
    an end, so the distance f to the copy is a multiple of k = 4 hops at
    every vertex; along any other edge f is the tent min(i + A, k - i + B),
    |A - B| <= k, which peaks at i in {0, k/2, k}.  No J point is nearer to
    a point inside a copy edge than to its ends or midpoint, so the copy's
    J points stand for the whole copy.
    """
    instances, failures = 0, []
    for g1, g2 in _lex_pairs(corpus.pairs):
        p = ctx.lex(g1, g2)
        if not _fits_s4(p.graph):
            continue
        hops = j_hops(p.graph)
        for w in range(g2.vertex_count):
            worst = int(hops[:, _lift(p, g1, lambda u: p.vertex_id(u, w))].min(axis=1).max())
            if worst > 6:
                _fail(failures, {"pair": _pair_tag(g1, g2), "w": w},
                      "every point within 3/2 of the copy", f"{worst}/4")
            instances += 1
    return instances, failures


def _copy_distances(corpus: Corpus, ctx: SuiteContext):
    """(pair tag, keys, i, j, d2, dprod) per pair: `keys` name J(G2) in J
    order, ("v", v) and ("m", (a, b)); `d2` holds the `j_hops` distances in
    G2 of the key pairs (keys[i], keys[j]), i < j, and row x0 of `dprod`
    those in the product, lifted into the copy {x0} x G2."""
    for g1, g2 in _lex_pairs(corpus.pairs):
        p = ctx.lex(g1, g2)
        if not _fits_s4(p.graph) or not g2.m:
            continue
        keys = [("v", v) for v in range(g2.vertex_count)] + [("m", e) for e in g2.edges]
        i, j = np.triu_indices(len(keys), 1)
        lift = np.array([_lift(p, g2, partial(p.vertex_id, x0)) for x0 in range(g1.vertex_count)])
        dprod = j_hops(p.graph)[lift[:, i], lift[:, j]]
        yield _pair_tag(g1, g2), keys, i, j, j_hops(g2)[i, j], dprod


@_register("geodesic_copy_5_2")
def _check_geodesic_copy(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for pair, keys, i, j, d2, dprod in _copy_distances(corpus, ctx):
        mid = np.array([key[0] == "m" for key in keys])
        kept = (d2 <= 10) | (mid[i] & mid[j] & (d2 == 12))
        instances += len(dprod) * int(kept.sum())
        for x0, r in np.argwhere(kept & (dprod != d2)).tolist():
            _fail(failures, {"pair": pair, "x0": x0, "y1": keys[i[r]], "y2": keys[j[r]]},
                  f"{d2[r]}/4", f"{dprod[x0, r]}/4")
    return instances, failures


@_register("geodesic_copy_gt3")
def _check_geodesic_copy_far(corpus: Corpus, ctx: SuiteContext):
    instances, failures = 0, []
    for pair, keys, i, j, d2, dprod in _copy_distances(corpus, ctx):
        kept = d2 > 12
        instances += len(dprod) * int(kept.sum())
        for x0, r in np.argwhere(kept & (dprod >= d2)).tolist():
            _fail(failures, {"pair": pair, "x0": x0, "y1": keys[i[r]], "y2": keys[j[r]]},
                  f"< {d2[r]}/4", f"{dprod[x0, r]}/4")
    return instances, failures


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
        table = tree_lex_delta(g1, g2)
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
        member, _ = in_family_F(g2)
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
        member, _ = in_family_F(g)
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
