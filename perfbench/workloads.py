"""The benchmark's workloads: inputs drawn from a seed, the timed operations,
and the checks run on every output outside the timed region.

ladder    six fixed graphs of growing cost through `delta_exact`
sandwich  many small lexicographic products, as in acceptance criterion 07
verify    the verification suite, driven in-process through `lexhyp.cli.main`

Every call into lexhyp goes through the package namespace at call time
(`lexhyp.delta_exact(...)`), so the traced run sees it once it has patched
that namespace.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import lexhyp
import lexhyp.cli
import lexhyp.suite


class CheckFailed(Exception):
    """An output that the benchmark's checks reject."""


@dataclass
class OpResult:
    name: str
    seconds: float
    error: Optional[str] = None
    values: dict = field(default_factory=dict)
    probe_s: Optional[float] = None  # machine-speed probe around the operation


def run_op(name: str, call: Callable, check: Callable, span=contextlib.nullcontext,
           speed=None) -> OpResult:
    """Time `call` inside `span(name)`, then check its output untimed, then
    probe the machine's speed if `speed` is given.

    A raising call or check is a failed operation, not a failed benchmark.
    """
    t0 = perf_counter()
    try:
        with span(name):
            out = call()
    except Exception as exc:
        op = OpResult(name, perf_counter() - t0, error=f"raised {exc!r}")
    else:
        op = OpResult(name, perf_counter() - t0)
        try:
            op.values = check(out)
        except Exception as exc:
            op.error = f"check: {exc}"
    if speed is not None:
        op.probe_s = speed.after_op()
    return op


def check_witness(res) -> None:
    """The witness attains the value, and is a cycle triangle when delta > 0.

    This shows only that the value is attained; nothing here bounds delta
    from above, so a value that is too small but has a valid witness passes.
    """
    got, _ = lexhyp.thinness(res.grid, res.witness)
    if got != res.value:
        raise CheckFailed(f"witness thinness {got} != value {res.value}")
    if res.value.quarters > 0 and not res.witness.is_cycle:
        raise CheckFailed("witness is not a cycle triangle")


def relabel(g, rng: random.Random):
    """An isomorphic copy of `g` under a random vertex permutation."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return lexhyp.Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rung:
    name: str
    graph: object
    factors: Optional[tuple] = None  # (G1, G2) when the rung is lex(G1, G2)
    expected_quarters: Optional[int] = None


def ladder_rungs(seed: int) -> list[Rung]:
    rng = random.Random(seed)
    P, C, K = lexhyp.path_graph, lexhyp.cycle_graph, lexhyp.complete_graph

    def lex(name, g1, g2):
        return Rung(name, lexhyp.product(g1, g2).graph, (g1, g2))

    return [
        Rung("cycle-200", C(200), expected_quarters=200),  # delta(C_n) = n/4
        Rung("random-40", lexhyp.random_connected(40, rng)),
        lex("lex-P3-K6", P(3), K(6)),
        lex("lex-P4-C6", P(4), C(6)),
        lex("lex-C10-P3", C(10), P(3)),
        lex("lex-P6-C5", P(6), C(5)),
    ]


def check_rung(rung: Rung, res) -> dict:
    check_witness(res)
    if rung.expected_quarters is not None and res.value.quarters != rung.expected_quarters:
        raise CheckFailed(f"delta {res.value.quarters}/4 != expected {rung.expected_quarters}/4")
    if rung.factors is not None:
        g1, g2 = rung.factors
        if g1.is_tree():
            table = lexhyp.tree_lex_delta(g1, g2).value
            if table != res.value:
                raise CheckFailed(f"delta {res.value} != tree formula {table}")
        report = lexhyp.bound_check(g1, g2, res.value, lexhyp.delta_exact(g1).value)
        if not report.ok:
            raise CheckFailed(f"bounds violated: {[e.name for e in report.violations]}")
    return {"quarters": res.value.quarters}


class Ladder:
    name = "ladder"

    def __init__(self, rungs: list[Rung]):
        self.rungs = rungs

    def run_pass(self, span=contextlib.nullcontext, speed=None):
        ops = [run_op(r.name, lambda r=r: lexhyp.delta_exact(r.graph),
                      lambda res, r=r: check_rung(r, res), span, speed)
               for r in self.rungs]
        return sum(o.seconds for o in ops), ops

    def detail(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# sandwich
# ---------------------------------------------------------------------------

SANDWICH_CORPUS_SEEDS = range(5)
SANDWICH_PRODUCT_CAP = 20


def sandwich_pairs(seed: int, corpus_seeds=SANDWICH_CORPUS_SEEDS,
                   cap: int = SANDWICH_PRODUCT_CAP) -> list[tuple]:
    """The criterion-07 corpus pairs with a product of at most `cap`
    vertices, each factor relabeled and the order shuffled by `seed`.

    The pool is fixed and only the labels and order come from the seed, so
    every seed costs about the same while the engine sees new vertex ids.
    Instance names index the fixed pool, so values diff across seeds.
    """
    pool = []
    for cs in corpus_seeds:
        corpus = lexhyp.generate_corpus(lexhyp.CorpusSpec(seed=cs, max_vertices=8, pair_count=40))
        pool += [(g1, g2) for g1, g2 in corpus.pairs
                 if not g1.is_trivial() and g1.vertex_count * g2.vertex_count <= cap]
    rng = random.Random(seed)
    pairs = [(f"pair-{i:03d}", relabel(g1, rng), relabel(g2, rng)) for i, (g1, g2) in enumerate(pool)]
    rng.shuffle(pairs)
    return pairs


def check_pair(g1, g2, out) -> dict:
    res_p, res_1, report = out
    check_witness(res_p)
    check_witness(res_1)
    if not report.ok:
        raise CheckFailed(f"bounds violated: {[e.name for e in report.violations]}")
    if g1.is_tree():
        table = lexhyp.tree_lex_delta(g1, g2).value
        if table != res_p.value:
            raise CheckFailed(f"delta {res_p.value} != tree formula {table}")
    return {"quarters": res_p.value.quarters, "g1_quarters": res_1.value.quarters}


class Sandwich:
    name = "sandwich"

    def __init__(self, pairs: list[tuple]):
        self.pairs = pairs
        self.delta_calls: list[float] = []

    def _op(self, g1, g2):
        p = lexhyp.product(g1, g2)
        t0 = perf_counter()
        res_p = lexhyp.delta_exact(p.graph)
        t1 = perf_counter()
        res_1 = lexhyp.delta_exact(g1)
        self.delta_calls += [t1 - t0, perf_counter() - t1]
        return res_p, res_1, lexhyp.bound_check(g1, g2, res_p.value, res_1.value)

    def run_pass(self, span=contextlib.nullcontext, speed=None):
        ops = [run_op(name, lambda a=g1, b=g2: self._op(a, b),
                      lambda out, a=g1, b=g2: check_pair(a, b, out), span, speed)
               for name, g1, g2 in self.pairs]
        return sum(o.seconds for o in ops), ops

    def detail(self) -> dict:
        return {"delta_calls": self.delta_calls}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify:
    """One `lexhyp verify --json` run per pass; an operation is one check.

    The input is fixed: the CLI's default corpus (seed 0) and check order.
    Across corpus seeds 0-5 the suite took 15-26 s. Shuffling the check order
    instead moved peak memory by 6% (0.2% in a fixed order), since memoised
    engine calls land on whichever check runs first. Either would swamp a
    regression bound, so the benchmark seed does not reach this workload.
    """

    name = "verify"

    def __init__(self, order: list[str], extra_args: tuple[str, ...] = ()):
        self.order = order
        self.argv = ["verify", "--json", "--seed", "0", "--checks", ",".join(order), *extra_args]

    def run_pass(self, span=contextlib.nullcontext, speed=None):
        checks = lexhyp.suite.CHECKS
        originals = dict(checks)
        times: dict[str, float] = {}
        probes: dict[str, float] = {}

        def timed(cid, fn):
            def run(corpus, ctx):
                t0 = perf_counter()
                try:
                    with span(cid):
                        return fn(corpus, ctx)
                finally:
                    times[cid] = perf_counter() - t0
                    if speed is not None:
                        probes[cid] = speed.after_op()
            return run

        for cid in self.order:
            checks[cid] = timed(cid, originals[cid])
        stdout = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = lexhyp.cli.main(self.argv)
        except Exception as exc:
            code = f"raised {exc!r}"
        finally:
            wall = perf_counter() - t0
            checks.update(originals)
        return wall, self._results(code, stdout.getvalue(), times, probes)

    def _results(self, code, text: str, times: dict, probes: dict) -> list[OpResult]:
        try:
            report = json.loads(text) if code in (0, 3) else {}
        except json.JSONDecodeError:
            report = {}
        ops = []
        for cid in self.order:
            got = report.get(cid)
            op = OpResult(cid, times.get(cid, 0.0), probe_s=probes.get(cid))
            if got is None:
                op.error = f"no report entry (exit {code})"
            elif got["status"] != "pass":
                op.error = f"check failed: {got['failures'][:1]}"
            else:
                op.values = {"instances": got["instances"]}
            ops.append(op)
        return ops

    def detail(self) -> dict:
        return {"order": self.order}


def build(name: str, seed: int):
    """Set-up: the catalog plus the workload's graphs or corpus."""
    lexhyp.get_catalog()
    if name == "ladder":
        return Ladder(ladder_rungs(seed))
    if name == "sandwich":
        return Sandwich(sandwich_pairs(seed))
    if name == "verify":
        return Verify(sorted(lexhyp.suite.CHECKS))
    raise ValueError(f"unknown workload {name!r}")
