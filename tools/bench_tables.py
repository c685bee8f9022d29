"""Time the per-source bottleneck tables, `delta_exact` and the verification
suite, and write a BENCH json.

Run from the root of a checkout, with `src` on the path:

    PYTHONPATH=src python3 tools/bench_tables.py --out BENCH_shared_engine.json \\
        --parent PARENT --parent-commit REV

Per table, "before" is the grid DP (`farthest_geodesic_table` over the S_4
grid's arcs, J columns gathered C-contiguous, as the value sweep built its
tables before the base-graph kernel) and "after" is `j_source_table`; both
run in this checkout, with every per-grid cache warm, best of 5 passes over
all J-point sources.

`delta_exact` runs each graph in a fresh process (`--delta-one NAME`), so
that `ru_maxrss_mb`, the process's peak resident memory, belongs to that
graph alone: best of 3 calls, with `tables_built`, `table_bytes`,
`sides_exact` (side vectors computed from tables; null on checkouts that
do not count them) and the value.  The factors' automorphism search runs
in the first call and is cached on the factors, so the best of 3 leaves it
out.

The suite record runs `lexhyp verify --seed 0` (`run_suite` on the default
corpus of seed 0, every check) three times in a fresh process
(`--suite-one`), after building the catalog: the S_k grids built per k
(`SubdividedGraph` constructions), the per-source tables built
(`j_source_table` calls from the delta engine) and the geodesic
enumerations (`enumerate_paths` calls from the delta engine), all counted
in the first run, and the best wall time of the other two.  Three such processes run per
checkout, alternating between the two checkouts, and the record keeps the
best wall time of the three.  Per-check seconds are left out: at this run
count they are too noisy to compare single checks.

"after" runs on this checkout's `src`, "before" on PARENT/src, a checkout
of the commit REV; both run this script, so only the library differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

from lexhyp import cycle_graph, delta_exact, path_graph, product, subdivide
from lexhyp.graph import neighbor_arcs

GRAPHS = {
    "lex(P6,C5)": lambda: product(path_graph(6), cycle_graph(5)).graph,
    "lex(P8,C6)": lambda: product(path_graph(8), cycle_graph(6)).graph,
    "cycle-200": lambda: cycle_graph(200),
    "lex(P2,C5)": lambda: product(path_graph(2), cycle_graph(5)).graph,
    "lex(P12,C8)": lambda: product(path_graph(12), cycle_graph(8)).graph,
    "lex(P16,C8)": lambda: product(path_graph(16), cycle_graph(8)).graph,
}
TABLE_GRAPHS = ("lex(P6,C5)", "lex(P8,C6)", "cycle-200", "lex(P2,C5)")
DELTA_GRAPHS = ("lex(P6,C5)", "lex(P8,C6)", "lex(P12,C8)", "lex(P16,C8)")


def best_of(reps: int, fn) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def table_ms() -> dict:
    # imported here: `--delta-one` also runs on checkouts without the kernel
    from lexhyp.geodesics import farthest_geodesic_table, j_source_table

    out = {}
    for name in TABLE_GRAPHS:
        s = subdivide(GRAPHS[name](), 4)
        hops, j = s.hops(), np.asarray(s.j_set)
        arcs = neighbor_arcs(s._neighbors)
        s.chains()

        def grid():
            for a in s.j_set:
                np.ascontiguousarray(farthest_geodesic_table(hops, arcs, a)[:, j])

        def base():
            for a in s.j_set:
                j_source_table(s, a)

        out[name] = {"grid_points": s.grid_n, "j_points": len(j),
                     "before_ms": round(1e3 * best_of(5, grid) / len(j), 3),
                     "after_ms": round(1e3 * best_of(5, base) / len(j), 3)}
    return out


def delta_one(name: str) -> dict:
    g = GRAPHS[name]()
    res = []

    def call():
        res[:] = [delta_exact(g)]  # only the last result stays alive

    secs = best_of(3, call)
    st = res[-1].stats
    return {"best_s": round(secs, 3), "tables_built": st.tables_built,
            "table_bytes": st.table_bytes, "sides_exact": getattr(st, "sides_exact", None),
            "triples_examined": st.triples_examined,
            "quarters": res[-1].value.quarters,
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def suite_one(reps: int = 3) -> dict:
    import lexhyp.delta
    from lexhyp import CorpusSpec, SubdividedGraph, generate_corpus, get_catalog, run_suite

    grids: dict[str, int] = {}
    tables, paths = [0], [0]
    init, table = SubdividedGraph.__init__, lexhyp.delta.j_source_table
    enumerate_paths = lexhyp.delta.enumerate_paths

    def counted_init(self, base, k, *cap):  # a parent checkout may still pass a cap
        grids[f"S_{k}"] = grids.get(f"S_{k}", 0) + 1
        init(self, base, k, *cap)

    def counted_table(s, a):
        tables[0] += 1
        return table(s, a)

    def counted_paths(*args):
        paths[0] += 1
        return enumerate_paths(*args)

    get_catalog()
    corpus = generate_corpus(CorpusSpec(seed=0))
    SubdividedGraph.__init__, lexhyp.delta.j_source_table = counted_init, counted_table
    lexhyp.delta.enumerate_paths = counted_paths
    try:
        report = run_suite(corpus)
    finally:
        SubdividedGraph.__init__, lexhyp.delta.j_source_table = init, table
        lexhyp.delta.enumerate_paths = enumerate_paths
    walls = []
    for _ in range(reps - 1):
        t0 = time.perf_counter()
        run_suite(corpus)
        walls.append(time.perf_counter() - t0)
    return {"all_pass": report.all_pass, "grids_built": dict(sorted(grids.items())),
            "tables_built": tables[0], "enumerate_paths_calls": paths[0], "best_wall_s": round(min(walls), 3),
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def _fresh(src: str, *args: str) -> dict:
    """This script's json output, run with `args` in a fresh process on `src`."""
    done = subprocess.run([sys.executable, __file__, *args], env=dict(os.environ, PYTHONPATH=src),
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def suite_runs(srcs: dict, rounds: int = 3) -> dict:
    """`suite_one` for each named `src`, `rounds` times in fresh processes,
    alternating the order: the counts of the first, the best wall time of all."""
    out: dict = {}
    for r in range(rounds):
        for name, src in (list(srcs.items()) if r % 2 == 0 else list(srcs.items())[::-1]):
            got = _fresh(src, "--suite-one")
            best = out.setdefault(name, got)
            best["best_wall_s"] = min(best["best_wall_s"], got["best_wall_s"])
    return out


def delta_runs(src: str) -> dict:
    """`delta_one` for every graph of DELTA_GRAPHS, each in a fresh process on `src`."""
    return {name: _fresh(src, "--delta-one", name) for name in DELTA_GRAPHS}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the BENCH json here")
    ap.add_argument("--parent", help="checkout of the parent commit, for delta_exact before")
    ap.add_argument("--parent-commit", default="", help="the parent checkout's commit id")
    ap.add_argument("--delta-one", choices=DELTA_GRAPHS, help="print one delta_exact run as json")
    ap.add_argument("--suite-one", action="store_true", help="print the suite record as json")
    args = ap.parse_args()
    if args.delta_one:
        print(json.dumps(delta_one(args.delta_one)))
        return
    if args.suite_one:
        print(json.dumps(suite_one()))
        return
    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    record = {
        "command": (f"PYTHONPATH=src python3 tools/bench_tables.py --out {args.out or '-'}"
                    " --parent PARENT --parent-commit REV"),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "processor": platform.machine()},
        "table_ms_per_source": table_ms(),
        "delta_exact_after": delta_runs(here),
    }
    suites = {"suite_after": here}
    if args.parent:
        record["parent_commit"] = args.parent_commit
        record["delta_exact_before"] = delta_runs(os.path.join(args.parent, "src"))
        suites["suite_before"] = os.path.join(args.parent, "src")
    record.update(suite_runs(suites))
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")


if __name__ == "__main__":
    main()
