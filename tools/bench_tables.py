"""Time `delta_exact` and the verification suite, and write a BENCH json.

Run from the root of a checkout, with `src` on the path:

    PYTHONPATH=src python3 tools/bench_tables.py --out BENCH_shared_engine.json \\
        --parent PARENT --parent-commit REV

`delta_exact` runs each graph in a fresh process (`--delta-one NAME`), so
that `ru_maxrss_mb`, the process's peak resident memory, belongs to that
graph alone: best of 3 calls, with `tables_built`, `table_bytes`,
`sides_exact` (side vectors computed from tables) and the value.  The
graphs are four products and `cycle:1000`, a sparse grid of 4000 points
where the grid hop matrix outweighs the tables.  The
factors' automorphism search runs in the first call and is cached on the
factors, so the best of 3 leaves it out.

The suite record runs `lexhyp verify --seed 0` (`run_suite` on the default
corpus of seed 0, every check) three times in a fresh process
(`--suite-one`), after building the catalog: the S_k grids built per k
(`SubdividedGraph` constructions), the per-source tables built
(`j_source_table` calls from the delta engine) and the geodesic
enumerations (`enumerate_paths` calls from the delta engine), all counted
in the first run, and the best wall time of the other two.  `ROUNDS` (5)
pairs of such processes run, one per checkout, alternating which checkout
goes first.  Per checkout the record keeps the counts of its first process
and the nearest-rank quartiles (`q1`, `median`, `q3`) of the processes'
best wall times, `best_wall_s`.  Per-check seconds are left out:
at this run count they are too noisy to compare single checks.

"after" runs on this checkout's `src`, "before" on PARENT/src, a checkout
of the commit REV; both run this script, so only the library differs.
Every process runs with one BLAS thread (`OMP_NUM_THREADS`,
`OPENBLAS_NUM_THREADS` and `MKL_NUM_THREADS` set to 1), as perfbench's
workers do.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

from lexhyp import cycle_graph, delta_exact, path_graph, product

GRAPHS = {
    "lex(P6,C5)": lambda: product(path_graph(6), cycle_graph(5)).graph,
    "lex(P8,C6)": lambda: product(path_graph(8), cycle_graph(6)).graph,
    "lex(P12,C8)": lambda: product(path_graph(12), cycle_graph(8)).graph,
    "lex(P16,C8)": lambda: product(path_graph(16), cycle_graph(8)).graph,
    "cycle:1000": lambda: cycle_graph(1000),
}
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
ROUNDS = 5  # alternating suite process pairs


def best_of(reps: int, fn) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def delta_one(name: str) -> dict:
    g = GRAPHS[name]()
    res = []

    def call():
        res[:] = [delta_exact(g)]  # only the last result stays alive

    secs = best_of(3, call)
    st = res[-1].stats
    return {"best_s": round(secs, 3), "tables_built": st.tables_built,
            "table_bytes": st.table_bytes, "sides_exact": st.sides_exact,
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

    def counted_init(self, base, k):
        grids[f"S_{k}"] = grids.get(f"S_{k}", 0) + 1
        init(self, base, k)

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
    done = subprocess.run([sys.executable, __file__, *args],
                          env=dict(os.environ, PYTHONPATH=src, **ONE_THREAD),
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def suite_runs(srcs: dict) -> dict:
    """`suite_one` for each named `src` in ROUNDS rounds of fresh processes,
    alternating the order: the counts of the first, the quartiles of the walls."""
    runs: dict = {name: [] for name in srcs}
    for r in range(ROUNDS):
        for name, src in (list(srcs.items()) if r % 2 == 0 else list(srcs.items())[::-1]):
            runs[name].append(_fresh(src, "--suite-one"))
    out = {}
    for name, got in runs.items():
        walls = sorted(run["best_wall_s"] for run in got)
        q1, median, q3 = (walls[math.ceil(len(walls) * i / 4) - 1] for i in (1, 2, 3))
        out[name] = dict(got[0], best_wall_s={"q1": q1, "median": median, "q3": q3})
    return out


def delta_runs(src: str) -> dict:
    """`delta_one` for every graph of GRAPHS, each in a fresh process on `src`."""
    return {name: _fresh(src, "--delta-one", name) for name in GRAPHS}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the BENCH json here")
    ap.add_argument("--parent", help="checkout of the parent commit, for delta_exact before")
    ap.add_argument("--parent-commit", default="", help="the parent checkout's commit id")
    ap.add_argument("--delta-one", choices=GRAPHS, help="print one delta_exact run as json")
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
