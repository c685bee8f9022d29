"""Time `delta_exact` and the verification suite, and write a BENCH json.

Run from the root of a checkout, with `src` on the path:

    PYTHONPATH=src python3 tools/bench_tables.py --out BENCH_shared_engine.json \\
        --parent PARENT --parent-commit REV

`delta_exact` runs each graph in a fresh process (`--delta-one NAME`), so
that `ru_maxrss_mb`, the process's peak resident memory, belongs to that
graph alone: best of 3 calls, `best_s`, with `tables_built`, `table_bytes`,
`sides_exact` (side vectors computed from tables), `witness_s` and
`geodesic_s` (the witness search and its geodesic enumeration, from the
best call), `hop_dtype` (the grid hop matrix's dtype) and the value.  Each
call's result is dropped before the next call starts, so the peak is that
of one call, not of one call plus the grid and hop matrix of the last.  The
graphs are four products and `cycle:1000`, a sparse grid of 4000 points
where the grid hop matrix outweighs the tables.  The factors' automorphism
search runs in the first call and is cached on the factors, so the best of
3 leaves it out.

The suite record runs `lexhyp verify --seed 0` (`run_suite` on the default
corpus of seed 0, every check) three times in a fresh process
(`--suite-one`), after building the catalog: the S_k grids built per k
(`SubdividedGraph` constructions), the per-source tables built
(`j_source_table` calls from the delta engine) and the geodesic
enumerations (`enumerate_geodesics` calls from the delta engine), all
counted in the first run, and the best wall time of the other two,
`best_wall_s`.

Each record, per graph and for the suite, comes from `ROUNDS` (5) pairs
of fresh processes, one per checkout, alternating which checkout goes
first, so that drift on a shared machine falls on both.  Per checkout it
keeps the first process's record, with its time replaced by the
nearest-rank quartiles (`q1`, `median`, `q3`) of all the processes'.
Per-check seconds are left out: at this run count they are too noisy to
compare single checks.

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
ROUNDS = 5  # alternating process pairs per record


def delta_one(name: str, reps: int = 3) -> dict:
    g = GRAPHS[name]()
    runs = []  # (seconds, stats, quarters) of each call
    for _ in range(reps):
        t0 = time.perf_counter()
        res = delta_exact(g)
        runs.append((time.perf_counter() - t0, res.stats, res.value.quarters))
        hop_dtype = str(res.grid.hops().dtype)
        del res  # its grid, with the hop matrix, goes before the next call
    secs, st, quarters = min(runs, key=lambda run: run[0])
    return {"best_s": round(secs, 3), "tables_built": st.tables_built,
            "table_bytes": st.table_bytes, "sides_exact": st.sides_exact,
            "triples_examined": st.triples_examined, "witness_s": round(st.witness_s, 4),
            "geodesic_s": round(st.geodesic_s, 4), "hop_dtype": hop_dtype, "quarters": quarters,
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def suite_one(reps: int = 3) -> dict:
    import lexhyp.delta
    from lexhyp import CorpusSpec, SubdividedGraph, generate_corpus, get_catalog, run_suite

    grids: dict[str, int] = {}
    tables, paths = [0], [0]
    init, table = SubdividedGraph.__init__, lexhyp.delta.j_source_table
    enumerate_fn = lexhyp.delta.enumerate_geodesics

    def counted_init(self, base, k):
        grids[f"S_{k}"] = grids.get(f"S_{k}", 0) + 1
        init(self, base, k)

    def counted_table(s, a):
        tables[0] += 1
        return table(s, a)

    def counted_enumerate(*args):
        paths[0] += 1
        return enumerate_fn(*args)

    get_catalog()
    corpus = generate_corpus(CorpusSpec(seed=0))
    SubdividedGraph.__init__, lexhyp.delta.j_source_table = counted_init, counted_table
    lexhyp.delta.enumerate_geodesics = counted_enumerate
    try:
        report = run_suite(corpus)
    finally:
        SubdividedGraph.__init__, lexhyp.delta.j_source_table = init, table
        lexhyp.delta.enumerate_geodesics = enumerate_fn
    walls = []
    for _ in range(reps - 1):
        t0 = time.perf_counter()
        run_suite(corpus)
        walls.append(time.perf_counter() - t0)
    return {"all_pass": report.all_pass, "grids_built": dict(sorted(grids.items())),
            "tables_built": tables[0], "enumerate_calls": paths[0], "best_wall_s": round(min(walls), 3),
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def _fresh(src: str, *args: str) -> dict:
    """This script's json output, run with `args` in a fresh process on `src`."""
    done = subprocess.run([sys.executable, __file__, *args],
                          env=dict(os.environ, PYTHONPATH=src, **ONE_THREAD),
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def paired_runs(srcs: dict, args: tuple, key: str) -> dict:
    """This script's record for `args` from each named `src`, in ROUNDS rounds
    of fresh processes, alternating the order: per name, the record of its
    first process with `key` replaced by the quartiles of every process's."""
    runs: dict = {name: [] for name in srcs}
    for r in range(ROUNDS):
        for name, src in (list(srcs.items()) if r % 2 == 0 else list(srcs.items())[::-1]):
            runs[name].append(_fresh(src, *args))
    out = {}
    for name, got in runs.items():
        vals = sorted(run[key] for run in got)
        q1, median, q3 = (vals[math.ceil(len(vals) * i / 4) - 1] for i in (1, 2, 3))
        out[name] = dict(got[0], **{key: {"q1": q1, "median": median, "q3": q3}})
    return out


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
    srcs = {"after": os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")}
    record = {
        "command": (f"PYTHONPATH=src python3 tools/bench_tables.py --out {args.out or '-'}"
                    " --parent PARENT --parent-commit REV"),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "processor": platform.machine()},
    }
    if args.parent:
        record["parent_commit"] = args.parent_commit
        srcs["before"] = os.path.join(args.parent, "src")
    deltas = {name: paired_runs(srcs, ("--delta-one", name), "best_s") for name in GRAPHS}
    suites = paired_runs(srcs, ("--suite-one",), "best_wall_s")
    for side in srcs:
        record[f"delta_exact_{side}"] = {name: got[side] for name, got in deltas.items()}
        record[f"suite_{side}"] = suites[side]
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")


if __name__ == "__main__":
    main()
