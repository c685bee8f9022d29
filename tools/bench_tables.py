"""Time `delta_exact`, the short-triangle predicate, `verify` and start-up; write a BENCH json.

Run from the root of a checkout, with `src` on the path:

    PYTHONPATH=src python3 tools/bench_tables.py --out BENCH_shared_engine.json \\
        --parent PARENT --parent-commit REV

`delta_exact` runs each graph in a fresh process (`--delta-one NAME`), so
that `ru_maxrss_mb`, the process's peak resident memory, belongs to that
graph alone: best of 3 calls, `best_s`, with `tables_built`, `table_bytes`,
`witness_tables` (the tables the witness search built; absent from a
checkout without that counter), `sides_exact` (side vectors computed from
tables), `masked_pairs` (the J-pairs whose corner masks were computed),
`geodesics_enumerated` (the geodesics counted on the witness search's
sides), `value_s`, `witness_s`, `geodesic_s`, `mask_s` and `orbit_s` (the
value sweep, the witness search and its geodesic enumeration, the corner
masks and the orbit roots, from the best call), `hop_dtype` (the grid hop
matrix's dtype) and the value.
Each call's result is dropped before the next call starts, so the peak is
that of one call, not of one call plus the grid and hop matrix of the last.
The graphs are five products, lex(C10,P3) among them, `cycle:200` (with
lex(C10,P3), the ladder rungs whose witness search cost most),
`cycle:1000`, a sparse grid of 4000 points where the grid hop matrix
outweighs the tables, and `random(450,7)`,
`random_connected(450, Random(7))`, whose cut vertices hang long pendant
trees off its blocks.  The factors' automorphism search runs in the first
call and is cached on the factors, so the best of 3 leaves it out.

The short-triangle record (`--short-one NAME`) times
`has_tight_short_triangle()` on a fresh `DeltaEngine` per call, the
engine's construction left out: best of 3, `best_s`, with that call's
`tables_built`, `table_bytes` and answer, and `ru_maxrss_mb`.  It runs on
every graph but the cycles, where the predicate reads every midpoint
pair; on `cycle:1000` it reads all 1000 pairs: a predicate that kept
the tables it built would hold 1000 tables of 16 MB, and one that holds
at most two builds 1001 of them in a call (about 23 s, 0.023 s a table).

The suite record runs `lexhyp verify --seed 0` (`run_suite` on the default
corpus of seed 0, every check) three times in a fresh process
(`--suite-one`), after building the catalog: the S_k grids built per k
(`SubdividedGraph` constructions), the per-source tables built
(`j_source_table` calls from the delta engine) and the geodesic
enumerations (`geodesic_walk` calls from the delta engine, or
`enumerate_geodesics` calls in a checkout without the lazy walk), all
counted in the first run, and the best wall time of the other two,
`best_wall_s`, with each check's `millis` in that run, `check_millis`.

The start-up record (`--start-one`) times, in a fresh process, `import
lexhyp` (`import_s`, numpy's import included) and the first
`get_catalog()` call after it (`catalog_s`), with `ru_maxrss_mb` and
`dont_write_bytecode`, Python's `sys.dont_write_bytecode`: where it is
true (as under `PYTHONDONTWRITEBYTECODE=1`) no `.pyc` file is written,
so a checkout without cached bytecode compiles lexhyp's sources in every
process, as part of `import_s`.

Each record, per graph, for the suite and for start-up, comes from
`ROUNDS` (5) pairs of fresh processes, one per checkout, alternating which
checkout goes first, so that drift on a shared machine falls on both.
Per checkout it keeps the first process's record, with its times and
`ru_maxrss_mb` replaced by the nearest-rank quartiles (`q1`, `median`,
`q3`) of all the processes' (the peak moves with the heap's layout, not
only with the memory in use, so one process's reading is no measure of
it).
The suite record's `check_millis` holds each check's median over the
processes, for information only: at this run count single checks are too
noisy to compare, and work moves between checks with what they share (the
first copy-lemma check to run pays for all three).

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
import random
import resource
import subprocess
import sys
import time

# lexhyp and numpy are imported where they are used, so that a --start-one
# process imports them first in its timed region
GRAPHS = {
    "lex(P6,C5)": lambda lx: lx.product(lx.path_graph(6), lx.cycle_graph(5)).graph,
    "lex(P8,C6)": lambda lx: lx.product(lx.path_graph(8), lx.cycle_graph(6)).graph,
    "lex(P12,C8)": lambda lx: lx.product(lx.path_graph(12), lx.cycle_graph(8)).graph,
    "lex(P16,C8)": lambda lx: lx.product(lx.path_graph(16), lx.cycle_graph(8)).graph,
    "lex(C10,P3)": lambda lx: lx.product(lx.cycle_graph(10), lx.path_graph(3)).graph,
    "cycle:200": lambda lx: lx.cycle_graph(200),
    "cycle:1000": lambda lx: lx.cycle_graph(1000),
    "random(450,7)": lambda lx: lx.random_connected(450, random.Random(7)),
}
SHORT_GRAPHS = [name for name in GRAPHS if not name.startswith("cycle:")]  # see --short-one
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
ROUNDS = 5  # alternating process pairs per record


def delta_one(name: str, reps: int = 3) -> dict:
    import lexhyp
    from lexhyp import delta_exact

    g = GRAPHS[name](lexhyp)
    runs = []  # (seconds, stats, quarters) of each call
    for _ in range(reps):
        t0 = time.perf_counter()
        res = delta_exact(g)
        runs.append((time.perf_counter() - t0, res.stats, res.value.quarters))
        hop_dtype = str(res.grid.hops().dtype)
        del res  # its grid, with the hop matrix, goes before the next call
    secs, st, quarters = min(runs, key=lambda run: run[0])
    out = {"best_s": round(secs, 3), "tables_built": st.tables_built,
           "table_bytes": st.table_bytes, "sides_exact": st.sides_exact,
           "triples_examined": st.triples_examined, "masked_pairs": st.masked_pairs,
           "geodesics_enumerated": st.geodesics_enumerated,
           "value_s": round(st.value_s, 4), "witness_s": round(st.witness_s, 4),
           "geodesic_s": round(st.geodesic_s, 4), "mask_s": round(st.mask_s, 4),
           "orbit_s": round(st.orbit_s, 4), "hop_dtype": hop_dtype, "quarters": quarters,
           "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    if hasattr(st, "witness_tables"):
        out["witness_tables"] = st.witness_tables
    return out


def short_one(name: str, reps: int = 3) -> dict:
    import lexhyp
    from lexhyp import DeltaEngine

    g = GRAPHS[name](lexhyp)
    runs = []  # (seconds, tables built, table bytes, answer) of each call
    for _ in range(reps):
        engine = DeltaEngine(g)
        t0 = time.perf_counter()
        got = engine.has_tight_short_triangle()
        runs.append((time.perf_counter() - t0, engine.stats.tables_built,
                     engine.stats.table_bytes, got))
        del engine  # its grid and tables go before the next call
    secs, tables, nbytes, got = min(runs, key=lambda run: run[0])
    return {"best_s": round(secs, 4), "tables_built": tables, "table_bytes": nbytes,
            "answer": got,
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def suite_one(reps: int = 3) -> dict:
    import lexhyp.delta
    from lexhyp import CorpusSpec, SubdividedGraph, generate_corpus, get_catalog, run_suite

    grids: dict[str, int] = {}
    tables, paths = [0], [0]
    init, table = SubdividedGraph.__init__, lexhyp.delta.j_source_table
    walk_name = "geodesic_walk" if hasattr(lexhyp.delta, "geodesic_walk") else "enumerate_geodesics"
    walk = getattr(lexhyp.delta, walk_name)

    def counted_init(self, base, k):
        grids[f"S_{k}"] = grids.get(f"S_{k}", 0) + 1
        init(self, base, k)

    def counted_table(s, a):
        tables[0] += 1
        return table(s, a)

    def counted_walk(*args):
        paths[0] += 1
        return walk(*args)

    get_catalog()
    corpus = generate_corpus(CorpusSpec(seed=0))
    SubdividedGraph.__init__, lexhyp.delta.j_source_table = counted_init, counted_table
    setattr(lexhyp.delta, walk_name, counted_walk)
    try:
        report = run_suite(corpus)
    finally:
        SubdividedGraph.__init__, lexhyp.delta.j_source_table = init, table
        setattr(lexhyp.delta, walk_name, walk)
    runs = []  # (wall, report) of each timed run
    for _ in range(reps - 1):
        t0 = time.perf_counter()
        got = run_suite(corpus)
        runs.append((time.perf_counter() - t0, got))
    wall, best = min(runs, key=lambda run: run[0])
    return {"all_pass": report.all_pass, "grids_built": dict(sorted(grids.items())),
            "tables_built": tables[0], "enumerate_calls": paths[0], "best_wall_s": round(wall, 3),
            "check_millis": {cid: r.millis for cid, r in sorted(best.results.items())},
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def start_one() -> dict:
    t0 = time.perf_counter()
    import lexhyp
    t1 = time.perf_counter()
    lexhyp.get_catalog()
    t2 = time.perf_counter()
    return {"import_s": round(t1 - t0, 4), "catalog_s": round(t2 - t1, 4),
            "dont_write_bytecode": sys.dont_write_bytecode,
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def _fresh(src: str, *args: str) -> dict:
    """This script's json output, run with `args` in a fresh process on `src`."""
    done = subprocess.run([sys.executable, __file__, *args],
                          env=dict(os.environ, PYTHONPATH=src, **ONE_THREAD),
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def paired_runs(srcs: dict, args: tuple, *keys: str) -> dict:
    """This script's record for `args` from each named `src`, in ROUNDS rounds
    of fresh processes, alternating the order: per name, the record of its
    first process with each of `keys` replaced by the quartiles of every
    process's, and its `check_millis`, if any, by each check's median."""
    runs: dict = {name: [] for name in srcs}
    for r in range(ROUNDS):
        for name, src in (list(srcs.items()) if r % 2 == 0 else list(srcs.items())[::-1]):
            runs[name].append(_fresh(src, *args))
    out = {}
    for name, got in runs.items():
        out[name] = dict(got[0], **{key: _quartiles([run[key] for run in got]) for key in keys})
        if "check_millis" in got[0]:
            out[name]["check_millis"] = {
                cid: _quartiles([run["check_millis"][cid] for run in got])["median"]
                for cid in got[0]["check_millis"]}
    return out


def _quartiles(vals: list) -> dict:
    """The nearest-rank quartiles of `vals`."""
    vals = sorted(vals)
    return {name: vals[math.ceil(len(vals) * i / 4) - 1]
            for name, i in (("q1", 1), ("median", 2), ("q3", 3))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the BENCH json here")
    ap.add_argument("--parent", help="checkout of the parent commit, for delta_exact before")
    ap.add_argument("--parent-commit", default="", help="the parent checkout's commit id")
    ap.add_argument("--delta-one", choices=GRAPHS, help="print one delta_exact run as json")
    ap.add_argument("--short-one", choices=SHORT_GRAPHS,
                    help="print one short-triangle predicate run as json")
    ap.add_argument("--suite-one", action="store_true", help="print the suite record as json")
    ap.add_argument("--start-one", action="store_true", help="print the start-up record as json")
    args = ap.parse_args()
    if args.delta_one:
        print(json.dumps(delta_one(args.delta_one)))
        return
    if args.short_one:
        print(json.dumps(short_one(args.short_one)))
        return
    if args.suite_one:
        print(json.dumps(suite_one()))
        return
    if args.start_one:
        print(json.dumps(start_one()))
        return
    import numpy as np

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
    rss = "ru_maxrss_mb"
    deltas = {name: paired_runs(srcs, ("--delta-one", name), "best_s", rss) for name in GRAPHS}
    shorts = {name: paired_runs(srcs, ("--short-one", name), "best_s", rss)
              for name in SHORT_GRAPHS}
    suites = paired_runs(srcs, ("--suite-one",), "best_wall_s", rss)
    starts = paired_runs(srcs, ("--start-one",), "import_s", "catalog_s", rss)
    for side in srcs:
        record[f"delta_exact_{side}"] = {name: got[side] for name, got in deltas.items()}
        record[f"short_triangle_{side}"] = {name: got[side] for name, got in shorts.items()}
        record[f"suite_{side}"] = suites[side]
        record[f"start_{side}"] = starts[side]
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")


if __name__ == "__main__":
    main()
