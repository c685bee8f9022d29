"""Time the per-source bottleneck tables and `delta_exact`, and write a BENCH json.

Run from the root of a checkout, with `src` on the path:

    PYTHONPATH=src python3 tools/bench_tables.py --out BENCH_narrow_masks.json \\
        --parent PARENT --parent-commit REV

Per table, "before" is the grid DP (`farthest_geodesic_table` over the S_4
grid's arcs, J columns gathered C-contiguous, as the value sweep built its
tables before the base-graph kernel) and "after" is `j_source_table`; both
run in this checkout, with every per-grid cache warm, best of 5 passes over
all J-point sources.

`delta_exact` runs each graph in a fresh process (`--delta-one NAME`), so
that `ru_maxrss_mb`, the process's peak resident memory, belongs to that
graph alone: best of 3 calls, with `tables_built`, `table_bytes` and the
value.  "after" runs it on this checkout's `src`, "before" on PARENT/src, a
checkout of the commit REV; both run this script, so only the library
differs.
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

TABLE_GRAPHS = {
    "lex(P6,C5)": lambda: product(path_graph(6), cycle_graph(5)).graph,
    "lex(P8,C6)": lambda: product(path_graph(8), cycle_graph(6)).graph,
    "cycle-200": lambda: cycle_graph(200),
    "lex(P2,C5)": lambda: product(path_graph(2), cycle_graph(5)).graph,
}
DELTA_GRAPHS = ("lex(P6,C5)", "lex(P8,C6)")


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
    for name, make in TABLE_GRAPHS.items():
        s = subdivide(make(), 4)
        hops, j = s.metrics().hops, np.asarray(s.j_set)
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
    g = TABLE_GRAPHS[name]()
    res = []
    secs = best_of(3, lambda: res.append(delta_exact(g)))
    st = res[-1].stats
    return {"best_s": round(secs, 3), "tables_built": st.tables_built,
            "table_bytes": st.table_bytes, "triples_examined": st.triples_examined,
            "quarters": res[-1].value.quarters,
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def delta_runs(src: str) -> dict:
    """`delta_one` for every graph of DELTA_GRAPHS, each in a fresh process on `src`."""
    env = dict(os.environ, PYTHONPATH=src)
    out = {}
    for name in DELTA_GRAPHS:
        done = subprocess.run([sys.executable, __file__, "--delta-one", name], env=env,
                              check=True, capture_output=True, text=True)
        out[name] = json.loads(done.stdout)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the BENCH json here")
    ap.add_argument("--parent", help="checkout of the parent commit, for delta_exact before")
    ap.add_argument("--parent-commit", default="", help="the parent checkout's commit id")
    ap.add_argument("--delta-one", choices=DELTA_GRAPHS, help="print one delta_exact run as json")
    args = ap.parse_args()
    if args.delta_one:
        print(json.dumps(delta_one(args.delta_one)))
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
    if args.parent:
        record["parent_commit"] = args.parent_commit
        record["delta_exact_before"] = delta_runs(os.path.join(args.parent, "src"))
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")


if __name__ == "__main__":
    main()
