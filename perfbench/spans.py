"""Span recorder for the traced run.

`Recorder.install()` replaces each traced public function of lexhyp with a
wrapper, in every lexhyp module namespace that binds it (so
`lexhyp.delta.farthest_geodesic_profile` and `lexhyp.suite.delta_exact` are
both caught), and methods on their class. Each call records a span: name,
start, end, parent span and the operation it ran under. Spans stay in memory
in flat arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute); "Class.method" patches the class.
TRACED = (
    ("geodesics.interval", "lexhyp.geodesics", "interval"),
    ("geodesics.profile", "lexhyp.geodesics", "farthest_geodesic_profile"),
    ("geodesics.enumerate", "lexhyp.geodesics", "enumerate_paths"),
    ("geodesics.count", "lexhyp.geodesics", "geodesic_count"),
    ("delta.delta_exact", "lexhyp.delta", "delta_exact"),
    ("delta.bigon", "lexhyp.delta", "delta_bigon_lower_bound"),
    ("delta.tight_triangle", "lexhyp.delta", "has_tight_short_triangle"),
    ("delta.thinness", "lexhyp.delta", "thinness"),
    ("subdivision.subdivide", "lexhyp.subdivision", "subdivide"),
    ("subdivision.apsp", "lexhyp.subdivision", "all_pairs_distances"),
    ("graph.vertex_distances", "lexhyp.graph", "Graph.vertex_distances"),
    ("graph.has_edge", "lexhyp.graph", "Graph.has_edge"),
    ("products.product", "lexhyp.products", "product"),
    ("products.lex_distance", "lexhyp.products", "lex_distance"),
    ("catalog.get_catalog", "lexhyp.catalog", "get_catalog"),
    ("catalog.in_family_F", "lexhyp.catalog", "in_family_F"),
    ("treeformula.tree_lex_delta", "lexhyp.treeformula", "tree_lex_delta"),
    ("treeformula.bound_check", "lexhyp.treeformula", "bound_check"),
    ("corpus.generate_corpus", "lexhyp.corpus", "generate_corpus"),
    ("corpus.random_connected", "lexhyp.corpus", "random_connected"),
    ("suite.run_suite", "lexhyp.suite", "run_suite"),
    ("cli.main", "lexhyp.cli", "main"),
)


def _count_delta(counters, args, res):
    counters["delta.triples_examined"] += res.stats.triples_examined
    counters["delta.geodesics_enumerated"] += res.stats.geodesics_enumerated


def _count_paths(counters, args, paths):
    counters["geodesics.enumerate.paths"] += len(paths)


def _count_points(counters, args, metrics):
    counters["subdivision.apsp.points"] += args[0].grid_n


# Work counts read from a traced call's arguments or result.
COUNTERS = {
    "delta.delta_exact": _count_delta,
    "geodesics.enumerate": _count_paths,
    "subdivision.apsp": _count_points,
}

OP = "op"  # span name of one workload operation; always name id 0


class Recorder:
    def __init__(self):
        self.names: list[str] = [OP]
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op = -1
        self.op_names: list[str] = []
        self.counters = {k: 0 for k in ("delta.triples_examined", "delta.geodesics_enumerated",
                                        "geodesics.enumerate.paths", "subdivision.apsp.points")}
        self.setup_end = 0
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.op_of.append(self.op)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def _wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, stack, counters = self.start, self.end, self.stack, self.counters

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t
                stack.pop()
            if count is not None:
                count(counters, args, out)
            return out

        return traced

    def install(self) -> None:
        lexhyp_modules = [m for name, m in list(sys.modules.items())
                          if name == "lexhyp" or name.startswith("lexhyp.")]
        for span_name, module, attr in TRACED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(span_name, original, COUNTERS.get(span_name)))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span_name, original, COUNTERS.get(span_name))
            for m in lexhyp_modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._set(m, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def mark_setup_end(self) -> None:
        self.setup_end = perf_counter_ns()

    @contextlib.contextmanager
    def op_span(self, name: str):
        """One workload operation: a span named `OP`, and the operation id
        that every span opened inside it records."""
        prev = self.op
        self.op = len(self.op_names)
        self.op_names.append(name)
        idx = self._open(0)
        self.start[idx] = perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = perf_counter_ns()
            self.stack.pop()
            self.op = prev

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_of, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name and per operation.

        Self time is a span's duration minus the time its child spans cover.
        `setup_s` is the part of a name's time spent before the first pass.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        selft = np.bincount(a["name"], weights=own, minlength=k)
        in_setup = a["start_ns"] < self.setup_end
        setup = np.bincount(a["name"][in_setup], weights=dur[in_setup], minlength=k)
        functions = {n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selft[i]),
                         "setup_s": float(setup[i])}
                     for i, n in enumerate(self.names)}
        ops: dict[str, dict] = {}
        for i in np.flatnonzero(a["name"] == 0).tolist():
            entry = ops.setdefault(self.op_names[a["op"][i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += float(dur[i])
            entry["self_s"] += float(own[i])
        return {"functions": functions, "ops": ops, "counters": dict(self.counters),
                "spans": int(dur.size)}

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), op_names=np.array(self.op_names),
                            setup_end_ns=np.int64(self.setup_end), **self.arrays())
