"""The lexhyp benchmark. Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Each workload runs in its own single-threaded process (worker.py). With
`--trace 0` the end-to-end metrics of BENCHMARK.json are measured with
tracing off; with `--trace 1` one untraced and one traced pass give the
per-layer metrics and the tracing overhead. The last line of stdout is one
JSON object: correct, attempted, failed, metrics. A fuller record (per-op
times, delta values, environment) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def with_units(values: dict, specs: list[dict]) -> dict:
    """`values` as {name: {value, unit}}, in the order and units of `specs`."""
    if set(values) != {s["name"] for s in specs}:
        raise ValueError(f"metric names {sorted(values)} do not match {[s['name'] for s in specs]}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: always one observed value, never a blend of
    two operations as unlike as two ladder rungs."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_times(run: dict, key: str) -> dict[str, list[float]]:
    """Each operation's `key` times over the run's passes."""
    times: dict[str, list[float]] = {}
    for op in run["ops"]:
        times.setdefault(op["name"], []).append(op[key])
    return times


def scaled_medians(run: dict) -> list[float]:
    return [statistics.median(ts) for ts in op_times(run, "scaled_s").values()]


def end_to_end(run: dict, setup_samples: list[float]) -> dict:
    """End-to-end values from speed-scaled times (see speed.py)."""
    return {
        "wall_s": sum(scaled_medians(run)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(layers: dict, overhead_s: float, specs: list[dict]) -> dict:
    """Per-layer values by metric name: `<span>.calls|s|self_s`, a work
    counter, or one of the tracing figures."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif name == "trace.spans":
            out[name] = layers["spans"]
        elif name in layers["counters"]:
            out[name] = layers["counters"][name]
        else:
            span, stat = name.rsplit(".", 1)
            out[name] = layers["functions"][span][stat]
    return out


def per_op(run: dict) -> dict:
    """Fastest and median unscaled seconds, and the checked values of the
    first pass, for each named operation."""
    values = {op["name"]: op["values"] for op in reversed(run["ops"])}
    return {name: {"min_s": min(ts), "median_s": statistics.median(ts), "runs": len(ts),
                   **values[name]}
            for name, ts in op_times(run, "seconds").items()}


def failures(runs: list[dict]) -> tuple[int, int, list[str]]:
    ops = [op for run in runs for op in run["ops"]]
    errors = [f"{op['name']}: {op['error']}" for op in ops if op["error"]]
    return len(ops), len(errors), errors


def git_commit(root: Path):
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(versions: dict) -> dict:
    return {"commit": git_commit(ROOT), "source_sha256": source_digest(ROOT / "src" / "lexhyp"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), **versions, **THREAD_ENV}


class Workers:
    """Starts worker.py processes one at a time, each waited for, all within
    one deadline."""

    def __init__(self, workload: str, seed: int):
        self.args = [workload, str(seed)]
        self.deadline = perf_counter() + DEADLINE_S
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0",
                    "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def run(self, seconds: float, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), *self.args, str(seconds), mode, *extra]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, self.deadline - perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description="lexhyp benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lexhyp" / "__init__.py").is_file():
        print(f"error: no lexhyp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workers = Workers(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        plain = workers.run(args.seconds, "once")
        spans_path = RESULTS / f"{args.workload}-spans.npz"
        traced = workers.run(args.seconds, "trace", str(spans_path))
        runs = [plain, traced]
        overhead = statistics.median(traced["passes"]) - statistics.median(plain["passes"])
        metrics = with_units(per_layer(traced["layers"], overhead, bench["per_layer"]),
                             bench["per_layer"])
    else:
        setups = [workers.run(args.seconds, "setup") for _ in range(SETUP_SAMPLES - 1)]
        run = workers.run(args.seconds, "run")
        runs = [run]
        setups.append(run)
        metrics = with_units(end_to_end(run, [s["setup_scaled_s"] for s in setups]),
                             bench["end_to_end"])

    attempted, failed, errors = failures(runs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(runs[0]["versions"]),
        "metrics": metrics,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "errors": errors[:20],
        "passes": [r["passes"] for r in runs],
        "ops": per_op(runs[0]),  # untraced times only
        "detail": runs[0]["detail"],
    }
    if args.trace:
        record["layers"] = traced["layers"]
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        record["setup_samples"] = [{k: s[k] for k in ("setup_s", "setup_scaled_s")} for s in setups]
        record["unscaled"] = {
            "wall_s": sum(statistics.median(ts) for ts in op_times(run, "seconds").values()),
            "setup_s": statistics.median(s["setup_s"] for s in setups)}
        record["op_p90_ms"] = 1000 * percentile(scaled_medians(run), 0.9)
    if args.workload == "sandwich":
        calls = runs[0]["detail"]["delta_calls"]
        record["delta_call_ms"] = {"count": len(calls), "p50": 1000 * percentile(calls, 0.5),
                                   "p90": 1000 * percentile(calls, 0.9)}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(report(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report(record: dict) -> str:
    """A short human-readable summary of one run."""
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']} "
             f"passes={record['passes']} attempted={record['attempted']} failed={record['failed']}"]
    lines += [f"  error: {e}" for e in record["errors"][:5]]
    if record["workload"] != "sandwich":
        for name, op in sorted(record["ops"].items(), key=lambda kv: -kv[1]["min_s"]):
            extra = " ".join(f"{k}={v}" for k, v in op.items() if not k.endswith("_s"))
            lines.append(f"  {name:28} {op['min_s']:9.4f} s  {extra}")
    if "layers" in record:
        funcs = record["layers"]["functions"]
        top = sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])[:10]
        lines.append("  self time by span:")
        lines += [f"    {n:28} calls={f['calls']:<8} s={f['s']:.4f} self_s={f['self_s']:.4f}"
                  for n, f in top]
    for name, m in record["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
