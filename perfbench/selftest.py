"""Self-test of the benchmark harness on tiny inputs. Run from the root of a
checkout:

    python3 perfbench/selftest.py

It checks that a tiny version of each workload emits every metric named in
BENCHMARK.json with its unit, untraced and traced; that a deliberately wrong
expected delta counts as a failed operation; and that run.py fails without
printing a result where there are no lexhyp sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lexhyp  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from speed import Speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def tiny_workloads() -> list:
    P, C = lexhyp.path_graph, lexhyp.cycle_graph
    return [
        workloads.Ladder([
            workloads.Rung("cycle-8", C(8), expected_quarters=8),
            workloads.Rung("lex-P2-C4", lexhyp.product(P(2), C(4)).graph, (P(2), C(4))),
        ]),
        workloads.Sandwich(workloads.sandwich_pairs(1, corpus_seeds=[0], cap=8)),
        workloads.Verify(["cycle_delta_n_4", "witness_validity", "sandwich_bounds"],
                         ("--pairs", "4", "--max-vertices", "5")),
    ]


def measured(workload, recorder=None) -> dict:
    """One pass, as worker.py measures it, in this process."""
    if recorder is None:
        out = worker.measure(workload, 0.0, 1, speed=Speed())
    else:
        recorder.install()
        try:
            recorder.mark_setup_end()
            out = worker.measure(workload, 0.0, 1, recorder.op_span)
        finally:
            recorder.uninstall()
        out["layers"] = recorder.summary()
    return out


def check_emitted(metrics: dict, specs: list[dict]) -> None:
    assert list(metrics) == [s["name"] for s in specs], sorted(metrics)
    for spec in specs:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], (spec["name"], got)
        assert isinstance(got["value"], (int, float)), (spec["name"], got)


def check_bare_directory() -> None:
    """With only BENCHMARK.json and perfbench/, run.py exits non-zero and
    prints no result."""
    bare = HERE / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = run.load_benchmark()
    for workload in tiny_workloads():
        plain = measured(workload)
        attempted, failed, errors = run.failures([plain])
        assert attempted > 0 and failed == 0, errors
        check_emitted(run.with_units(run.end_to_end(plain, [0.1]), bench["end_to_end"]),
                      bench["end_to_end"])
        traced = measured(workload, spans.Recorder())
        layers = run.with_units(run.per_layer(traced["layers"], 0.0, bench["per_layer"]),
                                bench["per_layer"])
        check_emitted(layers, bench["per_layer"])
        assert layers["delta.delta_exact.calls"]["value"] > 0, layers
        assert layers["op.calls"]["value"] == attempted, layers["op.calls"]
        print(f"ok {workload.name}: {attempted} ops, every metric emitted with its unit")

    wrong = workloads.Ladder([workloads.Rung("cycle-8", lexhyp.cycle_graph(8), expected_quarters=7)])
    attempted, failed, errors = run.failures([measured(wrong)])
    assert (attempted, failed) == (1, 1), errors
    print(f"ok wrong expected delta fails its operation: {errors[0]}")

    check_bare_directory()
    print("ok run.py without lexhyp sources exits non-zero with no result")
    print(json.dumps({"selftest": "pass"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
