"""Run one workload in this process and print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [SPANS_PATH]

MODE is `setup` (set up, report the set-up time, exit), `run` (passes over
the input set until SECONDS would be exceeded; at least one), `once` (one
untraced pass) or `trace` (one pass with every traced function recording
spans, which are written to SPANS_PATH). run.py starts this with
single-threaded numeric libraries and `src` on the path.
"""

from time import perf_counter

T0 = perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

from speed import Speed, probe, scaled  # noqa: E402


def measure(workload, seconds: float, max_passes: int = 0, span=contextlib.nullcontext,
            speed=None) -> dict:
    """Closed loop with one caller: whole passes over the input set while
    the next pass, as long as the last one, still ends within `seconds`.

    Peak memory is read after the first pass, so it does not depend on how
    many passes fit: a later pass repeats the same work, but the allocator
    can still grow the heap for it.
    """
    start = perf_counter()
    passes, ops = [], []
    while True:
        p0 = perf_counter()
        wall, got = workload.run_pass(span, speed)
        passes.append(wall)
        ops += got
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = perf_counter()
        if (max_passes and len(passes) >= max_passes) or (now - start) + (now - p0) > seconds:
            break
    out = [asdict(o) for o in ops]
    for op in out:
        op["scaled_s"] = None if op["probe_s"] is None else scaled(op["seconds"], op["probe_s"])
    return {"passes": passes, "ops": out, "detail": workload.detail(), "peak_rss_mb": peak_rss_mb}


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    import workloads
    recorder = None
    if mode == "trace":
        import spans
        recorder = spans.Recorder()
        recorder.install()
    workload = workloads.build(name, seed)
    setup_s = perf_counter() - T0
    if recorder is None:
        setup_probe_s = statistics.median(probe() for _ in range(3))
        setup = {"setup_s": setup_s, "setup_scaled_s": scaled(setup_s, setup_probe_s)}
        if mode == "setup":
            print(json.dumps(setup))
            return 0
    if recorder is not None:
        recorder.mark_setup_end()
        out = measure(workload, seconds, 1, recorder.op_span)
        recorder.uninstall()
        out["layers"] = recorder.summary()
        recorder.dump(argv[4])
    else:
        # `once` is the untraced pass a traced run is compared with: no probes,
        # so that its pass time includes nothing the traced pass lacks.
        out = measure(workload, seconds, 1 if mode == "once" else 0,
                      speed=Speed() if mode == "run" else None)
        out.update(setup)
    import numpy
    import scipy
    out.update(versions={"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
