"""Machine-speed probe for the end-to-end timings.

Other processes on a shared host slow every computation here by up to 2x,
in phases that last from seconds to minutes. A fixed 0.5 s `delta_exact`
call ranged from 0.7x to 1.25x of its median within four minutes, and the
sandwich workload's unscaled `wall_s` spread by 31% over ten runs.
`probe()` times a fixed loop that never touches lexhyp, after every
operation. An operation's time times REFERENCE_S over the probe time around
it is its time on a machine where the probe takes REFERENCE_S. Scaled, the
sandwich's `wall_s` spread by 2% over five runs. The unscaled times are kept
in the run's record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the probe's time at a quiet moment (10th percentile of 150) on
# the 2-vCPU x86_64 VM that the numbers in README.md come from.
REFERENCE_S = 0.012

_COLUMNS = (np.arange(400 * 400, dtype=np.int64) * 2654435761 % 1009).astype(np.int32).reshape(400, 400)


def _loop(start: int, stop: int) -> int:
    acc = 0
    seen: dict = {}
    for i in range(start, stop):
        col = np.minimum(_COLUMNS[:, i % 400], _COLUMNS[:, (7 * i) % 400])
        acc += int(col.max())
        key = frozenset((i % 13, i % 17, acc % 19))
        seen[key] = seen.get(key, 0) + 1
    return acc


def probe() -> float:
    """Seconds for a fixed mix of small numpy column operations and Python
    object work, the two kinds of work lexhyp's hot loops do.

    An untimed first stretch touches every column, so what the previous
    operation left in the caches does not change the timed stretch.
    """
    _loop(0, 400)
    t0 = perf_counter()
    _loop(400, 4400)
    return perf_counter() - t0


class Speed:
    """Probe times around consecutive operations."""

    def __init__(self):
        self.last = probe()

    def after_op(self) -> float:
        """Mean probe time before and after the operation that just ended."""
        now = probe()
        around = (self.last + now) / 2
        self.last = now
        return around


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s
