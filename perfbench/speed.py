"""Host speed: a fixed reference kernel timed between query runs.

The benchmark runs on shared hosts whose cores other tenants also use.
There the same pass can take 1.7x longer from one minute to the next,
in slow phases that last from a few seconds to longer than a run, and
CPU time slows with wall time (the cores are shared, not taken away).
No statistic taken within one run removes a phase that covers it.

So the benchmark times a reference kernel between every two query runs:
a fixed mix of interpreted Python (integer arithmetic, dict updates)
and numpy (sort, bincount, gather) on fixed inputs, using no repository
code. Its time tracks the engine's through those phases: over 150
seconds of alternating runs of one ND-heavy query and the kernel on a
shared 2-core 2.0 GHz Xeon VM, the two correlated at 0.87, and their
ratio spread 0.08 IQR/median where the query's time alone spread 0.21.
Each time metric is reported in *reference seconds*: the measured
seconds times ``REFERENCE_S`` over the kernel's time around that query
run (the median of the samples just before and after it and their
neighbours), that is the time the run would have taken at the host's
uncontended speed. Raw seconds are printed alongside as context. The
kernel never changes with the engine, so a change to the engine moves
the scaled time exactly as much as the raw one.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

#: The reference kernel's time on an uncontended core of a 2-core
#: 2.0 GHz Xeon VM (the fastest of its phases).
REFERENCE_S = 0.016

_rng = np.random.default_rng(0)
_VALUES = _rng.random(100_000)
_KEYS = _rng.integers(0, 5_000, 100_000)
_KEY_LIST = _KEYS[:20_000].tolist()


def reference_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    started = time.perf_counter()
    for _ in range(3):
        acc = 0
        for i in range(30_000):
            acc += i * i
        counts: dict[int, int] = {}
        for k in _KEY_LIST:
            counts[k] = counts.get(k, 0) + 1
        np.sort(_VALUES)
        np.bincount(_KEYS, weights=_VALUES)
        _VALUES[_KEYS].sum()
    return time.perf_counter() - started


def scale(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference kernel took ``reference``."""
    return seconds * REFERENCE_S / reference


def scaled_run(run, reference: float):
    """A QueryRun with every time in reference seconds."""
    return dataclasses.replace(
        run,
        first_s=scale(run.first_s, reference),
        intervals_s=tuple(scale(g, reference) for g in run.intervals_s),
        total_s=scale(run.total_s, reference),
        cpu_s=scale(run.cpu_s, reference),
        worker_cpu_s=tuple(scale(c, reference) for c in run.worker_cpu_s),
        recovery_s=scale(run.recovery_s, reference),
        rsd_target_s=scale(run.rsd_target_s, reference),
    )
