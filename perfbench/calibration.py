"""Machine-speed calibration: a fixed unit of work that runs no perturbopt code.

On a shared machine the speed of a core can drift by 20-30% over seconds to
minutes, through load outside the benchmark's own processes (on a 2-vCPU VM
the process CPU time drifts with wall time, so no time is lost to waiting).
Medians of runs made minutes apart then differ by more than a regression
bound.  The benchmark therefore times this unit next to the work it
measures, and reports a time ``t`` measured while the unit took ``c``
seconds as ``t * REF_S / c``: the time the work would take where the unit
takes ``REF_S``.  The unit mixes interpreter work with small dense linear
algebra, as the workloads do.  It runs no library code, so a change to the
library moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# nominal time of one unit; scaled times are times on a machine this fast
REF_S = 0.006

_A = np.random.default_rng(0).standard_normal((200, 200))
_SPD = _A @ _A.T + 200.0 * np.eye(200)


def unit_s() -> float:
    """Wall seconds of one calibration unit."""
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    for _ in range(3):
        np.linalg.cholesky(_SPD)
        _SPD @ _SPD
    return time.perf_counter() - start


def scale(unit: float) -> float:
    """Factor that takes a time measured while the unit took ``unit`` s to ``REF_S``."""
    return REF_S / unit


def current_scale(units: int = 5) -> float:
    """Factor from the median of a few units run now."""
    return scale(statistics.median(unit_s() for _ in range(units)))
