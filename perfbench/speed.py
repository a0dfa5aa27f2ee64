"""Machine-speed probe, for job timings that survive a shared host.

On a shared host the same code runs up to 1.5x slower for seconds to
minutes at a time, and whole runs drift with it.  A fixed kernel that does
not touch blochtop is timed before and after every job (outside the timed
interval).  Its mix resembles the jobs: small numpy products in a Python
loop, vector transcendentals and float formatting.  ``scaled`` turns a
job's wall time into an estimate at the reference speed.  The host factor
does not depend on the program, so a change to blochtop moves the scaled
time by the same ratio as the raw one.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Probe time in the host's fast phase: 2-vCPU Xeon, Python 3.11, numpy 2.4.
REFERENCE_S = 0.7e-3
# How job time follows probe time across the host's slow phases: the
# probe slows by up to 1.8x where jobs slow by about 1.45x.  Fitted as the
# slope of log(job time / median of its shape) on log(probe time) over
# 500 sweep-maps and 540 long-pulse jobs (0.59 and 0.65).
ELASTICITY = 0.6

_R = np.eye(3)
_V = np.ones(3)
_X = np.linspace(0.0, 1.0, 16384)


def _kernel():
    v = _V
    for _ in range(300):
        v = _R @ v
    np.sin(_X) + np.cos(_X)
    ",".join(f"{t:.17g}" for t in _X[:400])


def probe() -> float:
    """Seconds of the fixed kernel, best of three back-to-back runs."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall_s: float, probe_before: float, probe_after: float) -> float:
    """Wall time at the reference speed, from the probes around the job."""
    factor = 0.5 * (probe_before + probe_after) / REFERENCE_S
    return wall_s / factor ** ELASTICITY
