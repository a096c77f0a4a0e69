"""Host-speed calibration: a fixed piece of work timed between reports.

On a shared virtual machine the speed of an unchanged loop drifts by tens of
per cent over seconds to minutes, for reasons outside the process (CPU time
tracks wall time, so it is not waiting). The timed loop therefore stops about
twice a second and times the fixed work below. The timed metrics are divided
by the median slowness over the run, so that they read as times on the
reference host, still in seconds.

The work uses plain Python and numpy only, never the package under test, so a
change to the package cannot move it. It mixes the kinds of cost a report
has: interpreted Python (a tight loop, and objects, dicts and sorting), JSON
encoding and parsing, numpy calls on small arrays, and LAPACK on a mid-sized
matrix. Each part runs twice and keeps its faster time, so that one interrupt
does not read as a slow host. One sample takes about 25 ms.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

_rng = np.random.Generator(np.random.PCG64(20211))
_SMALL = [_rng.normal(size=(4, 4)) for _ in range(200)]
_g = _rng.normal(size=(96, 96)) + 1j * _rng.normal(size=(96, 96))
_MID = _g + _g.conj().T
_DOC = {
    f"item{i}": {"re": _rng.normal(size=(8, 8)).tolist(), "im": _rng.normal(size=(8, 8)).tolist(),
                 "beta": float(_rng.normal()), "name": f"item {i}"}
    for i in range(6)
}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def value(self):
        return self.a * self.b + len(str(self.a))


def _python() -> None:
    s = 0
    for i in range(40000):
        s += i * i


def _objects() -> None:
    totals = {}
    for i in range(1500):
        p = _Pair(i, i * 0.5)
        totals[i % 97] = totals.get(i % 97, 0.0) + p.value()
    sorted(totals.items(), key=lambda kv: kv[1])


def _json() -> None:
    json.loads(json.dumps(_DOC, indent=1))


def _numpy_small() -> None:
    for m in _SMALL:
        x = m @ m.T
        np.trace(x)
        np.abs(x).max()


def _lapack() -> None:
    np.linalg.eigh(_MID)
    _MID @ _MID


#: Seconds each part takes on the reference host (2-vCPU Intel Xeon VM at
#: 2.1 GHz, Python 3.11, numpy 2.4 with scipy-openblas, 2 BLAS threads),
#: medians over a few minutes. They only fix the scale of the normalised times.
PARTS = ((_python, 3.2e-3), (_objects, 2.1e-3), (_json, 2.9e-3), (_numpy_small, 1.8e-3),
         (_lapack, 3.4e-3))


def sample() -> float:
    """Host slowness now: geometric mean of each part's time over its reference.

    1.0 is the reference host; 1.3 means work takes 30% longer than there.
    """
    perf = time.perf_counter
    log_sum = 0.0
    for part, ref in PARTS:
        best = math.inf
        for _ in range(2):
            t0 = perf()
            part()
            best = min(best, perf() - t0)
        log_sum += math.log(best / ref)
    return math.exp(log_sum / len(PARTS))


# The first call of each part pays one-off costs (LAPACK workspace, caches).
sample()
