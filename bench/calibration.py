"""Host speed calibration.

On a shared machine the processor's speed drifts: the same code runs up
to twice as slow for seconds to a minute at a time.  `calibration_s`
times a fixed amount of work that uses nothing of the package, right
when it is called, so a job's latency divided by the calibration time
around it no longer depends on that drift, while a change to the
package still changes the latency in full.

Other tenants do not slow every kind of code alike, so the work is five
loops, one for each kind of work the package does: interpreter
arithmetic, small numpy calls (numpy's per-call overhead), Python dicts
and sorting (object allocation and hashing), numpy on arrays of half a
megabyte (the caches) and numpy on arrays of 16 megabytes (memory
bandwidth).  The geometric mean of their times is returned.  No subset
of these loops tracked the jobs of every workload as closely; see
README.md, "Timings".
"""

import math
from time import perf_counter

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 64)
_MID = np.linspace(0.0, 1.0, 65536)
_BIG = np.linspace(0.0, 1.0, 2_000_000)
_KEYS = [str(i * 7919) for i in range(20000)]


def _arithmetic():
    x = 0
    for i in range(100_000):
        x += i * i % 7


def _small_numpy():
    s = 0.0
    for _ in range(1_500):
        s += float(np.dot(_SMALL, _SMALL) + np.sin(_SMALL).sum())


def _objects():
    d = {k: float(i) for i, k in enumerate(_KEYS)}
    sum(d[k] for k in reversed(_KEYS))
    sorted(d.values(), reverse=True)


def _mid_numpy():
    for _ in range(8):
        (np.sin(_MID) * _MID + 1.0).sum()


def _big_numpy():
    for _ in range(2):
        (_BIG * 1.5 + _BIG).sum()


LOOPS = (_arithmetic, _small_numpy, _objects, _mid_numpy, _big_numpy)


def calibration_s():
    """Geometric mean of the calibration loops' times, in seconds."""
    log_sum = 0.0
    for loop in LOOPS:
        t0 = perf_counter()
        loop()
        log_sum += math.log(perf_counter() - t0)
    return math.exp(log_sum / len(LOOPS))
