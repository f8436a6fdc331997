"""Host-speed sampling, so that timings on a shared machine are comparable.

On a shared host the time of a fixed computation moves by up to 2x for
seconds to minutes at a stretch, as other tenants come and go.  A probe (a
fixed mix of small scipy.special calls and Python float arithmetic, like the
package's own inner loops) runs every INTERVAL_S from a SIGALRM handler while
requests run.  A timing over [t0, t1] is then reported as

    (t1 - t0 - probe time spent inside) * PROBE_REF_S / mean probe time
                                           over [t0 - INTERVAL_S, t1 + INTERVAL_S]

that is, in seconds at the host speed where one probe takes PROBE_REF_S.
The probe is the benchmark's own code, so a change to the package cannot
move it.  Raw times are kept alongside in the full report.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from array import array

import numpy as np
from scipy.special import gammaln

INTERVAL_S = 0.1
PROBE_REF_S = 6e-4
_ARGS = np.linspace(0.1, 50.0, 200)


def probe() -> float:
    """Seconds taken by one fixed probe computation."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(40):
        s += float(np.sum(gammaln(_ARGS * (1.0 + i * 1e-3))))
        for j in range(30):
            s += math.log(j + 1.5)
    return time.perf_counter() - t0


def probe_median(n: int = 11) -> float:
    """Median of n probes, after one that warms the caches."""
    probe()
    return statistics.median(probe() for _ in range(n))


class SpeedSampler:
    """Probe samples taken on a timer while the sampler runs."""

    def __init__(self):
        self.t = array("d")
        self.p = array("d")
        self.spent = 0.0
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        dt = probe()
        self.t.append(t0)
        self.p.append(dt)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def normalize(self, t0: float, t1: float, raw: float) -> float:
        """``raw`` seconds measured over [t0, t1], at the reference speed."""
        lo = bisect.bisect_left(self.t, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.t, t1 + INTERVAL_S)
        window = self.p[lo:hi] if hi > lo else self.p[max(0, lo - 1):lo + 1]
        return raw * PROBE_REF_S / (sum(window) / len(window))
