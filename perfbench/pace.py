"""Host-speed normalisation of the benchmark's timings.

The benchmark shares a few cores of a host whose speed for the same
instructions moves by up to 2x within tens of seconds, so a raw timing
mostly measures the neighbours.  A fixed reference unit of interpreter and
small-array work (:func:`reference_unit`), run at the harness's boundaries
every ``INTERVAL_S`` and never inside a measured interval, tracks that
speed.  On a shared 2-vCPU host the per-round throughput of one fixed
``sweep`` round correlated at 0.98 with the reference's speed; scaling it
cut the quartile spread over 20 repetitions from 0.23 to 0.07 of the median.

Every end-to-end timing except ``setup_s`` and ``service``'s worker-timed
waits is scaled by ``NOMINAL_S / reference time``: it reads as the time on a host that runs
the reference unit in ``NOMINAL_S``.  The report keeps the raw values
beside them.

The reference is the benchmark's own code, so a change to the program does
not move it, except by competing for the core from another thread or
process.  Probes therefore run only where nothing but the harness runs:
between objective calls of an in-process session, and around rounds and
resumes, when the pool is idle.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spans import Tracer

#: Median reference-unit time on the host the benchmark was written on
#: (shared 2-vCPU x86-64, Python 3.11, numpy 2.4).
NOMINAL_S = 130e-6
#: Probe at most this often during timed work (~2% of the time).
INTERVAL_S = 0.01
#: Probes per burst, and the probes :meth:`Pace.scale` takes by default.
WINDOW = 5

_M = np.random.default_rng(0).random((8, 8))
_V = np.random.default_rng(1).random(8)
_OUT = np.empty(8)


def reference_unit() -> float:
    """Fixed interpreter and small-array work; allocates no tracked objects."""
    s = 0.0
    for __ in range(30):
        np.dot(_M, _V, out=_OUT)
        s += float(_OUT[0])
        for k in range(50):
            s += k * 0.5
    return s


class Pace:
    """Reference-unit probes and the scale factors derived from them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Duration of every probe, in order.
        self.samples: list[float] = []
        #: Total time spent probing, to take out of measured intervals.
        self.spent = 0.0
        self._last = time.perf_counter()

    def probe(self) -> None:
        t0 = time.perf_counter()
        if self.tracer.enabled:
            idx = self.tracer.open("bench.pace", t0)
            reference_unit()
            t1 = time.perf_counter()
            self.tracer.close(idx, t1)
        else:
            reference_unit()
            t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def tick(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last probe."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.probe()

    def burst(self) -> None:
        for __ in range(WINDOW):
            self.probe()

    def scale(self, since: int | None = None) -> float:
        """``NOMINAL_S`` over the median probe since index ``since`` (default: the last ``WINDOW``)."""
        window = self.samples[-WINDOW:] if since is None else self.samples[since:]
        return NOMINAL_S / statistics.median(window)
