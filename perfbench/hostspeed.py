"""The host's speed, sampled with fixed reference computations.

The benchmark shares a few cores of a host whose speed drifts: on a
2-core x86-64 host the same job ran 1.5 to 1.8 times slower for a
fraction of a second up to tens of seconds at a time, with CPU time equal
to wall time (so the cause is outside the process and cannot be measured
from it).  A run therefore times a short reference computation (no call
into ellk3, so no change to ellk3 can move it) every ``SAMPLE_EVERY_S``
seconds: between jobs, and from a SIGALRM handler in the benchmark's own
thread during them, so that the samples also fall inside long jobs.  A
job's time is its wall time minus the time spent in the handler, divided
by the host's slowdown during it: the mean of the samples taken during
the job and the one just before and after, over ``REFERENCE_S``.  The
result is in "reference seconds": what the job would take on a host where
``reference()`` takes ``REFERENCE_S``.  The reference mixes the kinds of
work ellk3 does in pure Python: a small-int loop, Fraction arithmetic
with dicts, a sort of a list of floats, and big-int multiplication.  Work
that streams through large numpy arrays slows down differently, so jobs
dominated by it (the oracle's dense elimination mod p) are measured
against a second reference, one elimination step on an 8 MB int64 matrix.
"""

import random
import signal
import time
from fractions import Fraction

# reference() and reference_numpy() on the 2-core x86-64 host the bounds
# were set on, at its faster speed
REFERENCE_S = 0.0025
REFERENCE_NUMPY_S = 0.0035
SAMPLE_EVERY_S = 0.1  # wall time between two samples

_DATA = [random.Random(1).random() for _ in range(12000)]
_A, _B = 7 ** 4000, 11 ** 3500


def reference():
    x = 0
    for i in range(12000):
        x = (x * 31 + i) % 1000003
    s, d = Fraction(0), {}
    for i in range(1, 300):
        s += Fraction(i % 97 - 48, i)
        d[i] = [s.numerator & 0xFFFF, i]
    sorted(_DATA)
    y = _A
    for _ in range(8):
        y = (y * _B) >> 12000
    return x, s, y


_NUMPY = {}


def reference_numpy():
    """One elimination step mod a 31-bit prime on the lower half of a
    1024 x 1024 int64 matrix; numpy is imported on first use, so that the
    set-up the benchmark measures still imports it itself."""
    if not _NUMPY:
        import numpy

        _NUMPY["np"] = numpy
        _NUMPY["M"] = numpy.random.RandomState(1).randint(0, 2 ** 31 - 1, size=(1024, 1024)).astype(numpy.int64)
    np, M = _NUMPY["np"], _NUMPY["M"]
    return (M[512:] - np.outer(M[512:, 0], M[0])) % 2147483629


def sample(fn=reference):
    """Seconds that one fn() takes now."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class HostClock:
    """Reference samples of the host's speed.  ``measure(fn)`` times one
    call: it samples first if ``SAMPLE_EVERY_S`` has gone by since the last
    sample, and with ``timer`` on, a SIGALRM handler samples every
    ``SAMPLE_EVERY_S`` during the call.  Jobs that wait for a subprocess
    run without the timer, so that the samples do not compete with the
    child, and traced runs without it, so that spans hold no samples."""

    def __init__(self, timer=True, numpy=False):
        self.timer = timer and hasattr(signal, "setitimer")
        self.numpy = numpy
        reference()  # warm-up
        if numpy:
            reference_numpy()
        self.samples = []
        self.numpy_samples = []
        self.in_handler = 0.0  # seconds spent sampling from the handler
        self.armed = False
        self._sample()

    def _sample(self):
        self.samples.append(sample())
        if self.numpy:
            self.numpy_samples.append(sample(reference_numpy))
        self.last = time.perf_counter()

    def _handler(self, signum, frame):
        if not self.armed:
            return
        t0 = time.perf_counter()
        self._sample()
        self.in_handler += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def measure(self, fn):
        """Call fn(); returns (result, wall seconds without sampling, index
        of the last sample before the call, number of samples during it)."""
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self._sample()
        first = len(self.samples)
        h0 = self.in_handler
        previous = None
        if self.timer:
            previous = signal.signal(signal.SIGALRM, self._handler)
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            if self.timer:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        dt = time.perf_counter() - t0 - (self.in_handler - h0)
        return result, dt, first - 1, len(self.samples) - first

    def close(self):
        """Take the last sample, so that every call has one after it."""
        self._sample()

    def slowdown(self, before, during, numpy=False):
        """The host's slowdown over a call: the mean of the samples taken
        during it and the one before and after, over REFERENCE_S (or, with
        ``numpy``, of the numpy samples over REFERENCE_NUMPY_S)."""
        samples, ref = (self.numpy_samples, REFERENCE_NUMPY_S) if numpy else (self.samples, REFERENCE_S)
        window = samples[before:before + during + 2]
        return sum(window) / (len(window) * ref)

    def median_slowdown(self):
        s = sorted(self.samples)
        return s[len(s) // 2] / REFERENCE_S
