"""Speed gauge: how much slower than full speed this process runs now.

A shared host runs a process either at full speed or about 1.8x slower,
switching every 0.1-1 s, and the share of slow time drifts over minutes;
the two vCPUs switch independently. A run's raw times therefore depend on
when and where it ran. While a `Gauge` is active, a timer signal every
INTERVAL_S runs a fixed loop of interpreted arithmetic and dict stores in
the main thread, on whichever CPU that thread is on, and records the loop's
CPU time. The mean reading over CALIB_REF_S, the loop's time at full speed
on the reference host (a 2-vCPU Xeon VM, Python 3.11), is the slowdown of
the interval the gauge covered; dividing a time measured over the same
interval by it gives the time at the reference speed.

The loop uses the thread's CPU clock, so time the process spends preempted
does not count. The signal handler runs between bytecodes, so readings
wait out long C calls; pool workers are not sampled, and the main thread
waiting on them wakes on one of their CPUs.
"""

import signal
import statistics
import time

INTERVAL_S = 0.04
CALIB_REF_S = 0.00105
_LOOP = 7000


def reading():
    """CPU seconds of one pass of the fixed loop."""
    t0 = time.thread_time()
    s, d = 0.0, {}
    for i in range(_LOOP):
        s += (i * 0.5) % 3.0
        d[i & 255] = s
    return time.thread_time() - t0


class Gauge:
    """Context manager that samples `reading()` on a timer while active."""

    def __init__(self):
        self.readings = []
        self._old = None

    def _tick(self, signum, frame):
        self.readings.append(reading())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def slowdown(self):
        """Mean reading over the full-speed one (1.0 if none was taken)."""
        if not self.readings:
            return 1.0
        return statistics.mean(self.readings) / CALIB_REF_S
