"""Host-speed probe: scales measured times to a fixed reference speed.

On a shared host (measured on 2 vCPUs of a 2.0 GHz Xeon) the speed of a
vCPU swings by up to 60% over periods of 5 to 30 seconds. CPU time follows
wall time, so the slowdown is in the hardware the vCPU shares, not in
waiting for it. A probe on the other vCPU does not follow it; a probe on
the same vCPU, interleaved finely with the work, does.

So, while a pass runs, a timer signal interrupts it every PASS_INTERVAL_S
(SETUP_INTERVAL_S while a fresh process sets up, which is short) and
runs kernel(), a fixed piece of pure-Python Fraction arithmetic that uses
nothing of origamilab, and records how long it took. REF_S is the kernel's
time at the reference speed. At a probe that took d seconds, the host ran
at REF_S / d of the reference speed, so a pass of wall time w, less the
probes' own time, would have taken

    (w - sum(d)) * mean(REF_S / d)

seconds at the reference speed. The probes are evenly spaced in wall time,
so the mean is the host's average speed over the pass. A fresh process's
set-up is scaled the same way, by the probes that ran during its import
and build; its interpreter start and exit are taken to run at that speed.
Only the probes' timings change; the work and its outputs do not.
"""

import signal
import time
from fractions import Fraction

PASS_INTERVAL_S = 0.025
SETUP_INTERVAL_S = 0.01
KERNEL_TERMS = 150
REF_S = 0.0007      # typical kernel() time on that host


def kernel():
    s = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        s += Fraction(i, i + 3)
    return s


def scaled(wall, durations):
    """wall, less the probes' time, at the reference speed."""
    speed = sum(REF_S / d for d in durations) / len(durations)
    return (wall - sum(durations)) * speed


class Probe:
    """Runs the kernel on SIGALRM while started; collects its durations."""

    def __init__(self):
        self.durations = []

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - t0)

    def start(self, interval):
        self.durations = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
