"""Speed probe: scales measured times to a fixed reference speed.

On a shared host the speed of one core drifts by up to a factor of two
over tens of seconds, as other tenants load it, and the two cores of a
small sandbox drift independently.  Raw times of the same code then
spread far more than any useful regression bound.

The runner therefore pins itself and every child process to one CPU
(children inherit the affinity) and, while it waits for a child, wakes
every GAP_S seconds to time LOOP, a fixed pure-Python loop, on that
same CPU.  The probe samples the speed the child sees, at the moments
it sees it.  For a timed interval [t0, t1] (time.perf_counter, which is
CLOCK_MONOTONIC and so shared by all processes):

    factor = REF_S / mean probe time inside the interval
    scaled = (t1 - t0 - probe time inside the interval) * factor

so `scaled` is the interval's own time, without the probe's slices, at
the speed at which LOOP takes REF_S.  CPU times, which never include
the probe, are multiplied by the factor alone.  The probe takes about
3 % of the CPU while a child runs.
"""

import os
import select
import statistics
import subprocess
import time

GAP_S = 0.05
REF_S = 1.5e-3
# an interval with fewer samples inside uses the samples nearest to it
MIN_SAMPLES = 5


def loop() -> int:
    x = 0
    for i in range(15_000):
        x += i * i % 7
    return x


def pin() -> int:
    """Pin this process, and so its future children, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    def __init__(self):
        self.samples = []  # (start, duration), in time order

    def sample(self) -> None:
        t = time.perf_counter()
        loop()
        self.samples.append((t, time.perf_counter() - t))

    def wait(self, proc: subprocess.Popen, deadline: float) -> float:
        """Probe until proc exits; return when it exited.  At the
        monotonic deadline proc is killed and TimeoutExpired raised."""
        fd = os.pidfd_open(proc.pid)
        try:
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    proc.kill()
                    proc.wait()
                    raise subprocess.TimeoutExpired(proc.args, 0)
                ready, _, _ = select.select([fd], [], [], min(GAP_S, left))
                if ready:
                    end = time.perf_counter()
                    break
                self.sample()
        finally:
            os.close(fd)
        proc.wait()
        return end

    def _inside(self, t0: float, t1: float) -> list:
        return [s for s in self.samples if t0 <= s[0] <= t1]

    def factor(self, t0: float, t1: float) -> float:
        near = self._inside(t0, t1)
        if len(near) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            near = near[:MIN_SAMPLES]
        if not near:
            raise ValueError("no probe samples")
        return REF_S / statistics.fmean(d for _, d in near)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval's time without probe slices, at REF_S speed."""
        busy = sum(d for _, d in self._inside(t0, t1))
        return (t1 - t0 - busy) * self.factor(t0, t1)

    def median_ms(self) -> float:
        if not self.samples:
            return float("nan")
        return 1e3 * statistics.median(d for _, d in self.samples)
