"""Host-speed sampler for the end-to-end times.

The vCPUs of a shared host run faster or slower by tens of percent from
second to second, each on its own (two vCPUs sampled at once do not move
together).  A fixed slice of work, of the kind the engine runs, is
therefore timed every PERIOD_S of wall time *inside* the timed commands
and set-up probes, from a SIGALRM handler in the benchmark's own process.  The slices sample
the same vCPU at the same moments as the command, so the ratio of the
command's time to the mean slice time cancels the host's speed.  The
slices' own time is taken out of the command's time.

No nadac code runs in a slice, so a change to the program cannot move it.
A sweep computes in its pool workers, on both vCPUs, so there the slices
run in the workers (PoolSampler).
"""

from __future__ import annotations

import functools
import signal
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.05
SLICE_STEPS = 600
# the mean slice time on the 2-vCPU VM of README.md: the end-to-end times
# are rescaled to a host on which a slice takes this long
REF_SLICE_S = 0.0028

_rng = np.random.default_rng(0)
_A = 0.3 * _rng.standard_normal((4, 4))
_B = _rng.standard_normal(4)


def work_slice():
    """Small numpy products and ufuncs, float conversions and dict stores."""
    x = np.zeros(4)
    acc, seen = 0.0, {}
    for i in range(SLICE_STEPS):
        x = np.tanh(_A @ x + _B)
        acc += float(x @ x)
        seen[i % 17] = acc
    return acc


class Sampler:
    """While entered, times work_slice() every PERIOD_S.  ``spent`` is the
    running total of slice time, ``count`` the number of slices.  An
    inactive sampler (the traced run) does nothing."""

    def __init__(self, active=True):
        self.active = active
        self.spent = 0.0
        self.count = 0
        self._previous = None

    def _tick(self, signum, frame):
        tic = time.perf_counter()
        work_slice()
        self.spent += time.perf_counter() - tic
        self.count += 1

    def __enter__(self):
        if not self.active:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if not self.active:
            return False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return self.spent, self.count

    def since(self, mark):
        """(slice seconds, slice count) since ``mark``."""
        return self.spent - mark[0], self.count - mark[1]


class PoolSampler:
    """The sampler of a command whose work runs in forked pool workers: each
    task wrapped by wrap() runs under its own Sampler in its worker, and
    appends that sampler's totals as one line to the file ``path``.  mark()
    and since() sum the file, as Sampler's read its totals; read them only
    while no task runs.  Entering it does nothing."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.write_text("")

    def wrap(self, task):
        path = self.path

        @functools.wraps(task)
        def sampled(arg):
            with Sampler() as local:
                result = task(arg)
            with open(path, "a") as fh:
                fh.write(f"{local.spent!r} {local.count}\n")
            return result

        return sampled

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def mark(self):
        spent, count = 0.0, 0
        for line in self.path.read_text().splitlines():
            slice_s, slices = line.split()
            spent += float(slice_s)
            count += int(slices)
        return spent, count

    def since(self, mark):
        spent, count = self.mark()
        return spent - mark[0], count - mark[1]
