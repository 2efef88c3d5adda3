"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by 10-25% over minutes as other
guests come and go, in process CPU time as well as in wall time.  A fixed reference kernel, timed between the ops of a run,
measures that drift: it uses numpy and Python alone, never pathcalc, so no
change to the program can move it.  Its vector passes over 1e5-point arrays
are the kind of work the window kernels and the quadrature do, and over
minutes its time tracks theirs.

The runner takes a group of samples around each set-up repetition, before
the first op and after every op, and divides each op's time by its speed
factor: the median sample time of the groups on either side of it, over
``REF_S``.  The set-up time is divided by the median of the groups around
the set-up, and the import time by the median over the whole run.  The reported times thus read in
seconds at the reference speed; the raw times stay in the meta line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median CPU time of one sample on the host the cycle costs were taken on
REF_S = 0.0046
# calibration time spent after each op, as a share of the op's CPU time
SHARE = 0.05
MIN_SAMPLES = 3


class Calibrator:
    def __init__(self):
        n = 100_000
        self.x = np.random.default_rng(0).standard_normal(n)
        # preallocated buffers: the kernel's time must not depend on the
        # state the program left the allocator in
        self.y = np.empty(n)
        self.d = np.empty(n)
        self.groups: list[list[float]] = []

    def sample(self) -> float:
        """Time one pass of the reference kernel in process CPU time."""
        x, y, d = self.x, self.y, self.d
        c0 = time.process_time()
        for _ in range(3):
            np.cumsum(x, out=y)
            for lag in (1, 4, 16, 64, 256):
                m = y.size - lag
                np.subtract(y[lag:], y[:m], out=d[:m])
                np.multiply(d[:m], d[:m], out=d[:m])
                np.subtract(d[:m], lag, out=d[:m])
                np.abs(d[:m], out=d[:m])
                d[:m].max()
        return time.process_time() - c0

    def measure(self, op_cpu: float = 0.0) -> None:
        """Take a group of samples worth about ``SHARE`` of ``op_cpu``."""
        group = []
        while len(group) < MIN_SAMPLES or sum(group) < SHARE * op_cpu:
            group.append(self.sample())
        self.groups.append(group)

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Median sample time of ``groups[first:last]`` over ``REF_S``."""
        return statistics.median(
            s for g in self.groups[first:last] for s in g) / REF_S
