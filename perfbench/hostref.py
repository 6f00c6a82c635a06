"""A fixed reference kernel that measures how fast the shared host runs right now.

The benchmark runs on a virtual core shared with other machines' work.  Its
speed drifts by up to a half, in phases of seconds to minutes, and the two
cores drift independently.  An untraced run therefore times this kernel in
its own process before the first set-up probe, after each probe, after the
warm-up and after every operation.  It divides each probe's and operation's
wall time by the host factor around it: the mean of the two kernel times on
either side, over REF_NOMINAL_S.  A time metric is then the wall time the
work would take on the host at its nominal speed.  The kernel uses only
Python, numpy and SciPy, never pxlap, so a change to pxlap moves the metrics
and leaves the factor alone.  The run record keeps the raw wall times and
every kernel sample next to the scaled values.
"""

from __future__ import annotations

import statistics
import time

# A typical time of one kernel() call on a 2-vCPU Intel Xeon virtual machine
# (Python 3.11.7, numpy 2.4.6, SciPy 1.17.1, one BLAS thread).  It only sets
# the scale of the reported times; any fixed value would serve.
REF_NOMINAL_S = 0.09
REPEATS = 3


class HostReference:
    """Times the kernel on demand and keeps every sample of the run."""

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp

        n = 80
        ones = np.ones(n * n)
        # Five-point Laplacian on an n x n lattice: a sparse LU like the solver's.
        self.matrix = sp.diags([-ones[n:], -ones[1:], 4.0 * ones, -ones[1:], -ones[n:]],
                               [-n, -1, 0, 1, n], format="csc")
        self.rhs = ones
        self.vector = np.random.default_rng(0).random(200_000)
        self.samples: list[float] = []

    def kernel(self) -> float:
        """A per-point Python loop, numpy elementwise passes and a sparse LU solve."""
        import numpy as np
        import scipy.sparse.linalg as spla

        t0 = time.perf_counter()
        acc = 0.0
        for i in range(250_000):
            acc += (i % 7) * 0.5
        y = self.vector
        for _ in range(20):
            y = np.sqrt(y * y + 1.0) - 0.5 * y
        spla.splu(self.matrix).solve(self.rhs)
        return time.perf_counter() - t0

    def sample(self) -> None:
        """One sample: the median of a few back-to-back kernel calls."""
        self.samples.append(statistics.median(self.kernel() for _ in range(REPEATS)))

    def bracket(self) -> float:
        """Sample again and return the host factor around the work since the last sample."""
        before = self.samples[-1]
        self.sample()
        return (before + self.samples[-1]) / (2.0 * REF_NOMINAL_S)
