"""A fixed reference loop that measures how fast the host runs right now.

The measuring host is shared: the same fixed amount of program work takes up
to 1.75 times longer in slow stretches that last from seconds to minutes,
and CPU time slows down with wall time, so neither longer runs nor
``process_time`` remove it. The timed loop therefore runs this loop after
every op, for about ``SHARE`` of the op's time, and scales the op's seconds
by how fast the reference ran just before and just after it
(``host_factor``). The loop's code and data are the benchmark's own, so a
change to the program moves the op time and leaves the reference alone.

The loop does what the program's inner loops do: small dense
factorizations and triangular solves on 6x6 blocks, in NumPy and SciPy,
with Python-level bookkeeping between them.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_triangular

# Seconds one unit takes on the unloaded measuring host (Intel Xeon, 2 vCPU,
# Python 3.11, OpenBLAS pinned to one thread). It only fixes the scale of the
# scaled seconds; any constant would do, as long as it never changes.
UNIT_S = 40e-6
# Reference time as a share of op time.
SHARE = 0.1

_BLOCKS = 16


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20160825)
        self._mats = [rng.standard_normal((6, 6)) for _ in range(_BLOCKS)]
        self._rhs = rng.standard_normal((6, 2))
        self._eye = np.eye(6)
        self.units = 0
        self.seconds = 0.0
        self._last = (0, 0.0)

    def _unit(self, i: int, acc: dict) -> None:
        m = self._mats[i % _BLOCKS]
        lower = np.linalg.cholesky(m @ m.T + self._eye)
        white = solve_triangular(lower, self._rhs, lower=True)
        acc["logdet"] = acc.get("logdet", 0.0) + 2.0 * float(np.log(np.diag(lower)).sum())
        acc["norm"] = acc.get("norm", 0.0) + float((white * white).sum())

    def run(self, units: int) -> float:
        """Run ``units`` units; return the seconds they took."""
        acc: dict = {}
        start = time.perf_counter()
        for i in range(units):
            self._unit(i, acc)
        seconds = time.perf_counter() - start
        self.units += units
        self.seconds += seconds
        return seconds

    def after(self, op_seconds: float) -> float:
        """Run the reference for about SHARE of an op's time; return the op's scaled seconds.

        The host speed for the op is read from the reference runs on both
        sides of it: this one and the one before (the previous op's, or
        ``prime``'s), so a change of speed during the op counts from both ends.
        """
        units = max(8, round(SHARE * op_seconds / UNIT_S))
        seconds = self.run(units)
        before_units, before_seconds = self._last
        self._last = (units, seconds)
        return op_seconds * host_factor(before_units + units, before_seconds + seconds)

    def prime(self, units: int = 2500) -> None:
        """A first reference run, read by the first op's ``after``."""
        self._last = (units, self.run(units))


def host_factor(units: int, seconds: float) -> float:
    """Reference speed over measured speed: 0.5 when the host runs twice as slow as nominal."""
    return units * UNIT_S / seconds
