"""Host-speed calibration: time measured at the nominal host speed.

The benchmark host is a shared virtual machine whose throughput swings
by up to 2x for tens of seconds at a time, in CPU time as much as in
wall time (no steal, no preemption: the cores simply run slower).  A
fixed kernel timed at short intervals measures the host's speed at that
moment.  Work timed between two kernel timings is multiplied by the
kernel's nominal time over the geometric mean of the two, i.e. reported
at the nominal host speed.

Two kernels match the two kinds of work in `bml`: ``numeric`` is the
multi-operand ``np.einsum`` sandwich that dominates the grid kernels,
``python`` is the interpreter-bound `fractions.Fraction` arithmetic and
small-object overhead that dominates the pointwise identities and
set-up.  Neither calls `bml`, so a change to the program cannot move
them.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

# Nominal kernel times in seconds: medians on the reference host (2 vCPUs,
# numpy 2.4.6, one OpenBLAS thread).
NOMINAL_S = {"numeric": 0.029, "python": 0.035}
RECALIBRATE_S = 0.5

_rng = np.random.default_rng(0)
_Q = _rng.normal(size=(2304, 10, 2)) + 1j * _rng.normal(size=(2304, 10, 2))
_H = np.eye(10) + 0.1 * _rng.normal(size=(10, 10))


def _numeric():
    for _ in range(2):
        np.einsum("mni,nk,mkj->mij", _Q.conj(), _H, _Q)


def _python():
    s = Fraction(0)
    for i in range(1, 8000):
        s += Fraction(i % 7, i % 5 + 1)


KERNELS = {"numeric": _numeric, "python": _python}


def measure(kind: str):
    """(wall, cpu) seconds of one run of the kernel."""
    w0, c0 = time.perf_counter(), time.process_time()
    KERNELS[kind]()
    return time.perf_counter() - w0, time.process_time() - c0


def scale(kind: str, before, after):
    """Factors taking (wall, cpu) measured between two kernel timings to
    the nominal host speed."""
    return tuple(NOMINAL_S[kind] / math.sqrt(b * a) for b, a in zip(before, after))


class ScaledClock:
    """Sums the (wall, cpu) of timed sections at nominal host speed,
    timing the kernel again once ``RECALIBRATE_S`` has passed."""

    def __init__(self, kind: str):
        self.kind = kind
        KERNELS[kind]()
        self.before = measure(kind)
        self.since = time.perf_counter()
        self.pending = [0.0, 0.0]
        self.total = [0.0, 0.0, 0.0, 0.0]

    def add(self, wall: float, cpu: float) -> None:
        self.pending[0] += wall
        self.pending[1] += cpu
        self.total[2] += wall
        self.total[3] += cpu
        if time.perf_counter() - self.since >= RECALIBRATE_S:
            self.flush()

    def flush(self) -> None:
        after = measure(self.kind)
        for i, f in enumerate(scale(self.kind, self.before, after)):
            self.total[i] += self.pending[i] * f
        self.before, self.since, self.pending = after, time.perf_counter(), [0.0, 0.0]

    def take(self):
        """(wall, cpu) summed since the last call, scaled to the nominal
        host speed, followed by the same two as measured."""
        self.flush()
        out, self.total = tuple(self.total), [0.0, 0.0, 0.0, 0.0]
        return out
