"""The reference kernel that converts raw seconds into calibrated seconds.

The host's speed drifts from run to run and within a run, so every timed
phase is divided by the time of this fixed kernel, measured right before and
right after the phase, and multiplied by the kernel's nominal time.  The
kernel belongs to the benchmark, never changes with the program, and does
the same kind of work as the exact core: Gaussian-rational elimination on
pairs of Fraction held in lists, plus a small dense numpy solve.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np

#: Seconds the kernel is taken to last; calibrated times are in these units.
KERNEL_NOMINAL_S = 0.025

_SIZE = 10
_SOLVES = 50
_MATRIX = [
    [(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4),
      Fraction((i * 5 + j) % 7 - 3, 1 + (i * j) % 3)) for j in range(_SIZE)]
    for i in range(_SIZE)
]
_A = np.add.outer(np.arange(48.0), np.arange(48.0)) % 7 + 48.0 * np.eye(48)
_B = np.arange(48.0)


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _inv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return (a[0] / d, -a[1] / d)


def _fraction_work() -> int:
    """Gauss-Jordan over Q(i) on a fixed matrix of (re, im) Fraction pairs.

    Kept apart from exact.rank so that changes to the checking code can
    never change the kernel and with it every calibrated time.
    """
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for c in range(_SIZE):
        piv = next((i for i in range(rank, _SIZE) if rows[i][c] != (0, 0)), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale = _inv(rows[rank][c])
        rows[rank] = [_mul(x, scale) for x in rows[rank]]
        for i in range(_SIZE):
            if i != rank and rows[i][c] != (0, 0):
                f = rows[i][c]
                rows[i] = [_sub(x, _mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _numpy_work() -> float:
    acc = 0.0
    for _ in range(_SOLVES):
        acc += float(np.linalg.solve(_A, _B)[0])
    return acc


def kernel_seconds() -> float:
    """Raw seconds of one kernel run, after a garbage collection."""
    gc.collect()
    t0 = time.perf_counter()
    _fraction_work()
    _numpy_work()
    return time.perf_counter() - t0


def calibrate(raw: float, kernels: list[float]) -> float:
    """Raw phase seconds in kernel units, from the kernels run around the phase."""
    return raw * KERNEL_NOMINAL_S / statistics.median(kernels)
