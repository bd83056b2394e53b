"""Scaling measured times to a reference machine speed.

The machines this benchmark runs on are shared, and their speed drifts by a
quarter or more over seconds to minutes. CPU time tracks wall time through
the drift, so the CPU itself runs slower; the process is not losing its
turn. Code made of small numpy, LAPACK and interpreter steps slows by about
the same factor as a fixed task of the same kind.

While the worker measures, ``Pacer`` runs such a task every ``TICK_S`` from
an interval-timer signal. The task takes about a millisecond. When it
interrupts a long call, its time is subtracted from that call. A stretch of calls is then
scaled by ``REFERENCE_S`` over the mean task time around it. That puts
every figure at the speed at which the task takes ``REFERENCE_S``.

The task shares no code with ges4 and must not change: changing it
rescales every figure.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

import reference as ref

REFERENCE_S = 1.0e-3     # the task's time on the undisturbed 2-core reference machine
TICK_S = 0.05
WINDOW_S = 0.25          # ticks this close to a stretch of calls set its scale

_THETAS = (0.3, 0.6, 0.9, 1.2)
_A = np.arange(24.0)
_H = np.cos(np.add.outer(_A, 2.0 * _A)) + 1j * np.sin(np.subtract.outer(_A, 0.5 * _A))
_H = _H + _H.conj().T


def task_seconds() -> float:
    """Wall time of one run of the calibration task."""
    t0 = time.perf_counter()
    branch = ref.interferometer(0.7, _THETAS)[1]
    psi = branch / np.linalg.norm(branch)
    for pair in ref.PAIRS:
        ref.concurrence(psi, pair)
    for side in ref.PAIR_CUTS + ref.SINGLE_CUTS:
        ref.cut_entropy(psi, side)
    np.linalg.eigh(_H)
    return time.perf_counter() - t0


class Pacer:
    """Runs the calibration task on a timer and keeps its times.

    A tick that arrives during a call younger than ``LONG_S`` waits until
    the call returns, so short calls are never interrupted and keep their
    caches. Longer calls are sampled while they run, so the scale follows
    the drift inside them.
    """

    LONG_S = 0.2

    def __init__(self):
        self.ticks = []           # (perf_counter at the end of a tick, task seconds)
        self.paused_s = 0.0       # time spent running the task inside calls
        self._call_start = None
        self._pending = False
        self._previous = None

    def _run_task(self) -> float:
        t0 = time.perf_counter()
        task = task_seconds()
        t1 = time.perf_counter()
        self.ticks.append((t1, task))
        return t1 - t0

    def _tick(self, signum, frame):
        start = self._call_start
        if start is None:
            self._run_task()
        elif time.perf_counter() - start < self.LONG_S:
            self._pending = True
        else:
            self.paused_s += self._run_task()

    def begin_call(self):
        self._call_start = time.perf_counter()

    def end_call(self):
        self._call_start = None
        if self._pending:
            self._pending = False
            self._run_task()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean task time near the stretch [start, end]."""
        near = [t for when, t in self.ticks if start - WINDOW_S <= when <= end + WINDOW_S]
        return REFERENCE_S / statistics.fmean(near or [t for _, t in self.ticks])
