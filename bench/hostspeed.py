"""Host-speed reference that every reported time is rescaled by.

On a shared host the same run takes up to about 1.9 times longer in a slow
spell than in a fast one, and the spells last from seconds to tens of
seconds, so the raw time of a run says as much about the neighbours as about
the program.  A *reference chunk* is fixed work that never touches fishgame:
a pure-Python loop, small-object churn, small numpy ufunc calls and three
sparse LU solves with scipy.  Its CPU time follows the host's speed of the
moment closely: in a 90 s interleaved test its block correlation was 0.95
with fishgame's 1D optimize steps and 0.97 with mfhg's fish_forward.  Work
on large 2D arrays slows more than this chunk in slow spells, so a workload
can name the ``"large"`` chunk instead (see ``chunk``).  A run's *speed
factor* is ``NOMINAL_S`` over the mean CPU time of the chunks
timed while it ran; the reported time is the raw time times that factor,
that is the time the run would take on a host where one chunk takes
``NOMINAL_S`` seconds.

``Sampler`` times one chunk every ``PERIOD`` seconds from a SIGALRM handler
in the main thread while a run goes on, so on the same CPU and with the
caches as the run leaves them.  While worker threads are alive the handler
takes no sample: the chunk then competes with them for the interpreter lock,
and its CPU time grew fourfold in a test with two busy threads.  Runs left
with fewer than ``MIN_SAMPLES`` samples use the samples of a ``Monitor``
instead, a separate process that times a chunk every ``PERIOD`` seconds for
as long as the benchmark runs (``python3 hostspeed.py`` is that process).
"""

from __future__ import annotations

import json
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Nominal CPU seconds of one chunk, per kind of reference (see chunk()).
NOMINAL_S = {"small": 1.5e-3, "large": 2.5e-3}
PERIOD = 0.2          # seconds between samples
MIN_SAMPLES = 8       # fewer in-run samples than this: use the monitor's
BURST_S = 0.1         # seconds of back-to-back chunks in one burst


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def affine(self, y):
        return self.a * y + self.b


_V = np.linspace(0.1, 1.0, 129)
_N = 12
_L1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_A = (sp.kron(_L1, sp.eye(_N)) + sp.kron(sp.eye(_N), _L1) + sp.eye(_N * _N)).tocsc()
_B = np.ones(_N * _N)
_N2 = 49
_L2 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N2, _N2))
_LU2 = spla.splu((sp.kron(_L2, sp.eye(_N2)) + sp.kron(sp.eye(_N2), _L2)
                  + sp.eye(_N2 * _N2)).tocsc())
_B2 = np.ones(_N2 * _N2)


def chunk(reference: str = "small") -> float:
    """Run one reference chunk; return its CPU time in seconds.

    A ``"large"`` chunk is twelve solves with a prefactored 2401-unknown LU
    instead, for work on large 2D arrays.  In slow spells, mfhg's
    fish_forward slowed 1.18 times as much as the small chunk (in log
    terms) and 0.96 times as much as these solves.
    """
    t0 = time.thread_time_ns()
    if reference == "large":
        for _ in range(12):
            _LU2.solve(_B2)
        return (time.thread_time_ns() - t0) * 1e-9
    s = 0
    for i in range(3000):
        s += i * i
    d = {}
    for i in range(600):
        d[i % 97] = _Pair(i, 1.0).affine(0.5)
    sorted(d.values())
    y = _V
    for _ in range(60):
        y = np.maximum(np.minimum(y * 1.0001 + 0.001, 1.0), 0.0)
    float(y.sum())
    for _ in range(3):
        spla.splu(_A).solve(_B)
    return (time.thread_time_ns() - t0) * 1e-9


def burst(seconds: float = BURST_S) -> list:
    """Small-chunk CPU times, back to back, for about ``seconds`` of wall
    time."""
    end = time.perf_counter() + seconds
    samples = [chunk()]
    while time.perf_counter() < end:
        samples.append(chunk())
    return samples


def factor(samples: list, reference: str = "small") -> float:
    """Speed factor for a stretch of time sampled by ``samples``."""
    return NOMINAL_S[reference] / statistics.fmean(samples)


class Sampler:
    """Times a chunk every ``PERIOD`` seconds while the block runs.  Main
    thread only (signal handlers run there)."""

    def __init__(self, reference: str):
        self.reference = reference
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        if threading.active_count() == 1:
            self.samples.append(chunk(self.reference))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Monitor:
    """Child process that times a chunk every ``PERIOD`` seconds until the
    block ends; ``between`` gives the samples of a stretch of ``clock()``."""

    def __init__(self, reference: str):
        self.reference = reference
        self.samples = []

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__, self.reference],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        out, _ = self._proc.communicate("")   # closing its stdin stops it
        if self._proc.returncode == 0:
            self.samples = json.loads(out)

    def between(self, start: float, end: float) -> list:
        return [cpu for t, cpu in self.samples if start <= t <= end]


def _monitor(reference: str) -> None:
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        samples.append((clock(), chunk(reference)))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _monitor(sys.argv[1])
