"""Measure how fast the machine runs right now, and rescale op times by it.

The shared host this benchmark runs on changes speed in phases, from a
tenth of a second to minutes long: at times every op runs up to twice as
slow, in CPU time as well as wall time, so the cause is the core, not
descheduling. A fixed piece of work of the same kind as lvmut's
(Python-level loops over small numpy arrays, plane rotations of a dense
n = 128 matrix, 17-digit float formatting) slows in nearly the same
proportion: within a few per cent, where raw times move by tens.

`Gauge` runs that calibration loop before and after each timed op, and
every `TICK_S` during it from a SIGALRM handler, so long ops are sampled
through their whole length. The time spent in loops is taken out of the
op's time. The op's rescaled time is its time multiplied by the mean of
`REFERENCE_S / loop time` over its samples: what the op would take with
the machine at the speed where one loop takes `REFERENCE_S`, about the
fast phase of a 2-vCPU Xeon VM. The loop never calls lvmut, so a change to
lvmut moves only the op's side of the ratio.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0025
TICK_S = 0.02

_STEPS = 600
_PAIRS = 11   # rotate rows and columns p, q for p < q < _PAIRS
_A = np.random.default_rng(0).uniform(0.0, 1.0, size=(4, 4))
_S = np.random.default_rng(1).uniform(0.0, 1.0, size=(128, 128))


def calibration_loop() -> float:
    """Run the fixed calibration work once; return its wall seconds."""
    start = time.perf_counter()
    # integrator-like: many numpy calls on a 4-vector
    v = np.ones(4)
    for _ in range(_STEPS):
        v = v + 1e-3 * v * (1.0 - (_A @ v) / 10.0)
    # Jacobi-like: plane rotations of strided columns and rows, n = 128
    s = _S.copy()
    c, sn = 0.8, 0.6
    for p in range(_PAIRS):
        for q in range(p + 1, _PAIRS):
            cp, cq = s[:, p].copy(), s[:, q].copy()
            s[:, p], s[:, q] = c * cp - sn * cq, sn * cp + c * cq
            rp, rq = s[p].copy(), s[q].copy()
            s[p], s[q] = c * rp - sn * rq, sn * rp + c * rq
    # writer-like: 17-digit text
    text = ",".join(repr(float(x)) for x in s[0])
    if not (np.all(np.isfinite(v)) and text):
        raise RuntimeError("calibration loop went wrong")
    return time.perf_counter() - start


def rescale(seconds: float, loops: list[float]) -> float:
    """`seconds` at the reference speed, given loop times sampled around them."""
    return seconds * statistics.fmean(REFERENCE_S / t for t in loops)


class Gauge:
    """Samples the machine's speed around and during each timed op of a pass.

    Use `begin()` right before the op and `end(seconds)` right after it; the
    loop after one op also serves as the loop before the next.
    """

    def __init__(self):
        self.loop_s = 0.0          # time spent in calibration loops, all told
        self._last: float | None = None
        self._window: list[float] = []
        self._ticked_s = 0.0

    def _loop(self) -> float:
        t = calibration_loop()
        self.loop_s += t
        return t

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._window.append(self._loop())
        self._ticked_s += time.perf_counter() - start

    def begin(self) -> None:
        self._window = [self._last if self._last is not None else self._loop()]
        self._ticked_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        """Stop sampling; call as soon as the op returns, before reading the clock."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def end(self, seconds: float) -> tuple[float, float]:
        """The op's own time (ticks taken out) and that time rescaled."""
        self._last = self._loop()
        self._window.append(self._last)
        own = seconds - self._ticked_s
        return own, rescale(own, self._window)
