"""Machine-speed calibration for timings taken on a shared machine.

Other tenants of a shared host slow each of its cores by up to about 2x,
in spells of seconds to minutes, and every timing of the program moves
with them. A second process cannot measure this for the program: the
slowdown differs from core to core. So the benchmark runs a fixed piece of
pure-Python work, ``kernel``, in the program's own thread, between or
during the spans it times, and scales each span by ``REFERENCE_S`` over the
kernel time measured around it. A scaled time reads as the time the span
would take on a machine on which the kernel takes ``REFERENCE_S``. The
kernel is the benchmark's own code, so a change to ``hmot`` moves the
scaled times but not the scale.

- ``Clock`` suits many short samples taken in a loop (frame steps): it
  runs the kernel between groups of samples, so no kernel lands inside one.
- ``Sampler`` suits long spans of the main thread (a cold command, a
  ``generate`` call): a timer runs the kernel every ``SAMPLE_EVERY_S``
  inside the span, spans are timed with ``net_clock``, which leaves the
  kernels' own time out, and ``Sampler.scale`` scales each span by the
  kernels run nearest to it. Its kernels land inside the spans it times,
  which is why the frame-step loop uses a ``Clock`` instead.

This module imports only ``bisect``, ``signal`` and ``time``, which cost
a cold child next to nothing beside the kernels.
"""

from __future__ import annotations

import bisect
import signal
import time

# A round figure near the kernel's time on a quiet core of a 2-vCPU Intel
# Xeon VM, where it measured 1.7 to 2.2 ms in fast spells and up to twice
# that in slow ones. Scaled times are in seconds of that machine when quiet.
REFERENCE_S = 0.0020
SAMPLE_EVERY_S = 0.05

_spent = 0.0  # seconds this process spent in Sampler kernels


def kernel() -> float:
    """Run the calibration work once and return its wall time in seconds."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(8000):
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
        total += table[i & 255] % 7.0
    return time.perf_counter() - t0


def net_clock() -> float:
    """``time.perf_counter`` less the time spent in Sampler kernels, so a
    span timed with it leaves out the kernels that ran inside it."""
    return time.perf_counter() - _spent


class Clock:
    """Records short timings and scales them to the reference speed.

    ``record`` stores a raw sample; ``calibrate`` runs the kernel and
    scales every sample recorded since the previous ``calibrate`` by the
    mean of the kernel times just before and just after them.
    """

    def __init__(self) -> None:
        self.last = kernel()
        self.factors: list[float] = []
        self._pending: list[tuple[list, int]] = []

    def record(self, samples: list, seconds: float) -> None:
        samples.append(seconds)
        self._pending.append((samples, len(samples) - 1))

    def calibrate(self) -> None:
        now = kernel()
        factor = REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        if self._pending:
            self.factors.append(factor)
        for samples, i in self._pending:
            samples[i] *= factor
        self._pending.clear()

    def speed(self) -> float:
        """Median factor applied: below 1 when the machine ran slower than
        the reference. Raw time = scaled time / speed()."""
        if not self.factors:
            return 1.0
        return sorted(self.factors)[len(self.factors) // 2]


class Sampler:
    """Samples the machine speed during one long span of the main thread.

    Inside ``with Sampler() as s:`` a SIGALRM timer runs the kernel every
    ``SAMPLE_EVERY_S`` of wall time, between two bytecodes of the main
    thread; one more kernel runs on entry and one on exit. ``spent`` is
    the kernels' total time. The ticks are even in wall time, so the mean
    of ``REFERENCE_S / kernel`` over them, ``factor``, converts the span's
    wall time less ``spent`` into reference seconds. ``scale`` does the
    same for a shorter span inside, by the ticks nearest to it.
    """

    def __enter__(self) -> "Sampler":
        self.kernels: list[float] = []
        self.at: list[float] = []  # net_clock() at each tick
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _tick(self, *_) -> None:
        global _spent
        self.at.append(net_clock())
        k = kernel()
        self.kernels.append(k)
        self.spent += k
        _spent += k

    def factor(self) -> float:
        return sum(REFERENCE_S / k for k in self.kernels) / len(self.kernels)

    def scale(self, start: float, end: float) -> float:
        """The span from ``start`` to ``end``, two ``net_clock`` readings
        inside the sampler, in reference seconds: scaled by the mean factor
        of the ticks within it and the tick on each side of it."""
        lo = max(bisect.bisect_right(self.at, start) - 1, 0)
        hi = min(bisect.bisect_left(self.at, end) + 1, len(self.at))
        ticks = self.kernels[lo:hi]
        return (end - start) * sum(REFERENCE_S / k for k in ticks) / len(ticks)
