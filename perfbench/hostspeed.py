"""Rescaling measured times to a fixed reference speed of the host.

On a shared host the same Python work can take twice as long from one
minute to the next; a shared 2-CPU Linux host running Python 3.11 showed
such swings while the benchmark was the only busy process, with the
host flipping between a fast and a slow state every few seconds.  Raw
wall-clock figures then move more between runs than any change worth
measuring.  So the benchmark times a fixed reference slice of
pure-Python work (exact fractions, tuples, dicts, a sort; no finetrop
code) before the first item and after every stretch of about
``PROBE_EVERY_S`` of item time.  Each item time is multiplied by
``REF_NOMINAL_S / probe``, where ``probe`` is the median of the four
probes nearest to the item: the two before it and the two after it (the
last items of a run have only those before them).  The host's state is
thus read around each item, and no single probe sets an item's scale.
The result reads as seconds on the host running at the speed where the
slice takes ``REF_NOMINAL_S``.  Raw times are kept beside the scaled
ones.

The garbage collector is paused while a probe runs, so the probe does not
pay for collecting the heap the program under test left behind.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.003
PROBE_EVERY_S = 0.2


def reference_slice() -> int:
    acc: dict = {}
    total = Fraction(0)
    for i in range(1, 300):
        f = Fraction(i % 17 - 8, i % 11 + 1)
        g = f * f + Fraction(1, i % 5 + 2)
        total = total + g if total.denominator < 10**6 else g
        key = (i % 13, g)
        acc[key] = acc.get(key, 0) + 1
    return len(sorted(acc))


def probe() -> float:
    """Median time of three reference slices, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_slice()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Scaler:
    """Collects times in order, probing the host between stretches."""

    def __init__(self, probe_every: float = PROBE_EVERY_S):
        self.probe_every = probe_every
        self.raw: list[float] = []
        self.probes: list[float] = [probe()]
        self._after: list[int] = []  # index of the last probe before each time
        self._stretch_s = 0.0

    def add(self, dt: float) -> None:
        self.raw.append(dt)
        self._after.append(len(self.probes) - 1)
        self._stretch_s += dt
        if self._stretch_s >= self.probe_every:
            self.probes.append(probe())
            self._stretch_s = 0.0

    @property
    def scaled(self) -> list[float]:
        P = self.probes
        return [x * REF_NOMINAL_S / statistics.median(P[max(0, i - 1):i + 3])
                for x, i in zip(self.raw, self._after)]

    @property
    def host_speed(self) -> float:
        """The run's speed relative to the reference: median over probes."""
        return REF_NOMINAL_S / statistics.median(self.probes)
