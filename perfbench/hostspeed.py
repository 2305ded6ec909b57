"""Host-speed normalisation of measured times.

Small shared hosts switch between speed modes: on the 2-vCPU host this
benchmark was written on, a fixed Python loop runs about 1.6× slower for
seconds at a time while other tenants are busy, and every timing of the
program moves with it.  Ten runs then scatter by 15–25%, which hides
real changes.

The probe times a fixed calibration loop between requests (never inside
a timed interval), at most every ``every_s`` seconds.  A measured time is
reported as ``raw × REFERENCE_S / loop``, with ``loop`` the latest
calibration: the time the work would have taken on a host where the loop
takes ``REFERENCE_S``.  A change to the program moves the raw time and
not the loop, so it shows in full; a change of host speed moves both and
cancels.  ``run.py`` prints the raw figures next to the normalised ones.
"""

from __future__ import annotations

import statistics
import time

#: The calibration loop's time on the reference host (the fast mode of
#: the 2-vCPU host above); only the ratio to it matters.
REFERENCE_S = 0.0009


def calibration_loop() -> int:
    """Fixed interpreter work: dict updates, tuple allocation, appends."""
    table: dict[int, int] = {}
    kept = []
    for i in range(8000):
        key = i % 257
        table[key] = table.get(key, 0) + i
        if i % 7 == 0:
            kept.append((key, i))
    return len(kept) + len(table)


class SpeedProbe:
    def __init__(self, every_s: float = 0.2):
        self.every_s = every_s
        self.samples: list[float] = []
        #: Seconds spent calibrating, for callers that time across ticks.
        self.spent = 0.0
        self._last = float("-inf")
        self.factor = 1.0

    def measure(self) -> float:
        """Time the loop (best of two, so a lone interrupt is not taken
        for a slow host); returns the updated normalisation factor."""
        perf_counter = time.perf_counter
        start = perf_counter()
        best = float("inf")
        for _ in range(2):
            began = perf_counter()
            calibration_loop()
            best = min(best, perf_counter() - began)
        self.samples.append(best)
        self.factor = REFERENCE_S / best
        self._last = perf_counter()
        self.spent += self._last - start
        return self.factor

    def tick(self) -> float:
        """Re-measure when the last calibration is older than ``every_s``;
        returns the current factor."""
        if time.perf_counter() - self._last >= self.every_s:
            self.measure()
        return self.factor

    def factor_since(self, first_sample: int) -> float:
        """Factor from the median calibration taken since ``first_sample``."""
        return REFERENCE_S / statistics.median(self.samples[first_sample:])
