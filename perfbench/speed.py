"""Scaling host times to a reference interpreter speed.

The benchmark runs on shared machines whose cores switch between fast
and slow phases, tens of milliseconds long, as other tenants load
them; over minutes the mix drifts by tens of percent.  A
:class:`Speedometer` therefore samples a short fixed calibration loop
every few tens of milliseconds of a repetition, and the repetition's
host times are scaled by ``REFERENCE_CALIBRATION_S / mean sample``:
they read as host time on a machine that runs the loop in exactly
:data:`REFERENCE_CALIBRATION_S`.  The loop lives here, not in the
program, so no change to the program can move it, and the time spent
in it is left out of every measured interval.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

#: Calibration time that defines the reference speed (a 2.0 GHz Xeon
#: core in a fast phase runs the loop in about this long).
REFERENCE_CALIBRATION_S = 0.001

#: Host time between two calibration samples within a repetition.
SAMPLE_INTERVAL_S = 0.025


def calibration_s() -> float:
    """Host seconds of one fixed interpreter-bound loop.

    The mix matches the program's hot loops: small dict updates, tuple
    indexing and integer arithmetic.
    """
    started = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    row = (3, 1, 4, 1, 5, 9, 2, 6)
    for i in range(6_000):
        key = i & 1023
        table[key] = table.get(key, 0) + 1
        acc += row[i & 7] * (i & 15)
        if acc > 1 << 30:
            acc >>= 8
    acc += min(table.values())
    return time.perf_counter() - started


class Speedometer:
    """Calibration samples taken during one repetition.

    Attributes:
        probe: The calibration loop; a traced run wraps it in a span so
            that its time is not counted as any layer's self time.
        samples: Calibration loop times, in seconds.
        spent_s: Host time spent sampling, to leave out of measurements.
    """

    def __init__(self) -> None:
        self.probe: Callable[[], float] = calibration_s
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._due = 0.0

    def sample(self) -> None:
        """Take one calibration sample."""
        started = time.perf_counter()
        self.samples.append(self.probe())
        ended = time.perf_counter()
        self.spent_s += ended - started
        self._due = ended + SAMPLE_INTERVAL_S

    def tick(self) -> None:
        """Take a sample when the interval since the last one has passed."""
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self) -> float:
        """Factor from measured host time to reference-speed host time."""
        return REFERENCE_CALIBRATION_S / statistics.mean(self.samples)
