"""The reference probe: the unit of the benchmark's host-normalised times.

It imports nothing from sepkit, so it can bracket the import of sepkit too.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The nominal probe time in seconds.  A time in probe units times this reads
# in seconds on a host where one probe takes this long.  Changing it changes
# every ``setup_s`` figure.
REF_S = 3e-4
# Probes in a burst around each timed set-up part: about 8 ms of probing.
BURST = 20


def probe() -> float:
    """Seconds taken by one fixed slice of exact rational arithmetic.

    Its mean over a run is the unit of the ``*_rel`` metrics: a shared host's
    slowdown stretches the probe as it stretches the operations, so the ratio
    follows the program's cost far more than the host's load.  Changing this
    function changes that unit.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
    return time.perf_counter() - t0


def burst() -> list[float]:
    """BURST probes back to back."""
    return [probe() for _ in range(BURST)]
