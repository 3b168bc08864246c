"""Reference seconds: wall time scaled by how fast the machine runs right now.

On a machine whose cores are shared, the same pure-Python loop can run
30 to 40 % slower for seconds at a time, so plain wall times of one
program drift more between runs than the changes worth catching.  A pass
therefore times its work in chunks of a fraction of a second and runs a
fixed calibration loop, ``calibration``, before the first chunk and after each
one.  A chunk's wall time is scaled by REFERENCE_CALIBRATION_S over the mean of
the calibrations on its two sides: it becomes the time the chunk would have
taken at the speed the calibration ran at when REFERENCE_CALIBRATION_S was measured.
Parmon's code does not run inside the calibration, so a change to parmon moves
the scaled times exactly as it moves the wall times.

The calibration allocates no containers, so it never starts a garbage
collection whose cost would depend on the heap the pass has built up.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# About what calibration() takes in the faster of the speed regimes seen on
# the 2-core machine the benchmark was built on (Python 3.11.7).  It only
# sets the scale of reference seconds; comparisons need it to stay fixed.
REFERENCE_CALIBRATION_S = 0.0045

_KEYS = [(i, j) for i in range(64) for j in range(64)]
_TABLE = {k: (k[0] * 31 + k[1]) % 97 for k in _KEYS[::3]}
_ROUNDS = 20


def _lookups(table_get, keys) -> int:
    acc = 0
    for k in keys:
        v = table_get(k)
        if v is not None:
            acc += v & 7
    return acc


def calibration() -> float:
    """Wall seconds of a fixed loop of dict lookups and function calls."""
    get = _TABLE.get
    start = perf_counter()
    for _ in range(_ROUNDS):
        _lookups(get, _KEYS)
    return perf_counter() - start


class Clock:
    """Accumulates wall and reference seconds under named keys.

    ``add`` records a wall time in the current chunk; ``checkpoint``
    closes the chunk, timing a calibration on its far side.
    """

    def __init__(self):
        self.wall: Counter = Counter()
        self.ref: Counter = Counter()
        self._pending: Counter = Counter()
        self._last = calibration()

    def add(self, key: str, seconds: float) -> None:
        self._pending[key] += seconds

    def checkpoint(self) -> None:
        now = calibration()
        scale = REFERENCE_CALIBRATION_S / ((self._last + now) / 2)
        for key, seconds in self._pending.items():
            self.wall[key] += seconds
            self.ref[key] += seconds * scale
        self._pending.clear()
        self._last = now
