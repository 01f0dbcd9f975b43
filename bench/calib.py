"""Host-calibrated timing.

On a shared host the same work can take twice as long from one second to the
next: other tenants contend for the cores and caches, and process CPU time
moves with wall time, so neither clock alone is steady. The harness therefore
splits a run into short slices and, between slices, times a fixed reference
loop that uses no repuchain code. A slice's raw seconds are scaled by
``REF_SECONDS / t_ref``, where ``t_ref`` is the mean of the reference times
measured just before and just after the slice. The result is the time the
slice would have taken on a host where the reference loop takes exactly
``REF_SECONDS``.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import defaultdict

# Iterations of the reference loop; about 1.6 ms on the 2-core host the
# reference figures in README.md come from.
REF_ITERS = 800
# The reference constant: the median reference-loop time on that host. It
# sets the scale of every calibrated figure, so it never changes once
# figures have been recorded against it.
REF_SECONDS = 0.0016
# Target raw length of a slice between two reference measurements.
SLICE_SECONDS = 0.04

_PAYLOAD = b"repuchain-bench-reference-loop-payload"
# Two scattered reads per iteration from a fixed 8 MiB buffer make the loop
# feel contention for caches and memory as the simulator does, not only for
# the core. A hashing-only loop slowed more than the simulator in busy
# periods and left per-pass calibrated times about 1.5 times as spread.
_rng = random.Random(0)
_BUFFER = bytearray(_rng.randbytes(1 << 23))
_MASK = len(_BUFFER) - 1
_OFFSETS = [_rng.randrange(1 << 19) for _ in range(4096)]
del _rng


def reference_loop(iters: int = REF_ITERS) -> int:
    """Fixed mix of short hashing, integer, dict and scattered memory reads."""
    sha = hashlib.sha256
    buf, mask, offsets = _BUFFER, _MASK, _OFFSETS
    acc = 0
    table: dict[int, int] = {}
    for i in range(iters):
        digest = sha(_PAYLOAD + i.to_bytes(8, "big")).digest()
        j = offsets[(i * 7) & 4095] * 16 + digest[1]
        acc = (acc * 31 + digest[0] + buf[j & mask] + buf[(j * 31) & mask]) & 0xFFFFFFFF
        table[i & 63] = acc
    return acc + len(table)


class Clock:
    """Accumulates raw and calibrated seconds per category, slice by slice.

    ``lap(kind)`` closes the slice that started at the previous lap, charges
    it to ``kind``, measures the reference loop, and starts the next slice.
    ``on_reference`` wraps each reference measurement, so a tracer can keep
    the harness's own loop out of the program's layer times.
    """

    def __init__(self, on_reference=None):
        self.raw: dict[str, float] = defaultdict(float)
        self.cal: dict[str, float] = defaultdict(float)
        self._on_reference = on_reference
        self._ref_before = self._reference()
        self._start = time.perf_counter()

    def _reference(self) -> float:
        if self._on_reference is not None:
            return self._on_reference(self._time_reference)
        return self._time_reference()

    def _time_reference(self) -> float:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0

    def elapsed(self) -> float:
        """Raw seconds since the current slice began."""
        return time.perf_counter() - self._start

    def lap(self, kind: str) -> float:
        """Close the current slice as ``kind``; return its calibration factor."""
        dt = time.perf_counter() - self._start
        ref_after = self._reference()
        factor = REF_SECONDS / ((self._ref_before + ref_after) / 2.0)
        self._ref_before = ref_after
        self.raw[kind] += dt
        self.cal[kind] += dt * factor
        self._start = time.perf_counter()
        return factor

    def factor(self, kind: str) -> float:
        """Mean calibration factor over everything charged to ``kind``."""
        return self.cal[kind] / self.raw[kind] if self.raw[kind] else 1.0
