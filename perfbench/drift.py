"""Drift correction and summary statistics.

Wall time on a shared 2-vCPU box drifts by up to 1.9x on identical work, and
CPU time drifts with it, so neither repeats within a tenth.  Every timed
sample is therefore scaled by REFERENCE_NOMINAL_S / (time of a fixed
reference loop run right after the sample).  The loop uses neither the
simulator nor anything an optimisation of it could change, so a faster
simulator still shows as a smaller corrected time.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time

# Duration of reference_loop() on the reference box (2 vCPU Xeon, Python
# 3.11) when it is quiet.  Corrected values are "seconds at that speed".
REFERENCE_NOMINAL_S = 0.0070

# Cold starts drift with process creation and imports, not with compute: the
# reference loop run after a cold start spread by 35% there.  setup_s is
# therefore scaled by a fresh `python3 -c pass` started right after each
# probe, whose time on the reference box is this.
STARTUP_NOMINAL_S = 0.070


def reference_loop() -> int:
    """Fixed work mixing the two costs the simulator is made of: SHA-256 of
    short messages with integer decoding, and plain interpreter arithmetic
    with list traffic."""
    h = hashlib.sha256
    acc = 0
    keep = {}
    for i in range(4000):
        x = h(i.to_bytes(8, "big") + b"reference-loop").digest()
        acc ^= int.from_bytes(x[:8], "big")
        keep[i & 255] = (x, i)
    buf = []
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        buf.append(acc)
        if len(buf) > 64:
            buf.clear()
    return acc


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def correction(ref_seconds: float) -> float:
    """Factor that maps a raw time measured next to `ref_seconds` of the
    reference loop onto the nominal machine speed."""
    return REFERENCE_NOMINAL_S / ref_seconds


median = statistics.median


def tail_percentile(values, want: float = 0.99, beyond: int = 10):
    """(value, percentile) at `want`, or at the highest percentile that still
    leaves `beyond` samples above it when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    q = max(0.5, min(want, 1.0 - beyond / n))
    return xs[max(0, math.ceil(q * n) - 1)], q
