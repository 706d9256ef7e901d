"""Latencies at a nominal host speed.

The shared 2-core host this benchmark was defined on has spells, from
seconds to minutes long, in which all code runs up to twice as slowly; raw
figures of ten runs then spread by 20-35 %.  So every op, and every set-up
probe, is timed next to a fixed reference kernel, run just before and just
after it, and its time is reported relative to the kernel's, in units of
the kernel's time on the quiet host (``REF_MS``).  A change to the program
moves the op time and not the kernel; a slow spell of the host moves both.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Reference kernel time on a quiet 2-core Xeon at 2.0 GHz (min 1.40 ms,
# 5th percentile 1.51 ms over 3000 runs).
REF_MS = 1.5

_X = np.linspace(0.0, 10.0, 1000)
_A = np.arange(1600.0).reshape(40, 40) / 1600.0


def reference() -> float:
    """Seconds for a fixed mix of interpreter, numpy and LAPACK work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += math.sin(i * 0.001) * (i % 7)
    for _ in range(30):
        acc += float(np.sum(np.sin(_X) * np.cos(_X)))
    acc += float(np.linalg.eigvals(_A + _A.T).real.sum())
    return time.perf_counter() - t0


def nominal_ms(latencies: list[list[float]], refs: list[list[float]]) -> list[float]:
    """Per op, its least latency over the passes over the least reference time
    around it, in ms at REF_MS.

    ``latencies[p][i]`` is op i in pass p; ``refs[p][i]`` and
    ``refs[p][i + 1]`` are the kernel times just before and after it.  Taking
    both minima apart keeps a burst that hits only the kernel, or only the
    op, from deciding the ratio.
    """
    return [
        REF_MS * min(lat[i] for lat in latencies) / min(0.5 * (ref[i] + ref[i + 1]) for ref in refs)
        for i in range(len(latencies[0]))
    ]
