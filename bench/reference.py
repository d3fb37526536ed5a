"""A fixed chunk of reference work that tracks the host's current speed.

The host this benchmark was built on switches between speed regimes that
last from under a second to minutes; this chunk itself takes about 0.09 s
in the fast regime and about 0.17 s in the slow one. Work that does not
touch ``leeway`` slows down in step with the program. In a four-minute
trace of ``counterfactual`` calls, the medians of 25-second windows of raw
call time spread by 22% (IQR over median), but by 3% once each call was
scaled by a shorter (0.03 s) version of this chunk timed right before and
after it.

So the benchmark times this chunk right before and right after each timed
operation. It scales the operation's wall time by ``REF_SECONDS`` over the
mean of the two. The result is the wall time the operation would take on
this host when the chunk takes ``REF_SECONDS``, which is about its time in
the host's fast regime. The chunk mixes what the workloads do: numpy calls
on small arrays, float formatting and parsing into lists of rows, and dict
updates. It is frozen: changing it changes every scaled figure.
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_SECONDS = 0.090


def reference_work() -> float:
    x = np.linspace(-4.0, 4.0, 161)
    acc = 0.0
    for k in range(2400):
        y = np.tan(np.pi * np.clip(x * (0.01 * (k % 7 + 1)), -0.4, 0.4))
        acc += float(np.where(y > 0.0, y, -y).sum())
    text = ",".join(repr(v * 1.000001) for v in range(24000))
    acc += math.fsum(float(t) for t in text.split(","))
    lines = [",".join(repr(i * 0.001 + j) for j in range(18)) for i in range(3000)]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    acc += rows[-1][-1]
    counts: dict[int, int] = {}
    for i in range(160000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class HostSpeed:
    """Scales wall times by the reference chunk timed around them.

    Call :meth:`scale` right after each timed piece of work; the chunk
    timed by the previous call (or at construction) is the one before it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.restart()

    def restart(self):
        """Time a fresh chunk to stand before the next timed piece of work."""
        self.before = reference_time()
        self.samples.append(self.before)

    def scale(self, elapsed: float) -> float:
        after = reference_time()
        factor = 2.0 * REF_SECONDS / (self.before + after)
        self.before = after
        self.samples.append(after)
        return elapsed * factor
