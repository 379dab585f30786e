"""A machine-speed index, so that reported times do not follow the machine's drift.

On a shared virtual machine the same op can take 20-40% longer from one
minute to the next, and the speed can jump within a run.  The index times
three fixed kernels that stand for the program's cost regimes, a batch of
small eigensolves (call overhead), one mid-sized dense eigensolve, and the
parse of a JSON array of [re, im] pairs (allocation), between the ops
being measured, and takes the geometric mean of their medians over the
samples nearest in time.  An op that took t while the
index read I is reported as t * REFERENCE_INDEX_S / I: the time it takes
on a machine whose index is REFERENCE_INDEX_S.  Raw times are printed
alongside.  The kernels use numpy only, never expconvex, so no change to
the program can move the index.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
import time

import numpy as np

# about the index of a 2-vCPU x86-64 virtual machine with OpenBLAS on one thread
REFERENCE_INDEX_S = 8e-4
# samples nearest in time that make an op's local index
WINDOW = 5


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


class SpeedIndex:
    """Timed samples (time, kernel seconds...) of the calibration kernels."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [_hermitian(rng, 6) for _ in range(20)]
        self._dense = _hermitian(rng, 96)
        self._text = json.dumps({"entries": rng.standard_normal((4000, 2)).tolist()})
        self.samples: list[tuple[float, ...]] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for m in self._small:
            np.linalg.eigvalsh(m)
        t1 = time.perf_counter()
        np.linalg.eigvalsh(self._dense)
        t2 = time.perf_counter()
        json.loads(self._text)
        t3 = time.perf_counter()
        self.samples.append((t3, t1 - t0, t2 - t1, t3 - t2))


def index(samples) -> float:
    """Geometric mean of the kernels' median times, in seconds."""
    medians = [statistics.median(s[k] for s in samples) for k in range(1, len(samples[0]))]
    return math.prod(medians) ** (1.0 / len(medians))


def scales(samples, times) -> list[float]:
    """For each time, REFERENCE_INDEX_S over the index of the WINDOW samples nearest it."""
    sample_times = [s[0] for s in samples]
    width = min(WINDOW, len(samples))
    out = []
    for t in times:
        j = bisect.bisect_left(sample_times, t)
        lo = min(max(0, j - width // 2), len(samples) - width)
        out.append(REFERENCE_INDEX_S / index(samples[lo:lo + width]))
    return out
