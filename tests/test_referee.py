"""Both trace kernels against a high-precision referee.

mpmath diagonalizes t*A + B at 40 significant digits, with A, B and t taken exactly from their
doubles, and sums e^{lambda_i}: the true f(t) = tr e^{tA + B} to far below double rounding.
The bounds are ten times the largest relative errors measured on the 26 sums of the default
Gram grid, one ensemble pair per n: 4.9e-15 for the dense kernel at n = 4 and 4.4e-14 for the
contour kernel at n = 32.
"""

import numpy as np
import pytest
from mpmath import mp

from expconvex import random_rank_one_pair, trace_values
from expconvex.tolerances import CONTOUR_MIN_N
from expconvex.transform import _trace_batch

TS = (-4.0, 0.5, 4.0)


def _referee(pair, t):
    with mp.workdps(40):
        n = pair.n
        h = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                a, b = complex(pair.A.mat[i, j]), complex(pair.B.mat[i, j])
                h[i, j] = mp.mpf(t) * mp.mpc(a.real, a.imag) + mp.mpc(b.real, b.imag)
        return mp.fsum(mp.exp(w) for w in mp.eighe(h, eigvals_only=True))


# A has rank one, so n picks the kernel: dense below CONTOUR_MIN_N, contour from it on
@pytest.mark.parametrize("n, bound", [(4, 5e-14), (CONTOUR_MIN_N, 5e-13)],
                         ids=["dense", "contour"])
def test_trace_kernels_agree_with_the_referee(n, bound):
    pair = random_rank_one_pair(np.random.default_rng([2024, n]), n)
    single = trace_values(pair, TS)
    batch = np.concatenate(_trace_batch([(pair.A, pair.B, [np.array(TS[:1]),
                                                           np.array(TS[1:])])]))
    for t, value, batched in zip(TS, single, batch):
        ref = _referee(pair, t)
        for got in (value, batched):
            assert float(abs(mp.mpf(float(got)) - ref) / ref) <= bound, (t, got)
