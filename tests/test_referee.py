"""Both trace kernels against a high-precision referee.

mpmath diagonalizes t*A + B at 40 significant digits, with A, B and t taken exactly from their
doubles, and sums e^{lambda_i}: the true f(t) = tr e^{tA + B} to far below double rounding.
The bounds are ten times the largest relative errors measured on the 26 sums of the default
Gram grid, one ensemble pair per n: 4.9e-15 for the dense kernel at n = 4, 5.3e-15 for it at
n = 12 = verify's MAX_N, its largest size, and 4.4e-14 for the contour kernel at n = 32.  At n = 12
that is this file's pair; the largest error at TS is 2.5e-15, and its referee values take about
0.1 s of mpmath.  The same n = 32 values check the errors that the CONTOUR_NODES
comment states for 16, 24 and 32 Talbot nodes.
"""

import functools

import numpy as np
import pytest
from mpmath import mp

from expconvex import random_rank_one_pair, trace_values
from expconvex import transform
from expconvex.tolerances import CONTOUR_MIN_N
from expconvex.transform import _trace_batch
from expconvex.verify import MAX_N

TS = (-4.0, 0.5, 4.0)


def _pair(n):
    return random_rank_one_pair(np.random.default_rng([2024, n]), n)


@functools.cache
def _referee(n, t):
    # f(t) of _pair(n), cached: both tests read the n = CONTOUR_MIN_N values
    pair = _pair(n)
    with mp.workdps(40):
        h = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                a, b = complex(pair.A.mat[i, j]), complex(pair.B.mat[i, j])
                h[i, j] = mp.mpf(t) * mp.mpc(a.real, a.imag) + mp.mpc(b.real, b.imag)
        return mp.fsum(mp.exp(w) for w in mp.eighe(h, eigvals_only=True))


# A has rank one, so n picks the kernel: dense below CONTOUR_MIN_N, contour from it on
@pytest.mark.parametrize("n, bound", [(4, 5e-14), (MAX_N, 5.3e-14), (CONTOUR_MIN_N, 5e-13)],
                         ids=["dense", "dense-max-n", "contour"])
def test_trace_kernels_agree_with_the_referee(n, bound):
    pair = _pair(n)
    single = trace_values(pair, TS)
    batch = np.concatenate(_trace_batch([(pair.A, pair.B, [np.array(TS[:1]),
                                                           np.array(TS[1:])])]))
    for t, value, batched in zip(TS, single, batch):
        ref = _referee(n, t)
        for got in (value, batched):
            assert float(abs(mp.mpf(float(got)) - ref) / ref) <= bound, (t, got)


def _talbot(nodes):
    # transform's _NODES and _WEIGHTS for another node count
    theta = (np.arange(nodes // 2) + 0.5) * (2.0 * np.pi / nodes)
    z = nodes * (0.1309 - 0.1194 * theta**2 + 0.25j * theta)
    return z, 2.0 * np.exp(z) * (-2.0 * 0.1194 * theta + 0.25j)


# the bounds of the CONTOUR_NODES comment in tolerances.py
@pytest.mark.parametrize("nodes, bound", [(16, 3e-7), (24, 8e-11), (32, 1e-13)])
def test_contour_node_counts_meet_the_stated_log_errors(monkeypatch, nodes, bound):
    z, weights = _talbot(nodes)
    if nodes == transform.CONTOUR_NODES:
        assert z.tobytes() == transform._NODES.tobytes()
        assert weights.tobytes() == transform._WEIGHTS.tobytes()
    monkeypatch.setattr(transform, "_NODES", z)
    monkeypatch.setattr(transform, "_WEIGHTS", weights)
    pair = _pair(CONTOUR_MIN_N)
    _, vals = transform._contour_values(np.array(TS), pair.B._lapack_eigh,
                                        *transform._rank_one_factor(pair.A))
    errors = [abs(mp.log(mp.mpf(float(v))) - mp.log(_referee(CONTOUR_MIN_N, t)))
              for t, v in zip(TS, vals)]
    assert float(max(errors)) <= bound
