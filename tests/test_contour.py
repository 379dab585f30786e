"""The rank-one contour kernel of trace_values: which pairs take it, its
pointwise contract, its errors, the eigendecomposition of B it keeps on B,
and its accuracy against the dense kernel on adversarial spectra."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expconvex import (
    ConvergenceFailure,
    Overflow,
    TracePair,
    hermitian_from_diag,
    random_rank_one_pair,
    run_verification,
    trace_values,
    validate_hermitian,
)
from expconvex import transform
from expconvex.tolerances import CONTOUR_MIN_N, RANK_TOL_FACTOR
from expconvex.verify import MAX_N

# the 26 distinct sums t_r + t_s of the default 8-point grid on [-2, 2]
GRID = np.linspace(-2.0, 2.0, 8)
SUMS = np.unique(np.add.outer(GRID, GRID).ravel())
LOG_TOL = 1e-12


def _dense_reference(pair, t):
    # one eigvalsh per point, summed as the dense kernel sums
    h = t * pair.A.mat + pair.B.mat
    return float(np.sum(np.exp(np.linalg.eigvalsh((h + h.conj().T) / 2.0))))


def _dense_log(pair, ts):
    # log f by log-sum-exp over the eigenvalues of each tA + B
    out = []
    for t in ts:
        h = t * pair.A.mat + pair.B.mat
        w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
        out.append(w[-1] + np.log(np.sum(np.exp(w - w[-1]))))
    return np.array(out)


def _no_contour(monkeypatch):
    def fail(*args):
        raise AssertionError("contour kernel reached")

    monkeypatch.setattr(transform, "_contour_values", fail)


def _rank_two(rng, n):
    pair = random_rank_one_pair(rng, n)
    a = pair.A.mat + random_rank_one_pair(rng, n).A.mat
    return TracePair(validate_hermitian(a), pair.B)


def _just_above_rank_tol(rng, n):
    # a rank-one A plus a second direction just past the rank tolerance
    pair = random_rank_one_pair(rng, n)
    e = np.zeros(n)
    e[0] = 1.0
    a = pair.A.mat + 2.0 * RANK_TOL_FACTOR * pair.A.norm_max() * np.outer(e, e)
    return TracePair(validate_hermitian(a), pair.B)


@pytest.mark.parametrize(
    "n, build",
    [
        (CONTOUR_MIN_N - 1, random_rank_one_pair),
        (CONTOUR_MIN_N, _rank_two),
        (CONTOUR_MIN_N, _just_above_rank_tol),
    ],
    ids=["rank-one-below-crossover", "rank-two", "just-above-rank-tol"],
)
def test_dense_kernel_kept_off_the_contour_path(monkeypatch, n, build):
    _no_contour(monkeypatch)
    pair = build(np.random.default_rng([46, n]), n)
    vals = trace_values(pair, SUMS)
    assert vals.tolist() == [_dense_reference(pair, float(t)) for t in SUMS]


def test_rank_one_at_crossover_takes_contour(monkeypatch):
    calls = []
    contour = transform._contour_values

    def spy(*args):
        calls.append(args[0].size)
        return contour(*args)

    monkeypatch.setattr(transform, "_contour_values", spy)
    pair = random_rank_one_pair(np.random.default_rng([47, CONTOUR_MIN_N]), CONTOUR_MIN_N)
    got = np.log(trace_values(pair, SUMS))
    assert calls == [SUMS.size]
    assert np.max(np.abs(got - _dense_log(pair, SUMS))) <= LOG_TOL


def test_rank_one_up_to_tolerance_takes_contour():
    # a second direction just inside the rank tolerance: the kernel evaluates
    # the rank-one part lambda v v*, and tr e^{X+E} lies within e^{+-||E||_2}
    # of tr e^X, so log f moves by at most |t| ||E||_2 for the rest E
    n = CONTOUR_MIN_N
    pair = random_rank_one_pair(np.random.default_rng([49, n]), n)
    e = np.zeros((n, n))
    e[0, 0] = 0.5 * RANK_TOL_FACTOR * pair.A.norm_max()
    near = TracePair(validate_hermitian(pair.A.mat + e), pair.B)
    lam, v = transform._rank_one_factor(near.A)
    rest = np.linalg.norm(near.A.mat - lam * np.outer(v, v.conj()), 2)
    assert rest > 0.0
    gap = np.abs(np.log(trace_values(near, SUMS)) - _dense_log(near, SUMS))
    assert np.all(gap <= np.abs(SUMS) * rest + LOG_TOL)


@pytest.mark.parametrize("n", [64, 256])
def test_contour_matches_dense_on_ensemble_pairs(n):
    rng = np.random.default_rng([44, n])
    pair = random_rank_one_pair(rng, n)
    ts = np.concatenate([SUMS, rng.uniform(-2.0, 2.0, size=4)])
    assert np.max(np.abs(np.log(trace_values(pair, ts)) - _dense_log(pair, ts))) <= LOG_TOL


def test_contour_values_are_pointwise():
    # ScalarFunction's rule: a value may not depend on the other points
    rng = np.random.default_rng(48)
    pair = random_rank_one_pair(rng, 64)
    ts = np.concatenate([SUMS, [0.0, -0.0, 1e-300, 30.0, -30.0], rng.uniform(-4.0, 4.0, 9)])
    vals = trace_values(pair, ts)
    assert vals.tolist() == [trace_values(pair, [t])[0] for t in ts]
    assert trace_values(pair, ts[::-1]).tolist() == vals[::-1].tolist()


def test_verify_never_reaches_contour(monkeypatch):
    assert MAX_N < CONTOUR_MIN_N
    _no_contour(monkeypatch)
    report = run_verification(cases=20, max_n=MAX_N, seed=0)
    assert report.failures == 0


def test_contour_eigensolver_failure_is_convergence_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    pair = TracePair(
        hermitian_from_diag([0.0] * (CONTOUR_MIN_N - 1) + [1.0]),
        hermitian_from_diag([0.0] * CONTOUR_MIN_N),
    )
    with pytest.raises(ConvergenceFailure, match="eigensolver failed"):
        trace_values(pair, [0.0])


def test_contour_kernel_decomposes_b_once_per_matrix(monkeypatch):
    calls, real = [], np.linalg.eigh

    def spy(a):
        if a.ndim == 2:  # the contour kernel's eigh of B; the package's others are stacked
            calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    pair = random_rank_one_pair(np.random.default_rng([53, CONTOUR_MIN_N]), CONTOUR_MIN_N)
    first = trace_values(pair, SUMS)
    assert trace_values(pair, SUMS[::-1]).tolist() == first[::-1].tolist()
    assert calls == [(CONTOUR_MIN_N, CONTOUR_MIN_N)]
    # a B equal to the pair's but another object has its own decomposition, with the same bits
    other = TracePair(pair.A, validate_hermitian(pair.B.mat))
    assert trace_values(other, SUMS).tolist() == first.tolist()
    assert len(calls) == 2


def test_a_failed_decomposition_of_b_is_not_kept(monkeypatch):
    b = random_rank_one_pair(np.random.default_rng([59, CONTOUR_MIN_N]), CONTOUR_MIN_N).B
    calls = []

    def fail(a):
        calls.append(a.shape)
        raise np.linalg.LinAlgError("did not converge")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", fail)
        for _ in range(2):
            with pytest.raises(ConvergenceFailure, match="^eigensolver failed: did not converge$"):
                b._lapack_eigh
            assert "_lapack_eigh" not in vars(b)
    assert len(calls) == 2
    beta, q = b._lapack_eigh
    ref = np.linalg.eigh(b.mat)
    assert beta.tobytes() == ref[0].tobytes() and q.tobytes() == ref[1].tobytes()
    assert b._lapack_eigh[0] is beta
    # the kept arrays are read-only
    for a in (beta, q):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_decomposition_of_b_read_from_many_threads_has_one_value():
    # more threads than cores, switching often: every reader gets the bits of one eigh of B,
    # whether the first access runs under cached_property's lock (Python < 3.12) or not
    b = random_rank_one_pair(np.random.default_rng([67, CONTOUR_MIN_N]), CONTOUR_MIN_N).B
    ref = np.linalg.eigh(b.mat)
    got = []
    threads = [threading.Thread(target=lambda: got.append(b._lapack_eigh)) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == len(threads)
    for beta, q in got:
        assert beta.tobytes() == ref[0].tobytes() and q.tobytes() == ref[1].tobytes()


@pytest.mark.parametrize(
    "b, ts",
    [(0.0, [0.0, 1.0, 900.0, 800.0]), (-800.0, [100.0, 10.0, -4.0])],
    ids=["overflow", "underflow"],
)
def test_contour_errors_match_dense_messages(monkeypatch, b, ts):
    n = CONTOUR_MIN_N
    pair = TracePair(hermitian_from_diag([0.0] * (n - 1) + [1.0]), hermitian_from_diag([b] * n))
    with pytest.raises(Overflow) as contour:
        trace_values(pair, ts)
    monkeypatch.setattr(transform, "CONTOUR_MIN_N", n + 1)
    with pytest.raises(Overflow) as dense:
        trace_values(pair, ts)
    assert str(contour.value) == str(dense.value)


# Property tests.  A case is built in B's eigenbasis: B = Q diag(beta) Q*,
# A = lambda v v* with v = Q w / |w|, for a random unitary Q.  Each point t
# is given by c = t lambda, the coefficient of the rank-one term.

SIZES = st.integers(CONTOUR_MIN_N, CONTOUR_MIN_N + 16)
SEEDS = st.integers(0, 2**32 - 1)
CS = st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6)
LAMBDAS = st.floats(0.1, 3.0).flatmap(lambda x: st.sampled_from([x, -x]))


def _pair(seed, beta, w, lam):
    n = beta.size
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = q @ (w / np.linalg.norm(w))
    pair = TracePair(
        validate_hermitian(lam * np.outer(v, v.conj())),
        validate_hermitian((q * beta) @ q.conj().T),
    )
    assert transform._rank_one_factor(pair.A) is not None
    return pair


def _gaussian(seed, n):
    rng = np.random.default_rng([seed, 1])
    return rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _assert_top(beta, w, cs):
    # s decides overflow, so it must match the dense top eigenvalue too
    u = w / np.linalg.norm(w)
    s = transform._top_eigenvalue(beta, np.abs(u) ** 2, np.asarray(cs, dtype=float))
    for c, top in zip(cs, s):
        dense = np.linalg.eigvalsh(np.diag(beta) + c * np.outer(u, u.conj()))[-1]
        assert abs(top - dense) <= LOG_TOL * (np.abs(beta).max() + abs(c))
    return s


def _assert_close(pair, ts):
    ts = np.asarray(ts, dtype=float)
    got = np.log(trace_values(pair, ts))
    assert np.max(np.abs(got - _dense_log(pair, ts))) <= LOG_TOL


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(seed=SEEDS, n=SIZES, spread=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]),
       levels=st.integers(1, 4), lam=LAMBDAS, cs=CS)
def test_property_clustered_spectrum(seed, n, spread, levels, lam, cs):
    # beta in a few tight clusters, exact repeats when spread is 0
    beta, w = _gaussian(seed, n)
    centers = np.linspace(-1.0, 1.0, levels)
    beta = np.sort(centers[np.arange(n) % levels] + spread * beta)
    _assert_close(_pair(seed, beta, w, lam), np.divide(cs, lam))


@PROPERTY
@given(seed=SEEDS, n=SIZES, others=st.sets(st.integers(2, 4)),
       size=st.sampled_from([0.0, 1e-14, 1e-8]), lam=LAMBDAS, cs=CS)
def test_property_deflated_poles(seed, n, others, size, lam, cs):
    # w_j at or near zero on the top eigenvector of B and maybe on the next
    # ones (j counts from the top); c takes both signs
    beta, w = _gaussian(seed, n)
    beta = np.sort(beta)
    for j in {1} | others:
        w[n - j] = size
    cs = cs + [-c for c in cs]
    _assert_close(_pair(seed, beta, w, lam), np.divide(cs, lam))
    _assert_top(beta, w, cs)


@PROPERTY
@given(seed=SEEDS, n=SIZES, cs=st.lists(st.floats(-300.0, -20.0), min_size=1, max_size=6),
       lam=LAMBDAS)
def test_property_strongly_negative_c(seed, n, cs, lam):
    # c << 0: the top root lies strictly inside (beta_{n-2}, beta_max)
    beta, w = _gaussian(seed, n)
    beta = np.sort(beta)
    _assert_close(_pair(seed, beta, w, lam), np.divide(cs, lam))
    s = _assert_top(beta, w, cs)
    assert np.all((beta[-2] < s) & (s < beta[-1]))


@PROPERTY
@given(seed=SEEDS, n=SIZES, lam=LAMBDAS, cs=st.lists(st.floats(-600.0, 600.0), min_size=1,
                                                    max_size=6))
def test_property_zero_b(seed, n, lam, cs):
    _, w = _gaussian(seed, n)
    _assert_close(_pair(seed, np.zeros(n), w, lam), np.divide(cs, lam))


@PROPERTY
@given(seed=SEEDS, n=SIZES, scale=st.floats(-11.0, -7.0), sign=st.sampled_from([1.0, -1.0]),
       ts=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6))
def test_property_tiny_lambda(seed, n, scale, sign, ts):
    # |lambda| of the order of RANK_TOL_FACTOR: the rank test is relative, so
    # A stays rank one, and c is tiny
    beta, w = _gaussian(seed, n)
    _assert_close(_pair(seed, np.sort(beta), w, sign * 10.0**scale), ts)
