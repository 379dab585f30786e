"""Tests for the rank-one canonical-form reduction W A W* = L, W B W* = M."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expconvex import (
    ConvergenceFailure,
    DimensionMismatch,
    RankNotOne,
    TracePair,
    hermitian_from_diag,
    max_abs,
    phase_matrix,
    reduce,
    reduction_residuals,
    trace_f,
    trace_values,
    validate_hermitian,
)
from expconvex.hermitian import _raised, _stacked_eigh
from expconvex.matrixio import dumps_doc, matrix_from_doc, reduction_to_doc
from expconvex.reduction import _reduce, corner_diagonalizer
from expconvex.tolerances import RESIDUAL_TOL, TRACE_INV_TOL


def random_rank_one(rng, n, lam=None):
    if lam is None:
        lam = float(rng.uniform(0.5, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return validate_hermitian(lam * np.outer(v, v.conj())), lam, v


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return validate_hermitian((g + g.conj().T) / 2.0)


def _zero_b(n):
    return hermitian_from_diag(np.zeros(n))


# the test_assert_rank_one_* tests check the rank-one certification that reduce runs first

def test_assert_rank_one_corner_diagonal():
    red = reduce(hermitian_from_diag([0.0, 0.0, 2.0]), _zero_b(3))
    assert max_abs(red.L.mat - np.diag([0.0, 0.0, 2.0])) == 0.0
    assert np.allclose(np.abs(red.U[-1]), [0.0, 0.0, 1.0])


def test_assert_rank_one_recovers_outer_product():
    rng = np.random.default_rng(21)
    a, lam, v = random_rank_one(rng, 5, lam=3.0)
    red = reduce(a, _zero_b(5))
    assert red.L.mat[-1, -1].real == pytest.approx(3.0, abs=1e-12)
    # the last row of U is the direction conjugated, up to a unit phase
    overlap = abs(np.vdot(red.U[-1].conj(), v))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_assert_rank_one_rejects_rank_two():
    with pytest.raises(RankNotOne) as exc:
        reduce(hermitian_from_diag([1.0, 1.0]), _zero_b(2))
    assert exc.value.spectrum.shape == (2,)


def test_assert_rank_one_rejects_zero():
    with pytest.raises(RankNotOne) as exc:
        reduce(validate_hermitian(np.zeros((3, 3))), _zero_b(3))
    assert exc.value.spectrum.tolist() == [0.0, 0.0, 0.0]


def test_assert_rank_one_tol_sensitivity():
    # the default rank tolerance is RANK_TOL_FACTOR * ||a||_max = 1e-9
    red = reduce(hermitian_from_diag([1e-12, 1.0]), _zero_b(2))
    assert red.L.mat[-1, -1].real == pytest.approx(1.0)


def test_corner_diagonalizer_swap_case():
    u = corner_diagonalizer(np.array([1.0, 0.0], dtype=complex))
    out = u @ np.diag([2.0, 0.0]).astype(complex) @ u.conj().T
    assert max_abs(out - np.diag([0.0, 2.0])) <= 1e-12
    assert not u.flags.writeable


def test_corner_diagonalizer_already_in_corner():
    u = corner_diagonalizer(np.array([0.0, 0.0, 1.0], dtype=complex))
    out = u @ np.diag([0.0, 0.0, 5.0]).astype(complex) @ u.conj().T
    assert max_abs(out - np.diag([0.0, 0.0, 5.0])) <= 1e-12


def test_corner_diagonalizer_random():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a, lam, v = random_rank_one(rng, n)
        u = corner_diagonalizer(v)
        target = np.zeros((n, n), dtype=complex)
        target[-1, -1] = lam
        assert max_abs(u @ a.mat @ u.conj().T - target) <= 1e-10
        assert max_abs(u @ u.conj().T - np.eye(n)) <= 1e-12
        # last row of U is the direction conjugated, up to a unit phase
        assert abs(np.vdot(u[-1].conj(), v)) == pytest.approx(1.0, abs=1e-12)


def test_phase_matrix_examples():
    omegas = phase_matrix(np.array([1j]))
    assert np.allclose(omegas, [-1j])

    omegas = phase_matrix(np.array([0.0j]))
    assert np.allclose(omegas, [1.0])

    g = np.array([3.0, -4.0j])
    omegas = phase_matrix(g)
    assert np.allclose(omegas, [1.0, 1j])
    assert np.allclose(np.diag(omegas) @ g, [3.0, 4.0])


def test_phase_matrix_unit_modulus_identity():
    rng = np.random.default_rng(23)
    g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    g[2] = 0.0
    omegas = phase_matrix(g)
    assert np.allclose(np.abs(omegas), 1.0)
    assert max_abs(omegas * g - np.abs(g)) <= 1e-12


def test_reduce_2x2_worked_example():
    a = hermitian_from_diag([0.0, 1.0])
    b = validate_hermitian(np.array([[1.0, 1j], [-1j, 3.0]]))
    red = reduce(a, b)
    assert max_abs(red.L.mat - np.diag([0.0, 1.0])) <= 1e-14
    assert max_abs(red.M.mat - np.array([[1.0, 1.0], [1.0, 3.0]])) <= 1e-14
    ra, rb = reduction_residuals(a, b, red)
    assert ra <= 1e-10 and rb <= 1e-10


def test_reduce_already_reduced_real_pair():
    a = hermitian_from_diag([0.0, 1.0])
    b = validate_hermitian(np.array([[2.0, 0.5], [0.5, 3.0]]))
    red = reduce(a, b)
    # W is diagonal with unit phases and M comes back unchanged
    assert max_abs(red.M.mat - b.mat) <= 1e-12
    assert max_abs(red.L.mat - a.mat) <= 1e-12
    off = ~np.eye(2, dtype=bool)
    assert max_abs(red.W[off]) <= 1e-12
    assert np.allclose(np.abs(np.diag(red.W)), 1.0)


def test_reduce_single_dimension():
    red = reduce(hermitian_from_diag([2.0]), hermitian_from_diag([5.0]))
    assert red.L.mat[0, 0] == pytest.approx(2.0)
    assert red.M.mat[0, 0] == pytest.approx(5.0)


def test_reduce_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        reduce(hermitian_from_diag([1.0]), hermitian_from_diag([1.0, 2.0]))


def test_reduce_invariants_random():
    rng = np.random.default_rng(24)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        a, _, _ = random_rank_one(rng, n)
        b = random_hermitian(rng, n)
        red = reduce(a, b)

        ra, rb = reduction_residuals(a, b, red)
        assert ra <= 1e-10
        assert rb <= 1e-10

        # L diagonal, zero outside the corner
        l = red.L.mat
        assert max_abs(l - np.diag(np.diag(l))) == 0.0
        assert max_abs(np.diag(l)[:-1]) == 0.0

        # M structure: zero strictly above the diagonal in the leading block,
        # nonnegative real coupling column
        m = red.M.mat
        for j in range(n - 1):
            for k in range(j + 1, n - 1):
                assert abs(m[j, k]) <= 1e-11
        col = m[: n - 1, n - 1]
        assert max_abs(col.imag) <= 1e-12
        assert col.real.min() >= -1e-12

        w = red.W
        assert max_abs(w @ w.conj().T - np.eye(n)) <= 1e-10


def test_reduce_trace_function_invariance():
    rng = np.random.default_rng(25)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        a, _, _ = random_rank_one(rng, n)
        b = random_hermitian(rng, n)
        red = reduce(a, b)
        pair_ab = TracePair(a, b)
        pair_lm = TracePair(red.L, red.M)
        for t in np.linspace(-2.0, 2.0, 11):
            fa = trace_f(pair_ab, float(t))
            fl = trace_f(pair_lm, float(t))
            assert abs(fa - fl) <= 1e-9 * max(1.0, fa)


def test_reduce_idempotent():
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a, _, _ = random_rank_one(rng, n)
        b = random_hermitian(rng, n)
        red = reduce(a, b)
        red2 = reduce(red.L, red.M)
        assert max_abs(red2.L.mat - red.L.mat) <= 1e-10
        assert max_abs(red2.M.mat - red.M.mat) <= 1e-10
        # fixed point up to diagonal phases
        w = red2.W
        off = ~np.eye(n, dtype=bool)
        assert max_abs(w[off]) <= 1e-10
        assert np.allclose(np.abs(np.diag(w)), 1.0, atol=1e-10)


def test_reduction_trace_fields_consistent():
    rng = np.random.default_rng(27)
    n = 6
    a, _, _ = random_rank_one(rng, n)
    b = random_hermitian(rng, n)
    red = reduce(a, b)
    # mu_n, M_block, g, omegas, Omega, W_block and g_abs are rebuilt when
    # serializing; read them back from the decoded document
    doc = json.loads(dumps_doc(reduction_to_doc(red, reduction_residuals(a, b, red))))
    omegas = np.array([complex(*z) for z in doc["trace"]["omegas"]])
    omega = matrix_from_doc(doc["trace"]["Omega"])
    w_block = matrix_from_doc(doc["trace"]["W_block"])
    g = np.array([complex(*z) for z in doc["trace"]["g"]])
    g_abs = np.array(doc["trace"]["g_abs"])

    assert np.allclose(np.abs(omegas), 1.0)
    assert max_abs(omegas * g - g_abs) <= 1e-12
    assert np.all(g_abs >= 0.0)
    assert np.array_equal(omega, np.diag(omegas))
    # M_block is the spectrum of B_block, mu_n the corner of U B U*
    assert np.allclose(doc["trace"]["M_block"], np.linalg.eigvalsh(red.B_block.mat))
    assert doc["trace"]["mu_n"] == (red.U @ b.mat @ red.U.conj().T)[-1, -1].real

    # M is assembled exactly from the report's trace pieces
    m = np.zeros((n, n), dtype=complex)
    m[: n - 1, : n - 1] = np.diag(doc["trace"]["M_block"])
    m[: n - 1, n - 1] = g_abs
    m[n - 1, : n - 1] = g_abs
    m[n - 1, n - 1] = doc["trace"]["mu_n"]
    assert max_abs(red.M.mat - m) == 0.0

    # W factors as blockdiag(W_block, 1) @ U
    w_full = np.zeros((n, n), dtype=complex)
    w_full[: n - 1, : n - 1] = w_block
    w_full[n - 1, n - 1] = 1.0
    assert max_abs(red.W - w_full @ red.U) == 0.0


# Property tests on the spectra the contour tests draw.  A case is built in
# B's eigenbasis: B = Q diag(beta) Q*, A = lambda v v* with v = Q w / |w|,
# for a random unitary Q; w_j = 0 decouples eigenvector j of B from A.

SIZES = st.integers(2, 40)
SEEDS = st.integers(0, 2**32 - 1)
TS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)
LAMBDAS = st.floats(0.1, 3.0).flatmap(lambda x: st.sampled_from([x, -x]))
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _pair(seed, beta, w, lam):
    n = beta.size
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = q @ (w / np.linalg.norm(w))
    return TracePair(
        validate_hermitian(lam * np.outer(v, v.conj())),
        validate_hermitian((q * beta) @ q.conj().T),
    )


def _gaussian(seed, n):
    rng = np.random.default_rng([seed, 1])
    return rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _assert_reduction_properties(pair, ts):
    n = pair.n
    red = reduce(pair.A, pair.B)
    w, m = red.W, red.M.mat

    # the trace function is invariant
    ts = np.asarray(ts, dtype=float)
    fa = trace_values(pair, ts)
    fl = trace_values(TracePair(red.L, red.M), ts)
    assert np.max(np.abs(fa - fl) / np.maximum(1.0, fa)) <= TRACE_INV_TOL

    # W and the unitaries it is built from are unitary
    for u in (w, red.U, red.V_block):
        assert max_abs(u @ u.conj().T - np.eye(u.shape[0])) <= 1e-10

    # M = W B W* has a nonnegative coupling column and a diagonal leading block
    assert np.all(m[: n - 1, n - 1].real >= 0.0) and np.all(m[: n - 1, n - 1].imag == 0.0)
    assert np.all(np.triu(m[: n - 1, : n - 1], 1) == 0.0)
    assert max_abs(w @ pair.B.mat @ w.conj().T - m) <= RESIDUAL_TOL


@PROPERTY
@given(seed=SEEDS, n=SIZES, spread=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]),
       levels=st.integers(1, 4), lam=LAMBDAS, ts=TS)
def test_property_reduce_clustered_spectrum(seed, n, spread, levels, lam, ts):
    # beta in a few tight clusters, exact repeats when spread is 0
    beta, w = _gaussian(seed, n)
    centers = np.linspace(-1.0, 1.0, levels)
    beta = np.sort(centers[np.arange(n) % levels] + spread * beta)
    _assert_reduction_properties(_pair(seed, beta, w, lam), ts)


@PROPERTY
@given(seed=SEEDS, n=SIZES, others=st.sets(st.integers(2, 4)),
       size=st.sampled_from([0.0, 1e-14, 1e-8]), lam=LAMBDAS, ts=TS)
def test_property_reduce_zero_coupling(seed, n, others, size, lam, ts):
    # w_j at or near zero on the top eigenvector of B and maybe on the next
    # ones (j counts from the top), leaving w_0 as it is
    beta, w = _gaussian(seed, n)
    for j in {1} | others:
        if j < n:
            w[n - j] = size
    _assert_reduction_properties(_pair(seed, np.sort(beta), w, lam), ts)


@PROPERTY
@given(seed=SEEDS, n=SIZES, lam=LAMBDAS, ts=TS)
def test_property_reduce_zero_b(seed, n, lam, ts):
    _, w = _gaussian(seed, n)
    _assert_reduction_properties(_pair(seed, np.zeros(n), w, lam), ts)


@PROPERTY
@given(seed=SEEDS, n=SIZES, scale=st.floats(-11.0, -7.0), sign=st.sampled_from([1.0, -1.0]),
       ts=TS)
def test_property_reduce_tiny_lambda(seed, n, scale, sign, ts):
    # |lambda| of the order of RANK_TOL_FACTOR: the rank test is relative
    beta, w = _gaussian(seed, n)
    _assert_reduction_properties(_pair(seed, np.sort(beta), w, sign * 10.0**scale), ts)


def _residuals_one_at_a_time(a, b, red):
    w = red.W
    return (max_abs(w @ a.mat @ w.conj().T - red.L.mat),
            max_abs(w @ b.mat @ w.conj().T - red.M.mat))


def test_reduce_from_a_stacked_eigendecomposition_is_reduce():
    # verify hands reduce the eigh(A) of its stacked (A, B, A + B) call
    rng = np.random.default_rng(47)
    for n in range(1, 13):
        a, _, _ = random_rank_one(rng, n)
        b = random_hermitian(rng, n)
        eigs = _stacked_eigh([a.mat, b.mat, a.mat + b.mat])
        red, want = _reduce(a, b, eigs[0]), reduce(a, b)
        residuals = reduction_residuals(a, b, red)
        assert residuals == _residuals_one_at_a_time(a, b, want)
        assert dumps_doc(reduction_to_doc(red, residuals)) == dumps_doc(
            reduction_to_doc(want, reduction_residuals(a, b, want)))


def test_reduce_from_a_failed_eigendecomposition_raises_it(monkeypatch):
    real = np.linalg.eigh

    def flaky(m):
        if np.any(m.real == 5.0):
            raise np.linalg.LinAlgError("did not converge")
        return real(m)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    a, b = hermitian_from_diag([0.0, 5.0]), hermitian_from_diag([1.0, 2.0])
    with pytest.raises(ConvergenceFailure) as stacked:
        _reduce(a, b, _raised(_stacked_eigh([a.mat, b.mat])[0]))
    with pytest.raises(ConvergenceFailure) as single:
        reduce(a, b)
    assert str(stacked.value) == str(single.value) == "eigensolver failed: did not converge"
