"""Tests for validated matrix types, eigh, matrix exponential, Lie products,
and the entrywise-nonnegativity machinery."""

import math

import numpy as np
import pytest

from expconvex import (
    HermitianMatrix,
    HypothesisViolated,
    NonFinite,
    NotHermitian,
    NotSquare,
    NotUnitary,
    Overflow,
    UnitaryMatrix,
    conjugate,
    eigh,
    exp_entrywise_nonneg_check,
    hermitian_from_diag,
    lie_product_approx,
    matrix_exp_hermitian,
    max_abs,
    perron_shift,
    validate_hermitian,
    validate_unitary,
)
from expconvex.hermitian import _fix_column_phases

COSH1 = math.cosh(1.0)
SINH1 = math.sinh(1.0)


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return validate_hermitian(scale * (g + g.conj().T) / 2.0)


def test_validate_hermitian_accepts_hermitian():
    m = np.array([[1.0, 1j], [-1j, 3.0]])
    h = validate_hermitian(m)
    assert np.array_equal(h.mat, m)
    assert h.n == 2


def test_validate_hermitian_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        validate_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_validate_hermitian_symmetrizes_below_tol():
    m = np.array([[1.0, 1j + 1e-15], [-1j, 2.0]])
    h = validate_hermitian(m)
    # stored form is exactly (m + m*)/2
    assert max_abs(h.mat - h.mat.conj().T) == 0.0
    assert h.mat[0, 0].imag == 0.0


def test_validate_hermitian_rejects_nonsquare_and_nonfinite():
    with pytest.raises(NotSquare):
        validate_hermitian(np.ones((2, 3)))
    with pytest.raises(NonFinite):
        validate_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_validate_hermitian_frozen():
    h = validate_hermitian(np.eye(2))
    with pytest.raises(ValueError):
        h.mat[0, 0] = 5.0


def test_validate_unitary():
    u = validate_unitary(np.diag([1j, -1.0]))
    assert u.n == 2
    with pytest.raises(NotUnitary):
        validate_unitary(np.diag([2.0, 1.0]))


def test_eigh_diagonal():
    w, v = eigh(hermitian_from_diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    # eigenvectors are a permutation of the identity
    assert np.allclose(np.abs(v), [[0, 1], [1, 0]])


def test_eigh_pauli_x():
    h = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    w, v = eigh(h)
    assert np.allclose(w, [-1.0, 1.0])
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(v, [[s, s], [-s, s]])


def test_eigh_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 5.0)))
        w, v = eigh(h)
        resid = max_abs(h.mat @ v - v @ np.diag(w))
        assert resid <= 1e-10 * max(1.0, h.norm_max())
        assert np.all(np.diff(w) >= 0.0)


def test_eigh_phase_convention_deterministic():
    rng = np.random.default_rng(12)
    h = random_hermitian(rng, 5)
    _, v1 = eigh(h)
    _, v2 = eigh(HermitianMatrix(h.mat.copy()))
    assert np.array_equal(v1, v2)
    # first nonzero component of each column is real positive
    for k in range(5):
        col = v1[:, k]
        j = np.flatnonzero(np.abs(col) > 1e-12)[0]
        assert col[j].imag == pytest.approx(0.0, abs=1e-15)
        assert col[j].real > 0.0


def _fix_column_phases_loop(v):
    # column-by-column reference for the vectorized phase convention
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size == 0:
            continue
        lead = col[nz[0]]
        v[:, j] = col * (lead.conjugate() / abs(lead))
    return v


def test_fix_column_phases_bitwise_equals_loop():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 5, 8, 12, 31):
        for k in range(20):
            v = np.linalg.eigh(random_hermitian(rng, n).mat)[1]
            if k % 2:
                v[: n // 2] = 0.0  # the first nonzero entry sits lower down
            assert np.array_equal(_fix_column_phases(v), _fix_column_phases_loop(v))
    assert _fix_column_phases(np.zeros((0, 0), dtype=complex)).shape == (0, 0)


def test_matrix_exp_diagonal():
    e = matrix_exp_hermitian(hermitian_from_diag([0.0, math.log(2.0)]))
    assert np.allclose(e, np.diag([1.0, 2.0]), atol=1e-14)


def test_matrix_exp_pauli_x():
    h = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    e = matrix_exp_hermitian(h)
    expect = np.array([[COSH1, SINH1], [SINH1, COSH1]])
    assert max_abs(e - expect) <= 1e-14


def test_matrix_exp_zero_is_identity():
    e = matrix_exp_hermitian(validate_hermitian(np.zeros((3, 3))))
    assert np.array_equal(e, np.eye(3))


def test_matrix_exp_positive_definite():
    rng = np.random.default_rng(13)
    for _ in range(10):
        h = random_hermitian(rng, int(rng.integers(1, 7)))
        e = matrix_exp_hermitian(h)
        assert max_abs(e - e.conj().T) == 0.0
        assert np.linalg.eigvalsh(e).min() > 0.0


def test_matrix_exp_overflow():
    with pytest.raises(Overflow, match=r"^largest eigenvalue 701\.000 exceeds exp range$"):
        matrix_exp_hermitian(hermitian_from_diag([0.0, 701.0]))
    # from 1e15 on the eigenvalue is written in exponent form, not as 300 digits
    with pytest.raises(Overflow, match=r"^largest eigenvalue 1\.000e\+300 exceeds exp range$"):
        matrix_exp_hermitian(hermitian_from_diag([0.0, 1e300]))


def test_conjugate_identity_and_swap():
    h = validate_hermitian(np.array([[1.0, 1j], [-1j, 3.0]]))
    assert max_abs(conjugate(UnitaryMatrix(np.eye(2, dtype=complex)), h).mat - h.mat) == 0.0

    swap = validate_unitary(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    out = conjugate(swap, hermitian_from_diag([2.0, 0.0]))
    assert np.allclose(out.mat, np.diag([0.0, 2.0]))


def test_conjugate_phase_example():
    u = validate_unitary(np.diag([-1j, 1.0]))
    h = validate_hermitian(np.array([[1.0, 1j], [-1j, 3.0]]))
    out = conjugate(u, h)
    assert max_abs(out.mat - np.array([[1.0, 1.0], [1.0, 3.0]])) <= 1e-15


def test_conjugate_trace_invariance():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        h = random_hermitian(rng, n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        u = validate_unitary(q)
        t0 = np.trace(h.mat).real
        t1 = np.trace(conjugate(u, h).mat).real
        assert abs(t1 - t0) <= 1e-11 * max(1.0, abs(t0))


def test_lie_commuting_exact():
    x = hermitian_from_diag([1.0, -0.5])
    y = hermitian_from_diag([0.25, 2.0])
    for p in (1, 3, 8):
        approx = lie_product_approx(x, y, p, with_reference=True)
        assert approx.reference_error <= 1e-13


def test_lie_p1_is_plain_product():
    rng = np.random.default_rng(15)
    x = random_hermitian(rng, 3)
    y = random_hermitian(rng, 3)
    approx = lie_product_approx(x, y, 1)
    expect = matrix_exp_hermitian(x) @ matrix_exp_hermitian(y)
    assert max_abs(approx.value - expect) <= 1e-13


def test_lie_halving_ratio_example():
    x = hermitian_from_diag([0.0, 1.0])
    y = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    e64 = lie_product_approx(x, y, 64, with_reference=True).reference_error
    e128 = lie_product_approx(x, y, 128, with_reference=True).reference_error
    assert 0.4 <= e128 / e64 <= 0.6


def test_lie_convergence_halving_random():
    rng = np.random.default_rng(16)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        x = random_hermitian(rng, n)
        x = HermitianMatrix(2.0 * x.mat / max(1.0, x.norm_max()))
        y = random_hermitian(rng, n)
        y = HermitianMatrix(2.0 * y.mat / max(1.0, y.norm_max()))
        errs = {p: lie_product_approx(x, y, p, with_reference=True).reference_error
                for p in (8, 16, 32, 64, 128, 256, 512, 1024)}
        for p in (8, 16, 32, 64, 128, 256, 512):
            assert errs[2 * p] <= 0.75 * errs[p]


def test_lie_rejects_bad_p():
    x = hermitian_from_diag([0.0, 1.0])
    with pytest.raises(ValueError):
        lie_product_approx(x, x, 0)


def test_perron_shift_examples():
    ps = perron_shift(validate_hermitian(np.array([[-5.0, 1.0], [1.0, 2.0]])))
    assert ps.rho == 5.0
    assert np.allclose(ps.shifted, [[0.0, 1.0], [1.0, 7.0]])

    ps = perron_shift(hermitian_from_diag([1.0, 2.0]))
    assert ps.rho == 0.0
    assert np.allclose(ps.shifted, np.diag([1.0, 2.0]))

    with pytest.raises(HypothesisViolated):
        perron_shift(validate_hermitian(np.array([[0.0, -1.0], [-1.0, 0.0]])))


def test_perron_shift_identity():
    # e^M = e^{-rho} e^{M + rho I}
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = random_hermitian(rng, n).mat.copy()
        off = ~np.eye(n, dtype=bool)
        m[off] = np.abs(m[off])
        h = validate_hermitian(m)
        ps = perron_shift(h)
        lhs = matrix_exp_hermitian(h)
        rhs = math.exp(-ps.rho) * matrix_exp_hermitian(validate_hermitian(ps.shifted))
        assert max_abs(lhs - rhs) <= 1e-10 * max(1.0, max_abs(lhs))


def test_exp_entrywise_pauli_x_holds():
    rep = exp_entrywise_nonneg_check(validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert rep.holds
    assert rep.min_entry == pytest.approx(SINH1, rel=1e-14)


def test_exp_entrywise_negative_offdiag_fails():
    rep = exp_entrywise_nonneg_check(validate_hermitian(np.array([[0.0, -1.0], [-1.0, 0.0]])))
    assert not rep.holds
    assert rep.min_entry == pytest.approx(-SINH1, rel=1e-14)
    assert rep.location in ((0, 1), (1, 0))


def test_exp_entrywise_diagonal_holds():
    rep = exp_entrywise_nonneg_check(hermitian_from_diag([-1.0, 2.0]))
    assert rep.holds
    assert rep.min_entry == pytest.approx(0.0, abs=1e-15)


def test_exp_entrywise_random_nonneg_offdiag():
    # nonnegative off-diagonals force an entrywise nonnegative exponential
    rng = np.random.default_rng(18)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = random_hermitian(rng, n).mat.copy()
        off = ~np.eye(n, dtype=bool)
        m[off] = np.abs(m[off])
        rep = exp_entrywise_nonneg_check(validate_hermitian(m), tol=1e-12)
        assert rep.holds
