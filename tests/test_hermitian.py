"""Tests for validated matrix types, eigh, matrix exponential, Lie products,
and the entrywise-nonnegativity machinery."""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from expconvex import (
    DimensionMismatch,
    HermitianMatrix,
    HypothesisViolated,
    NonFinite,
    NotHermitian,
    NotSquare,
    Overflow,
    conjugate,
    eigh,
    exp_entrywise_nonneg_check,
    hermitian_from_diag,
    lie_product_approx,
    matrix_exp_hermitian,
    max_abs,
    perron_shift,
    validate_hermitian,
)
from expconvex.errors import ConvergenceFailure, ExpConvexError
from expconvex.hermitian import (
    _exp_of, _fix_column_phases, _raised, _split_steps, _stacked_eigh,
)
from expconvex import hermitian as hermitian_module
from expconvex import random_rank_one_pair

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
    # finite entries whose sums in (m + m*)/2 would overflow, refused with no numpy warning
    for entry in (1.7e308, -1.7e308j, 1e308 + 1e308j):
        with pytest.raises(NonFinite, match=r"^matrix entries must not exceed 8\.98846567"):
            validate_hermitian(np.array([[0.0, entry], [np.conj(entry), 0.0]]))


def test_validate_hermitian_keeps_entries_up_to_half_the_double_range():
    half = np.finfo(float).max / 2
    m = np.array([[half, 1j * half], [-1j * half, -half]])
    assert validate_hermitian(m).mat.tobytes() == m.tobytes()


def test_validate_hermitian_frozen():
    h = validate_hermitian(np.eye(2))
    with pytest.raises(ValueError):
        h.mat[0, 0] = 5.0


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
    assert max_abs(conjugate(np.eye(2, dtype=complex), h).mat - h.mat) == 0.0
    with pytest.raises(DimensionMismatch):
        conjugate(np.eye(3, dtype=complex), h)

    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    out = conjugate(swap, hermitian_from_diag([2.0, 0.0]))
    assert np.allclose(out.mat, np.diag([0.0, 2.0]))


def test_conjugate_phase_example():
    u = np.diag([-1j, 1.0])
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
        t0 = np.trace(h.mat).real
        t1 = np.trace(conjugate(q, h).mat).real
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


def test_lie_split_step_overflow_raises_without_a_warning():
    # every exponential is in range, but (e^{x/64} e^{y/64})^64 leaves the double range;
    # the repo's filterwarnings turns a matmul RuntimeWarning into a test error
    h = hermitian_from_diag([0.0, 355.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="^split-step product overflowed double precision$"):
            lie_product_approx(h, h, 64)


def test_lie_rejects_bad_p():
    # a p that is not an integer is an argument error, not matrix_power's TypeError
    x = hermitian_from_diag([0.0, 1.0])
    for p in (0, 2.5, 2.0, "4"):
        with pytest.raises(ValueError, match=f"^p must be a positive integer, got {p}$"):
            lie_product_approx(x, x, p)


def test_lie_takes_a_numpy_integer_p():
    x, y = hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.5, 0.25])
    assert np.array_equal(lie_product_approx(x, y, np.int64(4)).value,
                          lie_product_approx(x, y, 4).value)


def test_lie_rejects_operands_of_two_sizes():
    with pytest.raises(DimensionMismatch, match="^operands are 2x2 and 3x3$"):
        lie_product_approx(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0] * 3), 4)


def test_hermitian_from_diag_rejects_nonfinite():
    with pytest.raises(NonFinite, match="^diagonal contains NaN or Inf$"):
        hermitian_from_diag([math.nan])


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


def test_exp_entrywise_names_a_0x0_matrix():
    with pytest.raises(ValueError, match="^matrix is 0x0: e\\^m has no entry to check$"):
        exp_entrywise_nonneg_check(validate_hermitian(np.zeros((0, 0))))


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


def _exp_reference(h):
    # the one-matrix formula on 2-d arrays: eigh, phase fix, V diag(e^w) V*
    w, v = np.linalg.eigh(h.mat)
    v = _fix_column_phases(v)
    e = (v * np.exp(w)) @ v.conj().T
    return (e + e.conj().T) / 2.0


def _stacked_exp(hs):
    # each matrix's exponential, or the error matrix_exp_hermitian raises for it
    out = []
    for eig in _stacked_eigh([h.mat for h in hs]):
        try:
            out.append(_exp_of(_raised(eig)))
        except ExpConvexError as exc:
            out.append(exc)
    return out


def test_stacked_exp_bitwise_equals_matrix_exp():
    rng = np.random.default_rng(17)
    for n in range(1, 13):
        hs = [random_hermitian(rng, n, scale) for scale in (1e-2, 1.0, 30.0)]
        hs.insert(1, hermitian_from_diag([0.0] * (n - 1) + [701.0]))
        out = _stacked_exp(hs)
        assert isinstance(out[1], Overflow)
        assert str(out[1]) == "largest eigenvalue 701.000 exceeds exp range"
        for h, e in zip(hs[:1] + hs[2:], out[:1] + out[2:]):
            assert e.tobytes() == matrix_exp_hermitian(h).tobytes() == _exp_reference(h).tobytes()
        for h, (w, v) in zip(hs, _stacked_eigh([h.mat for h in hs])):
            w1, v1 = eigh(h)
            assert (w.tobytes(), v.tobytes()) == (w1.tobytes(), v1.tobytes())
            assert not (w.flags.writeable or v.flags.writeable)


def test_stacked_eigh_charges_a_failure_to_its_matrix(monkeypatch):
    real = np.linalg.eigh

    def flaky(a):
        if np.any(a.real == 123.0):
            raise np.linalg.LinAlgError("did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    good = hermitian_from_diag([1.0, 2.0])
    out = _stacked_exp([good, hermitian_from_diag([123.0, 0.0]), good])
    assert str(out[1]) == "eigensolver failed: did not converge"
    assert out[0].tobytes() == out[2].tobytes() == matrix_exp_hermitian(good).tobytes()


def test_stacked_eigh_charges_a_failed_reconstruction_to_its_matrix(monkeypatch):
    real = np.linalg.eigh

    def perturbed(a):
        # each eigenvalue of a marked matrix moves by 1: the residual is 1
        w, v = real(a)
        return w + (a.real[..., :1, 0] == 123.0), v

    good, bad = hermitian_from_diag([1.0, 2.0]), hermitian_from_diag([123.0, 0.0])
    expected = eigh(good)
    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    message = "reconstruction residual 1.000e+00 exceeds 1.230e-08"
    with pytest.raises(ConvergenceFailure, match=f"^{re.escape(message)}$"):
        eigh(bad)
    out = _stacked_eigh([good.mat, bad.mat, good.mat])
    assert isinstance(out[1], ConvergenceFailure) and str(out[1]) == message
    for w, v in (out[0], out[2]):
        assert (w.tobytes(), v.tobytes()) == (expected[0].tobytes(), expected[1].tobytes())


def test_empty_matrices_take_the_general_path():
    # max_abs, _exp_of and the split step have no branch of their own for n = 0
    empty = validate_hermitian(np.zeros((0, 0)))
    assert max_abs(np.zeros(0)) == 0.0 and empty.norm_max() == 0.0
    assert matrix_exp_hermitian(empty).shape == (0, 0)
    approx = lie_product_approx(empty, empty, 4, with_reference=True)
    assert approx.value.shape == (0, 0) and approx.reference_error == 0.0


def _ensemble_pairs():
    # ten pairs of the verify ensemble for each n = 2..12
    rng = np.random.default_rng(2024)
    return [random_rank_one_pair(rng, n) for n in range(2, 13) for _ in range(10)]


def test_eigh_of_a_power_of_two_scaling_is_the_scaled_eigh():
    # dividing by 2^k scales every rounding of the eigensolver exactly: eigh(H / 2^k) = (w / 2^k, V)
    for pair in _ensemble_pairs():
        for h in (pair.A, pair.B):
            w, v = eigh(h)
            for k in (6, 7):
                ws, vs = eigh(HermitianMatrix(h.mat / 2**k))
                assert ws.tobytes() == (w / 2**k).tobytes()
                assert vs.tobytes() == v.tobytes()


def test_stacked_exponentials_and_squarings_equal_one_at_a_time():
    for pair in _ensemble_pairs():
        eigs = [(w / p, v) for w, v in _stacked_eigh([pair.A.mat, pair.B.mat]) for p in (64, 128)]
        exps = _exp_of((np.array([w for w, _ in eigs]), np.array([v for _, v in eigs])))
        for e, eig in zip(exps, eigs):
            assert e.tobytes() == _exp_of(eig).tobytes()
    # the (k, n, n) stack raised to ps[0], its later members squared on: each member has the
    # bits of its own call, and e^{x+y} from the (x, y, x + y) stack those of matrix_exp_hermitian
    for pair in _ensemble_pairs()[::10]:
        xy = HermitianMatrix(pair.A.mat + pair.B.mat)
        eig_x, eig_y, eig_xy = _stacked_eigh([pair.A.mat, pair.B.mat, xy.mat])
        assert _exp_of(eig_xy).tobytes() == matrix_exp_hermitian(xy).tobytes()
        for ps in [(64, 128), (1, 2, 4, 8), (1,), (4, 4, 16)]:
            values = _split_steps(eig_x, eig_y, ps)
            for value, p in zip(values, ps):
                assert value.tobytes() == _split_steps(eig_x, eig_y, (p,))[0].tobytes()


def test_lie_product_approx_at_a_power_of_two_has_the_bits_of_the_scaled_exponentials():
    # e^{x/p} from eigh(x) is the exponential of x / p bit for bit when p is a power of two
    for pair in _ensemble_pairs()[::5]:
        x, y = pair.A, pair.B
        ref = matrix_exp_hermitian(HermitianMatrix(x.mat + y.mat))
        for p in (2**k for k in range(11)):
            ex, ey = (matrix_exp_hermitian(HermitianMatrix(h.mat / p)) for h in (x, y))
            value = np.linalg.matrix_power(ex @ ey, p)
            approx = lie_product_approx(x, y, p, with_reference=True)
            assert approx.value.tobytes() == value.tobytes()
            assert approx.reference_error == max_abs(value - ref)


def _sequential_lie_errors(x, y):
    # lie_product_approx's reference errors at p = 64, then 128, or the first error raised
    try:
        return [lie_product_approx(x, y, p, with_reference=True).reference_error for p in (64, 128)]
    except ExpConvexError as exc:
        return exc


def _stacked_lie_errors(x, y):
    # verify's Lie check: p = 64 and 128 in one stack, from one eigh call of x, y and x + y
    try:
        eigs = _stacked_eigh([x.mat, y.mat, x.mat + y.mat])
        values = _split_steps(_raised(eigs[0]), _raised(eigs[1]), (64, 128))
        ref = _exp_of(_raised(eigs[2]))
        return [max_abs(value - ref) for value in values]
    except ExpConvexError as exc:
        return exc


def test_stacked_lie_check_equals_lie_product_approx():
    for pair in _ensemble_pairs():
        assert _stacked_lie_errors(pair.A, pair.B) == _sequential_lie_errors(pair.A, pair.B)


@pytest.mark.parametrize("x, y, message", [
    # e^{x/64} overflows first
    ([0.0, 701.0 * 64], [0.0, 1.0], "largest eigenvalue 701.000 exceeds exp range"),
    # then e^{y/64}
    ([0.0, 1.0], [0.0, 701.0 * 64], "largest eigenvalue 701.000 exceeds exp range"),
    # every exponential is in range, the split step at p = 64 is not
    ([0.0, 355.0], [0.0, 355.0], "split-step product overflowed double precision"),
    # the split step at p = 64 overflows before e^{x+y} would
    ([0.0, 712.0], [0.0, 1.0], "split-step product overflowed double precision"),
    # the split steps are finite, e^{x+y} is not
    ([0.0, 705.0], [0.0, 1.0], "largest eigenvalue 706.000 exceeds exp range"),
])
def test_stacked_lie_check_raises_as_lie_product_approx(x, y, message):
    x, y = hermitian_from_diag(x), hermitian_from_diag(y)
    stacked, sequential = _stacked_lie_errors(x, y), _sequential_lie_errors(x, y)
    assert isinstance(stacked, Overflow) and isinstance(sequential, Overflow)
    assert str(stacked) == str(sequential) == message


@pytest.mark.parametrize("marker, expect", [
    # eigh fails on y = diag(2, 4); it would not on y / 64, but e^{y/p} comes from eigh(y)
    (2.0, "eigensolver failed: did not converge"),
    # and on x + y = diag(3, 4), whose error follows the split steps
    (3.0, "eigensolver failed: did not converge"),
])
def test_stacked_lie_check_after_a_failed_eigendecomposition(monkeypatch, marker, expect):
    real = np.linalg.eigh

    def flaky(a):
        if np.any(a.real == marker):
            raise np.linalg.LinAlgError("did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    x, y = hermitian_from_diag([1.0, 0.0]), hermitian_from_diag([2.0, 4.0])
    stacked, sequential = _stacked_lie_errors(x, y), _sequential_lie_errors(x, y)
    assert isinstance(stacked, ConvergenceFailure) and isinstance(sequential, ConvergenceFailure)
    assert str(stacked) == str(sequential) == expect


def _by_function(tree):
    """(node, name of the innermost function around it, or None) for every node of tree."""
    stack = [(tree, None)]
    while stack:
        node, func = stack.pop()
        yield node, func
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def test_hermitian_lapack_is_the_one_eigensolver_boundary():
    """No module calls np.linalg.eigh or eigvalsh but through hermitian._lapack, which alone
    turns a LinAlgError into ConvergenceFailure; fit_measure's NNLS handler is the other catch."""
    loose, catches = [], set()
    for path in sorted(Path(hermitian_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        passed = {id(node.args[0]) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "_lapack"}
        for node, func in _by_function(tree):
            if isinstance(node, ast.Attribute) and id(node) not in passed and (
                ast.unparse(node) in ("np.linalg.eigh", "np.linalg.eigvalsh")
            ):
                loose.append(f"{path.name}:{node.lineno} in {func}")
            if isinstance(node, ast.ExceptHandler) and node.type is not None and (
                "LinAlgError" in ast.unparse(node.type)
            ):
                catches.add((path.stem, func))
    assert loose == []
    assert catches == {("hermitian", "_lapack"), ("transform", "fit_measure")}


def test_threading_is_used_in_one_helper():
    """transform._eigh_ahead is the package's one user of threading: one module imports it,
    and no other function names it."""
    imports, users = set(), set()
    for path in sorted(Path(hermitian_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, func in _by_function(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None)]
                if any(name and name.split(".")[0] in ("threading", "concurrent", "_thread")
                       for name in names):
                    imports.add((path.stem, func))
            if isinstance(node, ast.Name) and node.id == "threading":
                users.add((path.stem, func))
    assert imports == {("transform", None)}
    assert users == {("transform", "_eigh_ahead")}


def test_only_the_readers_of_a_stacked_result_raise_its_kept_error():
    """A private kernel takes plain values: the functions that read a stacked result
    (eigh, trace_values, lie_product_approx, lie_trace_function's f_p, entrywise_ec_check,
    verify's _case, the one case of a block) are the only callers of hermitian._raised."""
    callers = set()
    for path in sorted(Path(hermitian_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, func in _by_function(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_raised":
                callers.add((path.stem, func))
    assert callers == {
        ("hermitian", "eigh"), ("hermitian", "lie_product_approx"),
        ("transform", "trace_values"), ("transform", "f_p"),
        ("convexity", "entrywise_ec_check"), ("verify", "_case"),
    }


def test_only_the_public_boundary_builds_validated_types():
    """A private kernel takes arrays: HermitianMatrix, TracePair, GramMatrix and TGrid are
    built only at the public boundary, where input is validated or read (the CLI's commands,
    verify's generators) or a public function returns one."""
    builders = set()
    built = {"HermitianMatrix", "TracePair", "GramMatrix", "TGrid", "TGrid.equispaced"}
    for path in sorted(Path(hermitian_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, func in _by_function(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in built:
                builders.add((path.stem, func))
    assert builders == {
        ("hermitian", "validate_hermitian"), ("hermitian", "conjugate"),
        ("hermitian", "hermitian_from_diag"), ("reduction", "_reduce"),
        ("convexity", "equispaced"), ("convexity", "default_grid"), ("convexity", "gram"),
        ("verify", "random_rank_one_pair"), ("verify", "random_grid"),
        ("cli", "cmd_reduce"), ("cli", "_trace_pair"), ("cli", "cmd_check_ec"),
    }


def test_trace_batch_is_the_one_checker_of_trace_values():
    """The trace kernels only compute: transform._trace_batch alone builds the overflow and
    underflow messages of a trace value, and _contour_values and _top_eigenvalue raise nothing."""
    path = Path(hermitian_module.__file__).parent / "transform.py"
    builders, raisers = set(), set()
    for node, func in _by_function(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and any(
            text in node.value for text in ("exceeds exp range at t = ", "underflows at t = ")
        ):
            builders.add(func)
        if isinstance(node, ast.Raise):
            raisers.add(func)
    assert builders == {"_trace_batch"}
    assert not raisers & {"_contour_values", "_top_eigenvalue"}
