"""Tests for Gram-kernel PSD checks, the positivity dichotomy, closure
combinators, and the entrywise matrix-function checks."""

import math
import sys
import warnings

import numpy as np
import pytest

from expconvex import convexity
from expconvex import (
    DEFAULT_PSD_TOL,
    DichotomyViolated,
    DimensionMismatch,
    EvaluationFailure,
    GramMatrix,
    HermitianMatrix,
    HypothesisViolated,
    NegativeScale,
    Overflow,
    ScalarFunction,
    TGrid,
    TracePair,
    check_exponential_convexity,
    default_grid,
    dichotomy_check,
    ec_product,
    ec_scale,
    ec_sum,
    entrywise_ec_check,
    gram,
    hermitian_from_diag,
    lie_trace_function,
    matrix_exp_hermitian,
    max_abs,
    psd_check,
    trace_f,
    trace_function,
    validate_hermitian,
)

# min eigenvalue of the Gram matrix of e^{-t^2} on {-1, 0, 1}; frozen from a
# direct eigvalsh evaluation of [[e^-4, e^-1, 1], [e^-1, 1, e^-1], [1, e^-1, e^-4]]
GAUSS_GRAM_MIN_EIG = -0.9816843611112656


def exp_function(mu):
    return ScalarFunction(fn=lambda t: np.exp(t * mu), label=f"exp({mu:g}t)")


def gauss():
    return ScalarFunction(fn=lambda t: np.exp(-t * t), label="exp(-t^2)")


def three_grid():
    return TGrid(np.array([-1.0, 0.0, 1.0]))


def random_mixture(rng, k=4):
    # nonnegative combination of exponentials: exponentially convex by closure
    cs = rng.uniform(0.1, 2.0, size=k)
    mus = rng.uniform(-2.0, 2.0, size=k)
    return ScalarFunction(
        fn=lambda t: np.exp(np.outer(t, mus)) @ cs,
        label="mixture",
    )


def test_tgrid_validation():
    g = TGrid(np.array([0.0, 1.0, 3.0]))
    assert g.n == 3
    with pytest.raises(ValueError):
        TGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        TGrid(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        TGrid(np.array([0.0, np.inf]))


def test_tgrid_rejects_an_empty_grid():
    message = r"^grid must be a nonempty 1-d sequence, got shape \(0,\)$"
    with pytest.raises(ValueError, match=message):
        TGrid([])


def test_evaluate_rejects_values_of_another_shape():
    f = ScalarFunction(fn=lambda ts: np.zeros(ts.size + 1), label="long")
    message = r"^long returned shape \(4,\) for points of shape \(3,\)$"
    with pytest.raises(EvaluationFailure, match=message):
        convexity._evaluate(f, three_grid().points)


def test_tgrid_rejects_points_whose_sums_overflow():
    big = sys.float_info.max / 2  # its double is the largest finite float
    g = TGrid(np.array([-big, 0.0, big]))
    assert np.isfinite(g.points[:, None] + g.points[None, :]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts in ([0.0, np.nextafter(big, np.inf)], [-1e308, 1.0]):
            with pytest.raises(ValueError, match="sums t_r \\+ t_s are finite"):
                TGrid(np.array(pts))
        # the ends are checked before linspace, whose step would overflow
        with pytest.raises(ValueError, match="sums t_r \\+ t_s are finite"):
            TGrid.equispaced(-1e308, 1e308, 8)
        with pytest.raises(ValueError, match="non-finite"):
            TGrid.equispaced(-np.inf, 1.0, 8)


def test_tgrid_equispaced_and_default():
    g = TGrid.equispaced(-2.0, 2.0, 8)
    assert g.n == 8
    assert g.points[0] == -2.0 and g.points[-1] == 2.0
    d = default_grid()
    assert d.n == 8
    assert np.array_equal(d.points, g.points)


def test_gram_exponential_rank_one_structure():
    g = gram(exp_function(1.0), TGrid(np.array([0.0, math.log(2.0)])))
    assert np.allclose(g.matrix, [[1.0, 2.0], [2.0, 4.0]], rtol=1e-14)


def test_gram_constant_function_all_ones():
    one = ScalarFunction(fn=np.ones_like, label="one")
    g = gram(one, TGrid(np.array([-1.0, 0.5, 2.0, 3.0])))
    assert np.array_equal(g.matrix, np.ones((4, 4)))


def test_gram_gauss_values_and_symmetry():
    g = gram(gauss(), three_grid())
    e1, e4 = math.exp(-1.0), math.exp(-4.0)
    expect = np.array([[e4, e1, 1.0], [e1, 1.0, e1], [1.0, e1, e4]])
    assert max_abs(g.matrix - expect) <= 1e-15
    assert np.array_equal(g.matrix, g.matrix.T)


def test_gram_evaluates_once_on_distinct_exact_sums():
    calls = []

    def fn(t):
        calls.append(t.copy())
        return np.exp(-t * t)

    pts = default_grid().points
    g = gram(ScalarFunction(fn=fn, label="gauss"), default_grid())
    sums = pts[:, None] + pts[None, :]
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.unique(sums))
    # sums equal in exact arithmetic but not in floating point stay distinct
    assert calls[0].size == 26
    assert np.array_equal(g.matrix, np.exp(-sums * sums))


def test_gram_nonfinite_evaluation():
    bad = ScalarFunction(fn=lambda t: np.full_like(t, np.nan), label="bad")
    with pytest.raises(EvaluationFailure):
        gram(bad, three_grid())


def test_psd_check_identity():
    g = GramMatrix(matrix=np.eye(3))
    rep = psd_check(g)
    assert rep.passed
    assert rep.min_eigenvalue == pytest.approx(1.0)


def test_psd_check_indefinite_with_witness():
    g = GramMatrix(matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))
    rep = psd_check(g)
    assert not rep.passed
    assert rep.min_eigenvalue == pytest.approx(-1.0)
    assert np.allclose(np.abs(rep.witness), [1.0 / math.sqrt(2.0)] * 2)
    quad = float(np.real(rep.witness.conj() @ g.matrix @ rep.witness))
    assert quad == pytest.approx(-1.0)
    assert quad < -rep.tolerance


def test_gauss_gram_fails_psd():
    rep = check_exponential_convexity(gauss(), three_grid())
    assert not rep.passed
    assert rep.min_eigenvalue == pytest.approx(GAUSS_GRAM_MIN_EIG, rel=1e-9)
    g = gram(gauss(), three_grid())
    quad = float(np.real(rep.witness.conj() @ g.matrix @ rep.witness))
    assert quad < 0.0


def test_pure_exponential_passes_any_grid():
    rep = check_exponential_convexity(exp_function(3.0), TGrid.equispaced(-2.0, 2.0, 6))
    assert rep.passed


def test_trace_function_passes_random_rank_one():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        lam = float(rng.uniform(0.3, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pair = TracePair(
            validate_hermitian(lam * np.outer(v, v.conj())),
            validate_hermitian((g + g.conj().T) / 2.0),
        )
        rep = check_exponential_convexity(trace_function(pair), default_grid())
        assert rep.passed


def test_rank_one_gram_identity():
    # for f(t) = e^{t mu} the Gram matrix is exactly the rank-one v v^T
    rng = np.random.default_rng(32)
    for _ in range(10):
        mu = float(rng.uniform(-2.0, 2.0))
        pts = np.sort(rng.uniform(-2.0, 2.0, size=6))
        grid = TGrid(pts)
        g = gram(exp_function(mu), grid)
        v = np.exp(pts * mu)
        scale = max_abs(g.matrix)
        assert max_abs(g.matrix - np.outer(v, v)) <= 1e-12 * scale
        eigs = np.linalg.eigvalsh(g.matrix)
        assert abs(eigs[-2]) <= 1e-10 * scale


def test_dichotomy_trace_function_positive():
    pair = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0, 0.0]))
    rep = dichotomy_check(trace_function(pair), default_grid())
    assert rep.all_positive and not rep.all_zero


def test_dichotomy_zero_function():
    rep = dichotomy_check(ScalarFunction(np.zeros_like, "zero"), default_grid())
    assert rep.all_zero and not rep.all_positive


def test_dichotomy_violated_by_relu():
    relu = ScalarFunction(fn=lambda t: np.maximum(t, 0.0), label="relu")
    with pytest.raises(DichotomyViolated):
        dichotomy_check(relu, three_grid())


def test_ec_scale_zero_gives_zero_gram():
    f = ec_scale(exp_function(1.0), 0.0)
    g = gram(f, three_grid())
    assert max_abs(g.matrix) == 0.0
    assert psd_check(g).passed


def test_ec_scale_rejects_negative():
    with pytest.raises(NegativeScale):
        ec_scale(exp_function(1.0), -1.0)


# refused when the function is built, not when a check first evaluates it
@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_ec_scale_rejects_a_constant_that_is_not_finite(c):
    message = f"scale constant must be a finite number >= 0, got {c}"
    with pytest.raises(NegativeScale, match=f"^{message}$"):
        ec_scale(exp_function(1.0), c)


def test_ec_sum_cosh_passes():
    f = ec_sum(exp_function(1.0), exp_function(-1.0))
    assert f(0.0) == pytest.approx(2.0)
    rep = check_exponential_convexity(f, three_grid())
    assert rep.passed


def test_ec_product_adds_exponents():
    f = ec_product(exp_function(1.0), exp_function(2.0))
    for t in (-1.0, 0.3, 2.0):
        assert f(t) == pytest.approx(math.exp(3.0 * t), rel=1e-13)
    g = gram(f, three_grid())
    eigs = np.linalg.eigvalsh(g.matrix)
    assert abs(eigs[-2]) <= 1e-10 * max_abs(g.matrix)


def test_combinator_labels():
    f = ec_sum(exp_function(1.0), exp_function(-1.0))
    assert "sum" in f.label
    assert "scale" in ec_scale(f, 2.0).label
    assert "product" in ec_product(f, f).label


def test_closure_p1_p2_p3_random():
    rng = np.random.default_rng(34)
    grid = default_grid()
    for _ in range(10):
        f1 = random_mixture(rng)
        f2 = random_mixture(rng)
        assert check_exponential_convexity(f1, grid).passed
        assert check_exponential_convexity(f2, grid).passed
        c = float(rng.uniform(0.0, 3.0))
        for combo in (ec_scale(f1, c), ec_sum(f1, f2), ec_product(f1, f2)):
            assert check_exponential_convexity(combo, grid).passed


def test_p4_lie_trace_sequence_converges():
    l = hermitian_from_diag([0.0, 1.0])
    m = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    grid = TGrid.equispaced(-2.0, 2.0, 6)
    pair = TracePair(l, m)
    ref = [trace_f(pair, float(t)) for t in grid.points]

    errs = []
    for p in (1, 2, 4, 8, 16, 32, 64):
        fp = lie_trace_function(l, m, p)
        assert check_exponential_convexity(fp, grid).passed
        errs.append(max(abs(fp(float(t)) - r) for t, r in zip(grid.points, ref)))
    assert errs[-1] <= 0.05 * errs[0]
    assert errs[-1] == pytest.approx(0.0, abs=1e-2)


# lie_product_approx's errors, raised when the function is built, not at each evaluation
def test_lie_trace_function_refuses_its_arguments_when_built():
    l, m = hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.5, 0.25])
    with pytest.raises(ValueError, match="^p must be a positive integer, got 0$"):
        lie_trace_function(l, m, 0)
    with pytest.raises(DimensionMismatch, match="^operands are 2x2 and 3x3$"):
        lie_trace_function(l, hermitian_from_diag([0.5, 0.25, 0.0]), 4)


def test_entrywise_ec_worked_instance():
    l = hermitian_from_diag([0.0, 1.0])
    m = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    res = entrywise_ec_check(l, m, TGrid.equispaced(-2.0, 2.0, 6))
    assert res.all_passed
    assert res.max_imag <= 1e-10
    assert len(res.reports) == 2 and len(res.reports[0]) == 2


def test_entrywise_one_exponential_per_distinct_sum(monkeypatch):
    # every 2x2 matrix handed to the eigensolver, counted through stacked
    # calls; the Gram matrices of the PSD checks are 4x4
    solved = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a):
        solved.extend(np.reshape(a, (-1, *np.shape(a)[-2:])))
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    grid = TGrid(np.array([-1.0, 0.0, 1.0, 2.5]))
    l = hermitian_from_diag([0.0, 1.0])
    m = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    res = entrywise_ec_check(l, m, grid)
    exps = [a for a in solved if a.shape == (2, 2)]
    assert len(exps) == np.unique(grid.points[:, None] + grid.points[None, :]).size
    assert res.all_passed


def _entrywise_exps_per_sum(l, m, grid):
    # the reference: one matrix_exp_hermitian call per distinct grid sum
    ts, _ = convexity._distinct_sums(grid.points)
    exps = []
    for t in ts:
        h = t * l.mat + m.mat
        exps.append(matrix_exp_hermitian(HermitianMatrix((h + h.conj().T) / 2.0)))
    return np.array(exps)


def _bits(witness):
    return None if witness is None else witness.tobytes()


def test_entrywise_stacked_exponentials_bitwise_equal_per_sum_loop():
    rng = np.random.default_rng(23)
    grids = [default_grid(), TGrid.equispaced(-2.0, 3.0, 5), TGrid(np.array([0.5]))]
    for n in (1, 2, 3, 5, 8):
        l = hermitian_from_diag(2.0 * rng.normal(size=n))
        m = np.abs(rng.normal(size=(n, n)))
        m = validate_hermitian((m + m.T) / 2.0)
        for grid in grids:
            expect = _entrywise_exps_per_sum(l, m, grid)
            ts, inverse = convexity._distinct_sums(grid.points)
            res = entrywise_ec_check(l, m, grid)
            assert res.max_imag == max_abs(expect.imag)
            for j in range(n):
                for k in range(n):
                    got = res.reports[j][k]
                    want = psd_check(GramMatrix(matrix=np.ascontiguousarray(
                        expect.real[inverse][:, :, j, k])))
                    assert (got.passed, got.min_eigenvalue, got.tolerance) == (
                        want.passed, want.min_eigenvalue, want.tolerance)
                    assert _bits(got.witness) == _bits(want.witness)


def test_entrywise_first_overflowing_sum_raises_as_per_sum_loop():
    # e^{tL + M} overflows from t = 8 on: the first such sum raises, as the loop's would
    l = hermitian_from_diag([0.0, 100.0])
    m = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    grid = TGrid(np.array([0.0, 4.0, 8.0]))
    with pytest.raises(Overflow) as per_sum:
        _entrywise_exps_per_sum(l, m, grid)
    with pytest.raises(Overflow) as stacked:
        entrywise_ec_check(l, m, grid)
    assert str(stacked.value) == str(per_sum.value)


def test_entrywise_diagonal_m_trivial():
    l = hermitian_from_diag([-1.0, 2.0])
    m = hermitian_from_diag([0.5, 0.25])
    res = entrywise_ec_check(l, m, TGrid.equispaced(-1.0, 1.0, 4))
    assert res.all_passed


def test_entrywise_on_empty_operands_has_no_reports():
    # no entry, so no Gram matrix: the empty stack reaches no eigensolver
    empty = hermitian_from_diag([])
    res = entrywise_ec_check(empty, empty, three_grid())
    assert res.reports == ()
    assert res.all_passed


def test_entrywise_rejects_negative_offdiag():
    l = hermitian_from_diag([0.0, 1.0])
    m = validate_hermitian(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(HypothesisViolated):
        entrywise_ec_check(l, m, three_grid())


def test_entrywise_rejects_nondiagonal_l():
    l = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    m = hermitian_from_diag([0.0, 0.0])
    with pytest.raises(HypothesisViolated):
        entrywise_ec_check(l, m, three_grid())


def test_entrywise_rejects_operands_of_two_sizes():
    with pytest.raises(HypothesisViolated, match="^operands are 2x2 and 3x3$"):
        entrywise_ec_check(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0] * 3),
                           three_grid())


def _psd_one_eigh(g, tol=DEFAULT_PSD_TOL):
    # psd_check with an eigh call of its own
    w, v = np.linalg.eigh(g.matrix)
    abs_tol = tol * max(1.0, max_abs(g.matrix))
    return bool(w[0] >= -abs_tol), float(w[0]), v[:, 0].tobytes(), abs_tol


def test_stacked_psd_bitwise_equals_one_eigh_per_matrix():
    rng = np.random.default_rng(31)
    for size in (1, 2, 5, 8):
        gs = []
        for scale in (1e-3, 1.0, 1e3, 1e300):
            m = scale * rng.standard_normal((size, size))
            gs.append(GramMatrix(matrix=(m + m.T) / 2.0))
        for tol in (DEFAULT_PSD_TOL, 1e10):
            # at 1e10 * 1e300 the tolerance is inf, without a warning
            for g, rep in zip(gs, convexity._stacked_psd([g.matrix for g in gs], tol)):
                got = (rep.passed, rep.min_eigenvalue, rep.witness.tobytes(), rep.tolerance)
                assert got == _psd_one_eigh(g, tol)
                single = psd_check(g, tol)
                assert got == (single.passed, single.min_eigenvalue, single.witness.tobytes(),
                               single.tolerance)
