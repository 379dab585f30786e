"""Tests for trace-function evaluation, atomic measures, Laplace transforms,
commuting-case recovery, growth exponents, and the NNLS measure fit."""

import math
import re

import numpy as np
import pytest

from expconvex import (
    AtomicMeasure,
    ConvergenceFailure,
    DimensionMismatch,
    IllConditioned,
    NotCommuting,
    Overflow,
    TGrid,
    TracePair,
    commuting_measure,
    fit_measure,
    growth_exponents,
    hermitian_from_diag,
    laplace_transform,
    laplace_values,
    random_rank_one_pair,
    sample_trace_f,
    trace_f,
    trace_function,
    trace_values,
    validate_hermitian,
)
from expconvex import transform
from expconvex.tolerances import CONTOUR_MIN_N
from expconvex.transform import _stacked_trace_values

COSH1 = math.cosh(1.0)


def pauli_pair():
    a = hermitian_from_diag([0.0, 1.0])
    b = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return TracePair(a, b)


def random_commuting_pair(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    da = rng.uniform(-2.0, 2.0, size=n)
    db = rng.uniform(-1.0, 1.0, size=n)
    a = validate_hermitian(q @ np.diag(da) @ q.conj().T)
    b = validate_hermitian(q @ np.diag(db) @ q.conj().T)
    return TracePair(a, b), np.sort(da)


def test_trace_pair_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        TracePair(hermitian_from_diag([1.0]), hermitian_from_diag([1.0, 2.0]))


def test_trace_f_zero_pair_constant():
    pair = TracePair(hermitian_from_diag([0.0, 0.0]), hermitian_from_diag([0.0, 0.0]))
    for t in (-3.0, 0.0, 1.7):
        assert trace_f(pair, t) == pytest.approx(2.0)


def test_trace_f_diagonal_closed_form():
    pair = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0, 0.0]))
    assert trace_f(pair, 0.0) == pytest.approx(2.0)
    assert trace_f(pair, math.log(3.0)) == pytest.approx(4.0)


def test_trace_f_pauli_value():
    assert trace_f(pauli_pair(), 0.0) == pytest.approx(2.0 * COSH1, rel=1e-14)


def test_trace_f_positive_random():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pair = TracePair(
            validate_hermitian((g + g.conj().T) / 2.0),
            validate_hermitian((h + h.conj().T) / 2.0),
        )
        for t in np.linspace(-2.0, 2.0, 5):
            assert trace_f(pair, float(t)) > 0.0


def test_trace_f_growth_sandwich():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = 4
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = validate_hermitian((g + g.conj().T) / 2.0)
        b = validate_hermitian((h + h.conj().T) / 2.0)
        pair = TracePair(a, b)
        lam_max = float(np.linalg.eigvalsh(a.mat)[-1])
        bnorm = float(np.abs(np.linalg.eigvalsh(b.mat)).max())
        for t in (0.5, 1.0, 2.0):
            f = trace_f(pair, t)
            assert f >= math.exp(t * lam_max) * math.exp(-bnorm) * (1.0 - 1e-12)
            assert f <= n * math.exp(t * lam_max) * math.exp(bnorm) * (1.0 + 1e-12)


def test_trace_f_overflow():
    pair = TracePair(hermitian_from_diag([0.0, 400.0]), hermitian_from_diag([0.0, 0.0]))
    with pytest.raises(Overflow):
        trace_f(pair, 2.0)


def _scalar_trace_reference(pair, t):
    # one eigvalsh per point: the evaluation that trace_values batches
    h = t * pair.A.mat + pair.B.mat
    return float(np.sum(np.exp(np.linalg.eigvalsh((h + h.conj().T) / 2.0))))


@pytest.mark.parametrize("n, points", [(2, 40), (7, 40), (12, 40), (256, 4)])
def test_trace_values_bitwise_equals_pointwise(n, points):
    # n = 256 holds one matrix per eigvalsh chunk, so the batch spans chunks;
    # there A gets rank two, which keeps the pair on the dense kernel
    rng = np.random.default_rng([44, n])
    pair = random_rank_one_pair(rng, n)
    if n >= CONTOUR_MIN_N:
        a = pair.A.mat + random_rank_one_pair(rng, n).A.mat
        pair = TracePair(validate_hermitian(a), pair.B)
    ts = rng.uniform(-2.0, 2.0, size=points)
    vals = trace_values(pair, ts)
    assert vals.shape == ts.shape
    assert vals.tolist() == [trace_f(pair, float(t)) for t in ts]
    assert vals.tolist() == [_scalar_trace_reference(pair, float(t)) for t in ts]


def test_trace_values_overflow_names_first_t():
    pair = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0, 0.0]))
    with pytest.raises(Overflow, match=r"at t = 750\.0$"):
        trace_values(pair, [0.0, 750.0, 720.0])
    # n = 128 holds four matrices per chunk: the first offender in input
    # order sits in a later chunk than a smaller t would suggest
    big = TracePair(
        hermitian_from_diag([0.0] * 127 + [1.0]), hermitian_from_diag([0.0] * 128)
    )
    with pytest.raises(Overflow, match=r"at t = 900\.0$"):
        trace_values(big, [0.0, 1.0, 2.0, 3.0, 4.0, 900.0, 800.0])


def test_trace_values_underflow_names_first_t():
    # f(t) = e^-800 (1 + e^t) is a positive number only for t above about 54.9
    pair = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([-800.0, -800.0]))
    assert trace_values(pair, [100.0])[0] > 0.0
    with pytest.raises(Overflow, match=r"^trace value 0\.0 underflows at t = 10\.0$"):
        trace_values(pair, [100.0, 10.0, -4.0])


def test_sample_trace_f():
    pair = TracePair(hermitian_from_diag([0.0, 0.0]), hermitian_from_diag([0.0, 0.0]))
    samples = sample_trace_f(pair, TGrid(np.array([-1.0, 0.0, 1.0])))
    assert samples == [(-1.0, 2.0), (0.0, 2.0), (1.0, 2.0)]

    samples = sample_trace_f(pauli_pair(), TGrid(np.array([0.0])))
    assert len(samples) == 1
    assert samples[0][1] == pytest.approx(2.0 * COSH1)

    samples = sample_trace_f(pair, TGrid(np.array([5.0])))
    assert samples[0][0] == 5.0


def test_atomic_measure_merge_and_sort():
    m = AtomicMeasure.from_atoms([(1.0, 0.5), (0.0, 1.0), (1.0 + 1e-12, 0.25)])
    assert np.allclose(m.locations, [0.0, 1.0])
    assert np.allclose(m.weights, [1.0, 0.75])
    assert m.total_mass == pytest.approx(1.75)
    assert np.all(np.diff(m.locations) > 0.0)


def test_atomic_measure_rejects_bad_atoms():
    with pytest.raises(ValueError):
        AtomicMeasure.from_atoms([(0.0, -1.0)])
    with pytest.raises(ValueError):
        AtomicMeasure.from_atoms([(float("inf"), 1.0)])


def test_laplace_transform_values():
    m = AtomicMeasure.from_atoms([(0.0, 1.0), (1.0, 1.0)])
    assert laplace_transform(m, math.log(3.0)) == pytest.approx(4.0)

    empty = AtomicMeasure.from_atoms([])
    for t in (-2.0, 0.0, 7.0):
        assert laplace_transform(empty, t) == 0.0
    # the general path on a measure without atoms: float zeros, and no mass
    vals = laplace_values(empty, [-2.0, 0.0, 7.0])
    assert vals.dtype == float and vals.tobytes() == np.zeros(3).tobytes()
    assert empty.total_mass == 0.0

    single = AtomicMeasure.from_atoms([(-1.0, 2.0)])
    assert laplace_transform(single, 0.0) == pytest.approx(2.0)


def test_laplace_transform_overflow():
    m = AtomicMeasure.from_atoms([(400.0, 1.0)])
    with pytest.raises(Overflow):
        laplace_transform(m, 2.0)


@pytest.mark.parametrize("ts", [0.5, [[0.0, 1.0]]])
def test_laplace_values_rejects_points_that_are_not_1d(ts):
    m = AtomicMeasure.from_atoms([(0.0, 1.0), (1.0, 1.0)])
    message = f"ts must be a 1-d array of points, got shape {np.shape(ts)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        laplace_values(m, ts)


_NON_FINITE_POINTS = [([math.nan], 0), ([0.0, math.inf], 1), ([1.0, 2.0, -math.inf, math.nan], 2)]


@pytest.mark.parametrize("ts, k", _NON_FINITE_POINTS)
def test_laplace_values_refuses_a_point_that_is_not_finite(ts, k):
    m = AtomicMeasure.from_atoms([(0.0, 1.0), (1.0, 1.0)])
    message = f"ts[{k}] = {ts[k]} is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        laplace_values(m, ts)


def test_commuting_measure_diagonal_value_of_b_past_exp_range_overflows():
    pair = TracePair(hermitian_from_diag([0.0, 0.0]), hermitian_from_diag([701.0, 701.0]))
    with pytest.raises(Overflow, match="^diagonal value of B exceeds exp range$"):
        commuting_measure(pair)


def test_commuting_measure_diagonal():
    pair = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0, 0.0]))
    m = commuting_measure(pair)
    assert np.allclose(m.locations, [0.0, 1.0])
    assert np.allclose(m.weights, [1.0, 1.0])


def test_commuting_measure_merges_degenerate_spectrum():
    pair = TracePair(hermitian_from_diag([1.0, 1.0]), hermitian_from_diag([math.log(2.0), 0.0]))
    m = commuting_measure(pair)
    assert np.allclose(m.locations, [1.0])
    assert m.weights[0] == pytest.approx(3.0)


def test_commuting_measure_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        commuting_measure(pauli_pair())


def test_commuting_measure_degenerate_block_needs_rotation():
    # A has a 2-dim eigenspace on which B acts nontrivially; the projected
    # block must be rediagonalized for the atom weights to come out right
    rng = np.random.default_rng(43)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    a = validate_hermitian(q @ np.diag([0.0, 0.0, 2.0]) @ q.conj().T)
    b = validate_hermitian(q @ np.diag([0.5, -0.5, 1.0]) @ q.conj().T)
    pair = TracePair(a, b)
    m = commuting_measure(pair)
    assert np.allclose(m.locations, [0.0, 2.0], atol=1e-12)
    assert m.weights[0] == pytest.approx(math.exp(0.5) + math.exp(-0.5), rel=1e-12)
    assert m.weights[1] == pytest.approx(math.exp(1.0), rel=1e-12)


def test_commuting_round_trip_and_mass():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        pair, _ = random_commuting_pair(rng, n)
        m = commuting_measure(pair)
        for t in np.linspace(-2.0, 2.0, 11):
            f = trace_f(pair, float(t))
            lt = laplace_transform(m, float(t))
            assert abs(f - lt) <= 1e-10 * max(1.0, f)
        mass = m.total_mass
        tr_eb = trace_f(pair, 0.0)
        assert abs(mass - tr_eb) <= 1e-10 * max(1.0, tr_eb)


def test_growth_exponents_diagonal():
    pair = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0, 0.0]))
    est = growth_exponents(pair)
    assert est.lambda_max_est == pytest.approx(1.0, abs=1e-12)
    assert est.lambda_min_est == pytest.approx(0.0, abs=1e-12)
    assert est.lambda_min_true == 0.0 and est.lambda_max_true == 1.0


def test_growth_exponents_zero_a():
    pair = TracePair(hermitian_from_diag([0.0, 0.0]), hermitian_from_diag([0.3, -0.2]))
    est = growth_exponents(pair)
    assert est.lambda_min_est == pytest.approx(0.0, abs=1e-12)
    assert est.lambda_max_est == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "b_diag, t",
    [((-800.0, -800.0), "40.0"), ((-800.0, -700.0), "-80.0")],
    ids=["t=40", "t=-80"],
)
def test_growth_exponents_far_underflow_names_t(b_diag, t):
    # every eigenvalue of tA + B is below -745 at that far point: e^x underflows to 0
    pair = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag(b_diag))
    with pytest.raises(Overflow, match=rf"^trace value 0\.0 underflows at t = {t}$"):
        growth_exponents(pair)


def test_growth_exponents_random_within_tolerance():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = 4
        lam = float(rng.uniform(0.5, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pair = TracePair(
            validate_hermitian(lam * np.outer(v, v.conj())),
            validate_hermitian((g + g.conj().T) / 2.0),
        )
        est = growth_exponents(pair)
        assert est.lambda_min_est <= est.lambda_max_est
        assert abs(est.lambda_min_est - est.lambda_min_true) <= 0.05
        assert abs(est.lambda_max_est - est.lambda_max_true) <= 0.05


def test_fit_measure_two_atom_example():
    ts = np.linspace(-2.0, 2.0, 21)
    samples = [(float(t), 1.0 + math.exp(float(t))) for t in ts]
    fit = fit_measure(samples, (0.0, 1.0), 41)
    assert fit.holdout_error <= 1e-3
    assert abs(fit.measure.total_mass - 2.0) <= 1e-6
    assert np.all(fit.measure.weights >= 0.0)
    # mass concentrates on the true atoms at 0 and 1
    for true_loc in (0.0, 1.0):
        dist = np.abs(fit.measure.locations - true_loc).min()
        assert dist <= 1.0 / 40.0


def test_fit_measure_zero_samples():
    samples = [(float(t), 0.0) for t in np.linspace(-1.0, 1.0, 12)]
    fit = fit_measure(samples, (-1.0, 1.0), 8)
    assert fit.training_residual == pytest.approx(0.0, abs=1e-12)
    assert fit.holdout_error == pytest.approx(0.0, abs=1e-12)
    assert fit.measure.total_mass <= 1e-9


def test_fit_measure_pauli_pair():
    pair = pauli_pair()
    samples = sample_trace_f(pair, TGrid.equispaced(-2.0, 2.0, 48))
    est = growth_exponents(pair)
    fit = fit_measure(samples, (est.lambda_min_est, est.lambda_max_est), 64)
    assert np.all(fit.measure.weights >= 0.0)
    assert fit.holdout_error <= 1e-3


def test_fit_measure_deterministic():
    ts = np.linspace(-2.0, 2.0, 21)
    samples = [(float(t), 2.0 * math.exp(0.5 * float(t))) for t in ts]
    f1 = fit_measure(samples, (-1.0, 1.0), 33)
    f2 = fit_measure(samples, (-1.0, 1.0), 33)
    assert np.array_equal(f1.measure.locations, f2.measure.locations)
    assert np.array_equal(f1.measure.weights, f2.measure.weights)
    assert f1.holdout_error == f2.holdout_error


def test_fit_measure_preconditions():
    samples = [(0.0, 1.0), (1.0, 2.0)]
    with pytest.raises(ValueError):
        fit_measure(samples, (0.0, 1.0), 64)  # too few samples
    with pytest.raises(ValueError):
        fit_measure(samples, (1.0, 0.0), 2)  # inverted support
    with pytest.raises(ValueError):
        fit_measure(samples, (0.0, 1.0), 0)  # no atoms
    with pytest.raises(ValueError):
        fit_measure(samples, (0.0, 1.0), 2, reg=-1.0)


@pytest.mark.parametrize("reg", [math.nan, math.inf])
def test_fit_measure_rejects_nonfinite_reg(reg):
    samples = [(float(t), math.exp(t)) for t in np.linspace(-2.0, 2.0, 12)]
    with pytest.raises(ValueError, match=f"reg must be finite, got {reg}"):
        fit_measure(samples, (0.0, 1.0), 4, reg=reg)


@pytest.mark.parametrize("support", [(0.0, math.inf), (-math.inf, 1.0), (-1e308, 1e308)],
                         ids=["inf-hi", "inf-lo", "width-overflows"])
def test_fit_measure_refuses_a_support_that_is_not_finite(support):
    samples = [(float(t), math.exp(t)) for t in np.linspace(-2.0, 2.0, 12)]
    message = f"support must have finite ends and width, got [{support[0]}, {support[1]}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit_measure(samples, support, 4)


def test_fit_measure_needs_a_holdout_sample():
    # every third sample is held out: two samples leave none to score
    samples = [(0.0, 1.0), (1.0, 2.0)]
    with pytest.raises(ValueError, match="at least 3 samples"):
        fit_measure(samples, (0.0, 1.0), 1)


# every third sample, from index 2 on, is held out
@pytest.mark.parametrize("k, sample", [
    (1, (0.0, math.nan)), (3, (math.nan, 1.0)), (2, (0.5, math.nan)), (5, (0.5, math.inf)),
], ids=["training-nan-f", "training-nan-t", "holdout-nan-f", "holdout-inf-f"])
def test_fit_measure_refuses_a_sample_that_is_not_finite(k, sample):
    samples = [(float(t), math.cosh(t)) for t in np.linspace(-1.0, 1.0, 9)]
    samples[k] = sample
    message = f"samples[{k}] = {list(sample)} is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit_measure(samples, (-1.0, 1.0), 8)


def test_fit_measure_overflowing_design_is_ill_conditioned():
    samples = [(float(t), 1.0) for t in np.linspace(-2.0, 2.0, 12)]
    with pytest.raises(IllConditioned):
        fit_measure(samples, (0.0, 500.0), 8)


@pytest.mark.parametrize("failure", ["raises", "nan"])
def test_fit_measure_nnls_failure_is_ill_conditioned(monkeypatch, failure):
    import scipy.optimize

    def nnls(a, b):
        if failure == "raises":
            raise RuntimeError("too many iterations")
        return np.full(a.shape[1], np.nan), 0.0

    monkeypatch.setattr(scipy.optimize, "nnls", nnls)
    samples = [(float(t), math.cosh(t)) for t in np.linspace(-1.0, 1.0, 9)]
    message = ("^NNLS solver failed: too many iterations$" if failure == "raises"
               else "^NNLS produced non-finite weights$")
    with pytest.raises(IllConditioned, match=message):
        fit_measure(samples, (-1.0, 1.0), 8)


def test_trace_values_rejects_2d_points():
    message = "ts must be a 1-d array of points, got shape (1, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_values(pauli_pair(), [[0.0, 1.0]])


@pytest.mark.parametrize("ts, k", _NON_FINITE_POINTS)
@pytest.mark.parametrize("a", [[0.0, 1.0], [0.0, 0.0]], ids=["A=diag(0,1)", "A=0"])
def test_trace_values_refuses_a_point_that_is_not_finite(ts, k, a):
    pair = TracePair(hermitian_from_diag(a), hermitian_from_diag([0.0, 0.0]))
    message = f"ts[{k}] = {ts[k]} is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_values(pair, ts)


def test_trace_values_of_an_empty_pair_are_zero():
    empty = validate_hermitian(np.zeros((0, 0)))
    vals = trace_values(TracePair(empty, empty), [-1.0, 0.0, 2.0])
    assert np.array_equal(vals, np.zeros(3))


def test_trace_function_label():
    f = trace_function(pauli_pair())
    assert "2" in f.label
    assert f(0.0) == pytest.approx(2.0 * COSH1)


def _arrays(groups):
    # (pair, ts) groups as the (a, b, ts) groups of the dense kernel
    return [(pair.A.mat, pair.B.mat, ts) for pair, ts in groups]


def test_stacked_kernel_bitwise_equals_trace_values():
    # n = 12 holds 455 matrices per eigvalsh chunk, so the last batch
    # (3 x 200 points) spans two chunks, with a group on each side of the cut
    rng = np.random.default_rng(45)
    for n, most in [(n, 40) for n in range(2, 13)] + [(12, 201)]:
        groups = [
            (random_rank_one_pair(rng, n), rng.uniform(-3.0, 3.0, size=int(rng.integers(1, most))))
            for _ in range(3)
        ]
        if most > 40:
            groups = [(pair, rng.uniform(-3.0, 3.0, size=200)) for pair, _ in groups]
        for (pair, ts), vals in zip(groups, _stacked_trace_values(_arrays(groups))):
            assert vals.tobytes() == trace_values(pair, ts).tobytes()
            assert vals.tolist() == [_scalar_trace_reference(pair, float(t)) for t in ts]


def _error_or_values(pair, ts):
    try:
        return trace_values(pair, ts)
    except Overflow as exc:
        return exc


def test_stacked_kernel_keeps_each_groups_error():
    line = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0, 0.0]))
    cold = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([-800.0, -800.0]))
    groups = [
        (pauli_pair(), np.array([0.5, -1.0])),
        (line, np.array([0.0, 750.0, 720.0])),  # overflow at 750
        (cold, np.array([100.0, 10.0, -4.0])),  # underflow at 10
        (line, np.array([1.0, 1e308])),  # out of range, checked before any evaluation
        (pauli_pair(), np.array([2.0])),
    ]
    out = _stacked_trace_values(_arrays(groups))
    assert [type(r).__name__ for r in out] == ["ndarray", "Overflow", "Overflow", "Overflow", "ndarray"]
    for (pair, ts), result in zip(groups, out):
        expect = _error_or_values(pair, ts)
        if isinstance(expect, Overflow):
            assert str(result) == str(expect)
        else:
            assert result.tobytes() == expect.tobytes()


def test_stacked_kernel_charges_a_failed_eigensolve_to_its_group(monkeypatch):
    real = np.linalg.eigvalsh

    def flaky(h):
        if np.any(h.real == 123.0):
            raise np.linalg.LinAlgError("did not converge")
        return real(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
    bad = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([123.0, 0.0]))
    ts = np.array([0.0, 0.5])
    groups = [(pauli_pair(), ts), (bad, ts), (pauli_pair(), ts)]
    first, failed, last = _stacked_trace_values(_arrays(groups))
    assert isinstance(failed, ConvergenceFailure)
    assert str(failed) == "eigensolver failed: did not converge"
    assert first.tobytes() == last.tobytes() == trace_values(pauli_pair(), ts).tobytes()


def test_stacked_kernel_adjacent_groups_of_one_pair():
    # groups of one pair share a range check, and each keeps its own tA + B product; at
    # n = 12 a chunk holds 455 matrices, so the cut falls inside the first pair's run
    rng = np.random.default_rng(46)
    p, q = random_rank_one_pair(rng, 12), random_rank_one_pair(rng, 12)
    sizes = [(p, 200), (p, 200), (p, 100), (q, 50), (p, 7), (p, 0), (q, 3)]
    groups = [(pair, rng.uniform(-3.0, 3.0, size=k)) for pair, k in sizes]
    for (pair, ts), vals in zip(groups, _stacked_trace_values(_arrays(groups))):
        assert vals.tobytes() == trace_values(pair, ts).tobytes()


def test_stacked_kernel_charges_a_range_error_to_its_group_alone():
    line = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0, 0.0]))
    groups = [(line, np.array([0.5, -1.0])), (line, np.array([1.0, 1e308])),
              (line, np.array([2.0]))]
    first, failed, last = _stacked_trace_values(_arrays(groups))
    assert str(failed) == "t*A + B leaves the double-precision range at t = 1e+308"
    assert first.tobytes() == trace_values(line, [0.5, -1.0]).tobytes()
    assert last.tobytes() == trace_values(line, [2.0]).tobytes()


def test_stacked_kernel_checks_the_range_once_per_shared_pair(monkeypatch):
    # groups that share their arrays a and b share one range check; when one group of a shared
    # pair has a t beyond the double range, that group alone gets the Overflow naming its t
    p, q = pauli_pair(), random_rank_one_pair(np.random.default_rng(48), 2)
    checked = []
    real = transform._raise_out_of_range

    def counted(ts, a_norm, b_norm):
        checked.append(ts.tolist())
        real(ts, a_norm, b_norm)

    monkeypatch.setattr(transform, "_raise_out_of_range", counted)
    good = [(p, np.array([0.5, -1.0])), (q, np.array([2.0])), (p, np.array([1.5])),
            (q, np.array([-2.0, 0.0]))]
    expected = [trace_values(pair, ts).tobytes() for pair, ts in good]
    checked.clear()
    assert [v.tobytes() for v in _stacked_trace_values(_arrays(good))] == expected
    assert checked == [[0.5, -1.0, 1.5], [2.0, -2.0, 0.0]]
    groups = good[:2] + [(p, np.array([1.0, -1e308]))] + good[2:]
    out = _stacked_trace_values(_arrays(groups))
    assert isinstance(out[2], Overflow)
    assert str(out[2]) == "t*A + B leaves the double-precision range at t = -1e+308"
    assert [v.tobytes() for v in out[:2] + out[3:]] == expected
