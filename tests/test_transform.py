"""Tests for trace-function evaluation, atomic measures, Laplace transforms,
commuting-case recovery, growth exponents, and the NNLS measure fit."""

import math
import re
import tracemalloc

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
from expconvex.transform import _CHUNK_BYTES, _trace_batch

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
    # n = 128 with a rank-one A takes the contour kernel: the first offender in
    # input order is named, not the largest t
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


def test_trace_values_holds_one_chunk_of_a_long_contour_batch():
    # the contour kernel's (k, n) complex terms take 20 MB each for 20,000 points at
    # n = 64; trace_values hands it 1,024 points, 1 MiB of terms, at a time
    pair = random_rank_one_pair(np.random.default_rng([50, 64]), 64)
    ts = np.linspace(-2.0, 2.0, 20_000)
    tracemalloc.start()
    try:
        trace_values(pair, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n, points", [(32, 5000), (4, 10_000)], ids=["contour", "dense"])
def test_trace_values_chunks_give_the_bits_of_short_batches(n, points):
    # 2,048 points per contour chunk at n = 32 and 4,096 per dense chunk at n = 4: the
    # values of a batch that spans three chunks equal those of its slices of 7 points
    rng = np.random.default_rng([51, n])
    pair = random_rank_one_pair(rng, n)
    ts = rng.uniform(-3.0, 3.0, size=points)
    slices = np.concatenate([trace_values(pair, ts[lo : lo + 7]) for lo in range(0, points, 7)])
    assert trace_values(pair, ts).tobytes() == slices.tobytes()


def test_trace_values_checks_the_range_of_every_chunk_first(monkeypatch):
    # a t beyond the double range in the last contour chunk is named before any evaluation
    calls = []
    monkeypatch.setattr(transform, "_contour_values", lambda ts, *args: calls.append(ts.size))
    pair = random_rank_one_pair(np.random.default_rng([52, CONTOUR_MIN_N]), CONTOUR_MIN_N)
    ts = np.zeros(5000)
    ts[-1] = 1e308
    message = "t*A + B leaves the double-precision range at t = 1e+308"
    with pytest.raises(Overflow, match=f"^{re.escape(message)}$"):
        trace_values(pair, ts)
    assert calls == []


def test_contour_batch_reports_an_earlier_chunks_underflow_first():
    # f(t) = e^-800 (31 + e^t) underflows at t = 10 and overflows past t = 1,500; with 2,048
    # points per contour chunk at n = 32 the underflow's chunk comes first, as in the dense
    # kernel, and within one chunk the overflow is reported first
    n = CONTOUR_MIN_N
    pair = TracePair(hermitian_from_diag([0.0] * (n - 1) + [1.0]),
                     hermitian_from_diag([-800.0] * n))
    ts = np.full(5000, 100.0)
    ts[5], ts[3000] = 10.0, 2000.0
    with pytest.raises(Overflow, match=r"^trace value 0\.0 underflows at t = 10\.0$"):
        trace_values(pair, ts)
    with pytest.raises(Overflow, match=r"exceeds exp range at t = 2000\.0$"):
        trace_values(pair, ts[1000:])


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


@pytest.mark.parametrize("tiny", [1e-308, 3e-307])
def test_growth_exponents_far_point_overflow_is_overflow(tiny):
    # t_far = 40/||A||_max (1e-308) or 2 t_far (3e-307) overflows: the error names the far
    # point, not a non-finite t the caller never passed, and numpy warns of nothing
    pair = TracePair(hermitian_from_diag([0.0, tiny]), hermitian_from_diag([0.0, 0.0]))
    with pytest.raises(Overflow, match=r"^far point t = 80/\|\|A\|\|_max leaves the "
                       rf"double-precision range at \|\|A\|\|_max = {tiny:.3e}$"):
        growth_exponents(pair)


def test_growth_exponents_names_a_0x0_pair():
    empty = validate_hermitian(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="^matrices are 0x0: f = 0 has no growth exponent$"):
        growth_exponents(TracePair(empty, empty))


def test_growth_exponents_tiny_a_keeps_its_estimate():
    pair = TracePair(hermitian_from_diag([0.0, 1e-300]), hermitian_from_diag([0.0, 0.0]))
    est = growth_exponents(pair)
    assert est.lambda_max_est == pytest.approx(1e-300, rel=1e-12, abs=0.0)
    assert est.lambda_min_est == 0.0


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


def test_fit_measure_holdout_ignores_dead_atoms_that_would_overflow():
    # the atoms near 360 get zero weight, and e^{2 * 360} at the held-out t = 2 would overflow:
    # a dead atom adds nothing, so the holdout error is finite and no warning is raised
    fit = fit_measure([(t, math.exp(t / 2.0)) for t in np.linspace(-2.0, 2.0, 48)],
                      (0.0, 360.0), 16)
    assert math.isfinite(fit.holdout_error)
    assert fit.measure.locations.max() < 2.0 * 360.0 / 15.0


def test_fit_measure_live_atom_overflow_is_ill_conditioned(monkeypatch):
    import scipy.optimize

    def nnls(a, b):
        # a live atom at 360: e^{0.5 * 360} is finite at the training t, e^{2 * 360} is not
        weights = np.zeros(a.shape[1])
        weights[-1] = 1.0
        return weights, 0.0

    monkeypatch.setattr(scipy.optimize, "nnls", nnls)
    with pytest.raises(IllConditioned,
                       match=r"^holdout prediction overflows double precision at t = 2\.0$"):
        fit_measure([(0.0, 1.0), (0.5, 1.0), (2.0, 1.0)], (0.0, 360.0), 8)


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


def _batch(groups):
    # (pair, ts) groups as a batch of one-array pairs
    return [(pair.A, pair.B, [ts]) for pair, ts in groups]


def test_stacked_kernel_bitwise_equals_trace_values():
    # one batch of three pairs is one eigvalsh stack, each value with the bits of its point alone
    rng = np.random.default_rng(45)
    for n in range(2, 13):
        groups = [
            (random_rank_one_pair(rng, n), rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 40))))
            for _ in range(3)
        ]
        for (pair, ts), vals in zip(groups, _trace_batch(_batch(groups))):
            assert vals.tobytes() == trace_values(pair, ts).tobytes()
            assert vals.tolist() == [_scalar_trace_reference(pair, float(t)) for t in ts]


def _error_or_values(pair, ts):
    try:
        return trace_values(pair, ts)
    except Overflow as exc:
        return exc


def _assert_as_alone(groups, out):
    # each result is what trace_values gives or raises for its array alone
    for (pair, ts), result in zip(groups, out):
        expect = _error_or_values(pair, ts)
        if isinstance(expect, Overflow):
            assert type(result) is Overflow and str(result) == str(expect)
        else:
            assert result.tobytes() == expect.tobytes()


def test_stacked_kernel_keeps_each_groups_error():
    line = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([0.0, 0.0]))
    cold = TracePair(hermitian_from_diag([0.0, 1.0]), hermitian_from_diag([-800.0, -800.0]))
    groups = [
        (pauli_pair(), np.array([0.5, -1.0])),
        (line, np.array([0.0, 750.0, 720.0])),  # overflow at 750
        (cold, np.array([100.0, 10.0, -4.0])),  # underflow at 10
        (line, np.array([1.0, 1e308])),  # beyond the double range at 1e308
        (pauli_pair(), np.array([2.0])),
    ]
    out = _trace_batch(_batch(groups))
    assert [type(r).__name__ for r in out] == [
        "ndarray", "Overflow", "Overflow", "Overflow", "ndarray"]
    _assert_as_alone(groups, out)


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
    first, failed, last = _trace_batch(_batch(groups))
    assert isinstance(failed, ConvergenceFailure)
    assert str(failed) == "eigensolver failed: did not converge"
    assert first.tobytes() == last.tobytes() == trace_values(pauli_pair(), ts).tobytes()


def test_stacked_kernel_adjacent_groups_of_one_pair():
    # arrays of one pair, listed under one pair or under two, each keep the bits of their own
    # points: 560 matrices at n = 12, more than the 455 of one chunk
    rng = np.random.default_rng(46)
    p, q = random_rank_one_pair(rng, 12), random_rank_one_pair(rng, 12)
    sizes = [(p, 200), (p, 200), (p, 100), (q, 50), (p, 7), (p, 0), (q, 3)]
    groups = [(pair, rng.uniform(-3.0, 3.0, size=k)) for pair, k in sizes]
    arrays = [ts for _, ts in groups]
    batch = [(p.A, p.B, arrays[:3]), (q.A, q.B, arrays[3:4]), (p.A, p.B, arrays[4:5]),
             (p.A, p.B, arrays[5:6]), (q.A, q.B, arrays[6:])]
    for (pair, ts), vals in zip(groups, _trace_batch(batch)):
        assert vals.tobytes() == trace_values(pair, ts).tobytes()


def test_trace_batch_stacks_cross_the_chunk_within_its_bound(monkeypatch):
    # 3 arrays x 200 points at n = 12 cross the 455-point chunk: two stacks, each within
    # _CHUNK_BYTES, and each array keeps the bits trace_values gives it
    rng = np.random.default_rng(47)
    pair = random_rank_one_pair(rng, 12)
    arrays = [rng.uniform(-3.0, 3.0, size=200) for _ in range(3)]
    expect = [trace_values(pair, ts) for ts in arrays]
    sizes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: sizes.append(h.nbytes) or real(h))
    out = _trace_batch([(pair.A, pair.B, arrays[:2]), (pair.A, pair.B, arrays[2:])])
    assert [vals.tobytes() for vals in out] == [vals.tobytes() for vals in expect]
    assert len(sizes) == 2 and max(sizes) <= _CHUNK_BYTES


def test_trace_batch_charges_each_error_to_its_array_in_a_later_chunk():
    # A has rank one, so n picks the kernel: a chunk holds 455 points of the dense one at n = 12
    # and 2,048 of the contour one at n = CONTOUR_MIN_N, with arrays 1 and 5 times as long.  The
    # overflow at 750 lies in the second chunk of its array, and the next array underflows in its
    # first chunk and overflows in its second, so that it reports the underflow, as trace_values
    # does
    for n, scale in [(12, 1), (CONTOUR_MIN_N, 5)]:
        a = hermitian_from_diag([0.0] * (n - 1) + [1.0])
        line, cold = TracePair(a, hermitian_from_diag([0.0] * n)), TracePair(
            a, hermitian_from_diag([-800.0] * n))
        late_over = np.full(600 * scale, 1.0)
        late_over[500 * scale] = 750.0
        early_under = np.full(600 * scale, 100.0)
        early_under[[10, 500 * scale]] = [10.0, 750.0]
        beyond = np.full(300 * scale, 2.0)
        beyond[250 * scale] = -1e308
        fine = np.linspace(-2.0, 2.0, 300 * scale)
        groups = [(line, fine), (line, late_over), (cold, early_under), (line, beyond),
                  (cold, fine + 100.0), (line, fine)]
        batch = [(line.A, line.B, [fine, late_over]), (cold.A, cold.B, [early_under]),
                 (line.A, line.B, [beyond]), (cold.A, cold.B, [fine + 100.0]),
                 (line.A, line.B, [fine])]
        out = _trace_batch(batch)
        assert [str(r) if isinstance(r, Overflow) else None for r in out] == [
            None, "largest eigenvalue 750.00 of t*A + B exceeds exp range at t = 750.0",
            "trace value 0.0 underflows at t = 10.0",
            "t*A + B leaves the double-precision range at t = -1e+308", None, None]
        _assert_as_alone(groups, out)


def test_trace_batch_mixes_contour_and_dense_pairs(monkeypatch):
    # at n = CONTOUR_MIN_N a rank-one pair takes the contour kernel and a rank-two pair the
    # dense one, within one batch
    n = CONTOUR_MIN_N
    rng = np.random.default_rng([48, n])
    one = random_rank_one_pair(rng, n)
    two = TracePair(validate_hermitian(one.A.mat + random_rank_one_pair(rng, n).A.mat), one.B)
    arrays = [rng.uniform(-3.0, 3.0, size=k) for k in (30, 5, 0, 40)]
    groups = [(one, arrays[0]), (one, arrays[1]), (two, arrays[2]), (two, arrays[3])]
    expect = [trace_values(pair, ts) for pair, ts in groups]
    calls = []
    contour = transform._contour_values
    monkeypatch.setattr(transform, "_contour_values", lambda ts, *args: calls.append(ts.size)
                        or contour(ts, *args))
    out = _trace_batch([(one.A, one.B, arrays[:2]), (two.A, two.B, arrays[2:])])
    assert calls == [35]
    assert [vals.tobytes() for vals in out] == [vals.tobytes() for vals in expect]


def test_trace_batch_of_an_empty_pair_is_zeros():
    empty = validate_hermitian(np.zeros((0, 0)))
    out = _trace_batch([(empty, empty, [np.array([-1.0, 2.0]), np.empty(0), np.zeros(3)])])
    assert [vals.tolist() for vals in out] == [[0.0, 0.0], [], [0.0, 0.0, 0.0]]
