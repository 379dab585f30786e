"""Acceptance suite: the ten build-gating criteria.

Each test prints one PASS/FAIL line with its worst observed metrics, then
asserts.  Instances are seeded so every run exercises the same ensemble.
"""

import math
import subprocess
import sys
import time

import numpy as np

from expconvex import (
    DichotomyViolated,
    ScalarFunction,
    TGrid,
    TracePair,
    check_exponential_convexity,
    commuting_measure,
    default_grid,
    dichotomy_check,
    ec_product,
    ec_scale,
    ec_sum,
    entrywise_ec_check,
    exp_entrywise_nonneg_check,
    fit_measure,
    gram,
    growth_exponents,
    hermitian_from_diag,
    laplace_transform,
    lie_product_approx,
    lie_trace_function,
    matrix_exp_hermitian,
    max_abs,
    perron_shift,
    psd_check,
    random_rank_one_pair,
    reduce,
    reduction_residuals,
    sample_trace_f,
    trace_f,
    trace_function,
    validate_hermitian,
)
from expconvex.verify import random_grid


def announce(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def seeded_pairs(tag, count, n_lo=2, n_hi=7):
    out = []
    for i in range(count):
        rng = np.random.default_rng([tag, i])
        n = int(rng.integers(n_lo, n_hi + 1))
        out.append((i, rng, random_rank_one_pair(rng, n)))
    return out


def nonneg_offdiag_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = (g + g.conj().T) / 2.0
    off = ~np.eye(n, dtype=bool)
    m[off] = np.abs(m[off])
    return validate_hermitian(m)


def test_criterion_01_reduction_suite(capsys):
    started = time.perf_counter()
    worst_ra = worst_rb = worst_tr = 0.0
    min_off = 0.0
    ok = True
    for _, _, pair in seeded_pairs(1001, 200):
        red = reduce(pair.A, pair.B)
        ra, rb = reduction_residuals(pair.A, pair.B, red)
        worst_ra, worst_rb = max(worst_ra, ra), max(worst_rb, rb)
        ok &= ra <= 1e-10 and rb <= 1e-10

        off = ~np.eye(pair.n, dtype=bool)
        mo = float(red.M.mat.real[off].min())
        min_off = min(min_off, mo)
        ok &= mo >= -1e-12

        lm = TracePair(red.L, red.M)
        for t in np.linspace(-2.0, 2.0, 11):
            fa = trace_f(pair, float(t))
            fl = trace_f(lm, float(t))
            err = abs(fa - fl) / max(1.0, fa)
            worst_tr = max(worst_tr, err)
            ok &= err <= 1e-9
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    announce(
        capsys, "criterion 1 reduction suite (200 instances)", ok,
        f"residuals {worst_ra:.2e}/{worst_rb:.2e}, min offdiag {min_off:.2e}, "
        f"trace err {worst_tr:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_exponential_convexity(capsys):
    worst = 0.0  # most negative min eigenvalue relative to its tolerance scale
    ok = True
    for i, rng, pair in seeded_pairs(1001, 200):
        f = trace_function(pair)
        grid_rng = np.random.default_rng([1002, i])
        for grid in (default_grid(), random_grid(grid_rng)):
            rep = check_exponential_convexity(f, grid, tol=1e-8)
            scaled = rep.min_eigenvalue / max(1.0, rep.tolerance / 1e-8)
            worst = min(worst, scaled)
            ok &= rep.passed
    announce(
        capsys, "criterion 2 exponential convexity (200 instances, 2 grids each)",
        ok, f"worst scaled min eigenvalue {worst:.2e} (limit -1e-8)",
    )
    assert ok


def test_criterion_03_lie_convergence(capsys):
    worst_ratio = 0.0
    ok = True
    for _, _, pair in seeded_pairs(1003, 20):
        errs = {}
        for p in (8, 16, 32, 64, 128, 256, 512, 1024):
            errs[p] = lie_product_approx(pair.A, pair.B, p, with_reference=True).reference_error
        for k in (8, 16, 32, 64, 128, 256, 512):
            ratio = errs[2 * k] / errs[k]
            worst_ratio = max(worst_ratio, ratio)
            ok &= ratio <= 0.75
    announce(
        capsys, "criterion 3 Lie convergence (20 instances, k in 8..512)",
        ok, f"worst halving ratio {worst_ratio:.3f} (limit 0.75)",
    )
    assert ok


def test_criterion_04_entrywise_exponential_suite(capsys):
    worst_entry = 0.0
    worst_id = 0.0
    ok = True
    for i in range(100):
        rng = np.random.default_rng([1004, i])
        n = int(rng.integers(2, 8))
        m = nonneg_offdiag_hermitian(rng, n)

        rep = exp_entrywise_nonneg_check(m, tol=1e-12)
        worst_entry = min(worst_entry, rep.min_entry)
        ok &= rep.holds and rep.min_entry >= -1e-12

        ps = perron_shift(m)
        lhs = matrix_exp_hermitian(m)
        rhs = math.exp(-ps.rho) * matrix_exp_hermitian(validate_hermitian(ps.shifted))
        rel = max_abs(lhs - rhs) / max(1.0, max_abs(lhs))
        worst_id = max(worst_id, rel)
        ok &= rel <= 1e-10
    announce(
        capsys, "criterion 4 entrywise-nonnegative exponential suite (100 matrices)",
        ok, f"min entry {worst_entry:.2e}, shift identity err {worst_id:.2e}",
    )
    assert ok


def test_criterion_05_entrywise_ec_suite(capsys):
    grid = TGrid.equispaced(-2.0, 2.0, 6)
    worst_imag = 0.0
    ok = True
    for i in range(50):
        rng = np.random.default_rng([1005, i])
        n = int(rng.integers(2, 6))
        l = hermitian_from_diag(rng.uniform(-2.0, 2.0, size=n))
        m = nonneg_offdiag_hermitian(rng, n)
        res = entrywise_ec_check(l, m, grid, tol=1e-8, imag_tol=1e-10)
        worst_imag = max(worst_imag, res.max_imag)
        ok &= res.all_passed
    announce(
        capsys, "criterion 5 entrywise EC of e^{Lt+M} (50 pairs, N=6 grids)",
        ok, f"max imaginary part {worst_imag:.2e} (limit 1e-10)",
    )
    assert ok


def test_criterion_06_commuting_round_trip(capsys):
    worst_rt = worst_mass = 0.0
    ok = True
    for i in range(50):
        rng = np.random.default_rng([1006, i])
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        a = validate_hermitian(q @ np.diag(rng.uniform(-2.0, 2.0, n)) @ q.conj().T)
        b = validate_hermitian(q @ np.diag(rng.uniform(-1.0, 1.0, n)) @ q.conj().T)
        pair = TracePair(a, b)
        measure = commuting_measure(pair)
        for t in np.linspace(-2.0, 2.0, 11):
            f = trace_f(pair, float(t))
            err = abs(laplace_transform(measure, float(t)) - f) / max(1.0, f)
            worst_rt = max(worst_rt, err)
            ok &= err <= 1e-10
        tr_eb = trace_f(pair, 0.0)
        mass_err = abs(measure.total_mass - tr_eb) / max(1.0, tr_eb)
        worst_mass = max(worst_mass, mass_err)
        ok &= mass_err <= 1e-10
    announce(
        capsys, "criterion 6 commuting round trip (50 pairs)",
        ok, f"transform err {worst_rt:.2e}, mass err {worst_mass:.2e}",
    )
    assert ok


def test_criterion_07_measure_fit(capsys):
    worst_hold = 0.0
    ok = True
    fitted = 0
    for i, rng, pair in seeded_pairs(1007, 12, n_lo=2, n_hi=4):
        comm = max_abs(pair.A.mat @ pair.B.mat - pair.B.mat @ pair.A.mat)
        if comm <= 1e-8:
            continue
        est = growth_exponents(pair)
        lo, hi = est.lambda_min_est, est.lambda_max_est
        if hi - lo < 1e-3:
            mid = (lo + hi) / 2.0
            lo, hi = mid - 0.5, mid + 0.5
        samples = sample_trace_f(pair, TGrid.equispaced(-2.0, 2.0, 48))
        fit = fit_measure(samples, (lo, hi), 64)
        fitted += 1

        worst_hold = max(worst_hold, fit.holdout_error)
        ok &= fit.holdout_error <= 1e-3
        ok &= bool(np.all(fit.measure.weights >= 0.0))
        cell = (hi - lo) / 63.0
        if fit.measure.locations.size:
            ok &= fit.measure.locations.min() >= est.lambda_min_true - cell
            ok &= fit.measure.locations.max() <= est.lambda_max_true + cell
    ok &= fitted >= 10
    announce(
        capsys, f"criterion 7 measure fit ({fitted} non-commuting instances, n<=4)",
        ok, f"worst holdout error {worst_hold:.2e} (limit 1e-3)",
    )
    assert ok


def test_criterion_08_negative_controls(capsys):
    grid = TGrid(np.array([-1.0, 0.0, 1.0]))
    gauss = ScalarFunction(fn=lambda t: np.exp(-t * t), label="exp(-t^2)")
    rep = psd_check(gram(gauss, grid))
    quad = float(np.real(rep.witness.conj() @ gram(gauss, grid).matrix @ rep.witness))
    gauss_ok = (not rep.passed) and quad < 0.0

    relu = ScalarFunction(fn=lambda t: np.maximum(t, 0.0), label="max(t,0)")
    try:
        dichotomy_check(relu, grid)
        relu_ok = False
    except DichotomyViolated:
        relu_ok = True

    ok = gauss_ok and relu_ok
    announce(
        capsys, "criterion 8 negative controls", ok,
        f"gauss min eig {rep.min_eigenvalue:.3f} with witness form {quad:.3f}; "
        f"dichotomy violation raised: {relu_ok}",
    )
    assert ok


def test_criterion_09_closure_properties(capsys):
    grid = default_grid()
    ok = True

    # scalings, sums, and products of random nonnegative exponential mixtures
    for i in range(10):
        rng = np.random.default_rng([1009, 100 + i])
        fs = []
        for _ in range(2):
            cs = rng.uniform(0.1, 2.0, size=4)
            mus = rng.uniform(-2.0, 2.0, size=4)
            fs.append(ScalarFunction(
                fn=lambda t, cs=cs, mus=mus: np.exp(np.outer(t, mus)) @ cs,
                label="mixture",
            ))
        f1, f2 = fs
        ok &= check_exponential_convexity(f1, grid).passed
        ok &= check_exponential_convexity(f2, grid).passed
        c = float(rng.uniform(0.0, 3.0))
        for combo in (ec_scale(f1, c), ec_sum(f1, f2), ec_product(f1, f2)):
            ok &= check_exponential_convexity(combo, grid).passed

    # limits: the split-step trace sequence f_p converges uniformly on the grid
    # to the trace function of a reduced pair, every f_p passing the check
    rng = np.random.default_rng([1009, 0])
    pair = random_rank_one_pair(rng, int(rng.integers(2, 6)))
    red = reduce(pair.A, pair.B)
    lm = TracePair(red.L, red.M)
    ref = np.array([trace_f(lm, float(t)) for t in grid.points])
    scale = max(1.0, float(ref.max()))
    errs = []
    for p in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        fp = lie_trace_function(red.L, red.M, p)
        ok &= check_exponential_convexity(fp, grid).passed
        errs.append(float(np.max(np.abs(fp.fn(grid.points) - ref))))
    ok &= all(b < a for a, b in zip(errs, errs[1:]))
    ok &= errs[-1] <= 1e-4 * scale

    announce(
        capsys, "criterion 9 closure properties", ok,
        f"split-step trace err {errs[0]:.2e} -> {errs[-1]:.2e} over p=1..512",
    )
    assert ok


def test_criterion_10_verify_determinism(capsys, tmp_path):
    outs = []
    codes = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "expconvex.cli", "verify",
             "--cases", "50", "--seed", "7", "--out", str(out)],
            capture_output=True, text=True,
        )
        codes.append(proc.returncode)
        outs.append(out.read_bytes())
    ok = codes == [0, 0] and outs[0] == outs[1]
    announce(
        capsys, "criterion 10 verify determinism (--cases 50 --seed 7)", ok,
        f"exit codes {codes}, identical bytes: {outs[0] == outs[1]} "
        f"({len(outs[0])} bytes)",
    )
    assert ok
