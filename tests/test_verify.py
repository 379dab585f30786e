"""Tests for the seeded ensemble runner and its deterministic reports."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from expconvex import (
    AtomicMeasure, TGrid, TracePair, commuting_measure, default_grid, gram, growth_exponents,
    hermitian_from_diag, laplace_values, lie_product_approx, psd_check, random_rank_one_pair,
    reduce, reduction_residuals, run_case, run_verification, trace_function, trace_values,
)
from expconvex import transform, verify
from expconvex.errors import Overflow
from expconvex.hermitian import HermitianMatrix, eigh, max_abs
from expconvex.matrixio import dumps_doc
from expconvex.tolerances import LIE_ERROR_FLOOR

# the checks of one case, in record order
CHECK_ORDER = [
    "reduce_wavw_l",
    "reduce_wbw_m",
    "reduce_offdiag_min",
    "trace_invariance",
    "ec_gram_uniform",
    "ec_gram_random",
    "lie_ratio",
    "roundtrip_transform",
    "roundtrip_mass",
    "growth_exponents",
]
EXPECTED_CHECKS = set(CHECK_ORDER)


def test_random_pair_is_rank_one_with_bounded_lambda():
    for i in range(20):
        rng = np.random.default_rng([99, i])
        n = int(rng.integers(2, 8))
        pair = random_rank_one_pair(rng, n)
        w = np.linalg.eigvalsh(pair.A.mat)
        big = w[np.abs(w) > 1e-9]
        assert big.size == 1
        assert 0.1 <= abs(big[0]) <= 3.0
        assert np.allclose(pair.B.mat, pair.B.mat.conj().T)


def test_run_case_names_and_passes():
    records = run_case(0, 3, max_n=7)
    assert {r.check for r in records} == EXPECTED_CHECKS
    assert all(r.passed for r in records)
    assert all(r.seed == (0, 3) for r in records)


def test_run_case_deterministic():
    r1 = run_case(7, 11, max_n=6)
    r2 = run_case(7, 11, max_n=6)
    assert [(r.check, r.metric) for r in r1] == [(r.check, r.metric) for r in r2]


def test_run_verification_counts_and_summary():
    report = run_verification(cases=5, max_n=5, seed=123)
    assert report.cases == 5
    assert len(report.records) == 5 * len(EXPECTED_CHECKS)
    assert report.failures == 0
    doc = report.to_doc()
    assert doc["summary"]["cases"] == 5
    assert doc["summary"]["records"] == len(report.records)
    assert doc["summary"]["failures"] == 0
    assert "ensemble" in doc
    assert "elapsed" not in dumps_doc(doc)


def test_report_bytes_reproducible():
    d1 = dumps_doc(run_verification(cases=8, max_n=6, seed=7).to_doc())
    d2 = dumps_doc(run_verification(cases=8, max_n=6, seed=7).to_doc())
    assert d1 == d2


def test_report_depends_on_seed():
    d1 = dumps_doc(run_verification(cases=3, max_n=5, seed=1).to_doc())
    d2 = dumps_doc(run_verification(cases=3, max_n=5, seed=2).to_doc())
    assert d1 != d2


def test_run_verification_validates_flags():
    with pytest.raises(ValueError):
        run_verification(cases=0, max_n=5, seed=0)
    with pytest.raises(ValueError):
        run_verification(cases=1, max_n=1, seed=0)
    with pytest.raises(ValueError):
        run_verification(cases=1, max_n=13, seed=0)


def test_run_case_names_a_max_n_below_two():
    # checked before any draw: numpy's integers(2, max_n + 1) would say only "low >= high"
    for max_n in (1, 0, -3):
        with pytest.raises(ValueError, match=f"^max_n must be >= 2, got {max_n}$"):
            run_case(0, 0, max_n)


def test_run_case_records_checks_in_order():
    assert [r.check for r in run_case(0, 3, max_n=7)] == CHECK_ORDER


def _fields(records):
    """Every field of every record, with the metric's bits."""
    return [(r.seed, r.n, r.check, r.passed, None if r.metric is None else r.metric.hex())
            for r in records]


def _target(seed, index, max_n):
    """The pair that case (seed, index) draws."""
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(2, max_n + 1))
    verify.random_grid(rng)
    return random_rank_one_pair(rng, n)


def _block_keeps_each_case(seed, cases, max_n, target):
    """Assert that one block of cases gives every case, the target among cases of its size,
    the records it gives alone; return the target's check names."""
    assert cases <= verify._BLOCK
    report = run_verification(cases, max_n, seed)
    alone = {index: run_case(seed, index, max_n) for index in range(cases)}
    assert _fields(report.records) == _fields(r for index in range(cases) for r in alone[index])
    assert [records[0].n for records in alone.values()].count(alone[target][0].n) > 1
    return [r.check for r in alone[target]]


@pytest.mark.parametrize("max_n", [7, 12])
@pytest.mark.parametrize("seed", range(4))
def test_a_block_gives_the_bits_of_single_cases(seed, max_n):
    # a block stacks each step of its cases of one size, and every Gram matrix: a record keeps
    # every field and its metric's bits
    single = [r for index in range(60) for r in run_case(seed, index, max_n)]
    assert _fields(run_verification(60, max_n, seed).records) == _fields(single)


# B = b_scale * I and A = diag(0.5, 0, ...): the largest eigenvalue of tA + B is
# b_scale + max(0, t / 2), above EXP_OVERFLOW_LIMIT = 700 from t = 2 at
# b_scale 699.5, from the Gram sums' t = 4 at 699, and only at the growth
# check's far point t = 160 at 650
@pytest.mark.parametrize("b_scale, recorded", [(650.0, 9), (699.0, 4), (699.5, 3)])
def test_case_error_is_recorded_by_the_check_that_raises_it(monkeypatch, b_scale, recorded):
    def overflowing(n):
        return TracePair(
            hermitian_from_diag([0.5] + [0.0] * (n - 1)), hermitian_from_diag([b_scale] * n)
        )

    real = verify.random_rank_one_pair
    monkeypatch.setattr(verify, "random_rank_one_pair", lambda rng, n: overflowing(n))
    for index in range(3):
        # names and the error type only: metrics and passed flags may change with the checks
        names = [r.check for r in run_case(0, index, max_n=7)]
        assert names == CHECK_ORDER[:recorded] + ["case_error(Overflow)"]

    # the pair at one index of a block, whose stacked trace batch then fails and is evaluated
    # again array by array
    marked = _target(0, 5, 3).A.mat.tobytes()

    def pair(rng, n):
        drawn = real(rng, n)
        return overflowing(n) if drawn.A.mat.tobytes() == marked else drawn

    monkeypatch.setattr(verify, "random_rank_one_pair", pair)
    names = _block_keeps_each_case(0, 20, 3, 5)
    assert names == CHECK_ORDER[:recorded] + ["case_error(Overflow)"]


# a stacked step that raises for the whole stack, as the Gram eigh on a LAPACK failure and the
# Lie steps on an overflow do, fails only the case that a call of its own fails
@pytest.mark.parametrize("step, recorded, error", [
    ("gram", 4, "ConvergenceFailure"), ("lie", 6, "Overflow")])
def test_a_stacked_step_that_fails_for_one_case_is_redone_per_case(
        monkeypatch, step, recorded, error):
    pair = _target(1, 7, 3)
    if step == "gram":
        marked = gram(trace_function(pair), default_grid()).matrix.tobytes()
        real = np.linalg.eigh

        def flaky(a, *args, **kwargs):
            if any(m.tobytes() == marked for m in np.asarray(a)):
                raise np.linalg.LinAlgError("did not converge")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", flaky)
    else:
        marked = eigh(pair.A)[0].tobytes()
        real = verify._split_steps

        def flaky(eig_x, eig_y, ps):
            if any(w.tobytes() == marked for w in eig_x[0]):
                raise Overflow("split-step product overflowed double precision")
            return real(eig_x, eig_y, ps)

        monkeypatch.setattr(verify, "_split_steps", flaky)
    names = _block_keeps_each_case(1, 20, 3, 7)
    assert names == CHECK_ORDER[:recorded] + [f"case_error({error})"]


def test_blocks_bound_every_stack(monkeypatch):
    # 300 cases of one size, n = 2: each block of _BLOCK cases makes one stacked call per step
    eighs = _count_calls(monkeypatch, "eigh")
    eigvalshs = _count_calls(monkeypatch, "eigvalsh")
    assert run_verification(300, 2, 0).failures == 0
    blocks = [min(verify._BLOCK, 300 - start) for start in range(0, 300, verify._BLOCK)]
    assert len(blocks) > 1
    # A, B and A + B of every case, then its two Gram matrices; reduce's 1 x 1 blocks aside
    assert [s for s in eighs if s[1:] == (2, 2)] == [(3 * k, 2, 2) for k in blocks]
    assert [s for s in eighs if s[1:] == (8, 8)] == [(2 * k, 8, 8) for k in blocks]
    # at most 11 + 26 + 36 + 4 + 11 + 12 = 100 points per case, in one chunk per block
    assert len(eigvalshs) == len(blocks)
    assert all(s[0] <= 100 * k for s, k in zip(eigvalshs, blocks))


# eigh fails on the real Gram matrices, after the trace-invariance record
@pytest.mark.parametrize("fails, recorded", [(lambda a: a.dtype == np.float64, 4)], ids=["gram"])
def test_a_failed_eigensolve_is_recorded_and_the_run_completes(monkeypatch, fails, recorded):
    real = np.linalg.eigh

    def flaky(a, *args, **kwargs):
        if fails(np.asarray(a)):
            raise np.linalg.LinAlgError("did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    report = run_verification(6, 7, 0)
    for index in range(6):
        names = [r.check for r in report.records if r.seed == (0, index)]
        assert names == CHECK_ORDER[:recorded] + ["case_error(ConvergenceFailure)"]


# a matrix of the A, B, A + B stack whose eigh either fails in LAPACK or returns a result that
# misses the reconstruction bound: the case records the same
@pytest.mark.parametrize("member", ["A", "B", "A+B"])
def test_a_failed_reconstruction_is_recorded_as_a_failed_eigensolve(monkeypatch, member):
    rng = np.random.default_rng([0, 1])
    n = int(rng.integers(2, 8))
    verify.random_grid(rng)
    pair = random_rank_one_pair(rng, n)
    target = {"A": pair.A.mat, "B": pair.B.mat, "A+B": pair.A.mat + pair.B.mat}[member]
    real = np.linalg.eigh

    def names(failure):
        def patched(a, *args, **kwargs):
            hit = np.array([m.tobytes() == target.tobytes() for m in a]) if a.ndim == 3 else False
            if np.any(hit) and failure == "lapack":
                raise np.linalg.LinAlgError("did not converge")
            w, v = real(a, *args, **kwargs)
            return (w + hit[:, None] if np.any(hit) else w), v

        monkeypatch.setattr(np.linalg, "eigh", patched)
        return [r.check for r in run_case(0, 1, max_n=7)]

    lapack = names("lapack")
    assert lapack[-1] == "case_error(ConvergenceFailure)"
    assert names("reconstruction") == lapack


def _count_calls(monkeypatch, name):
    shapes = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def test_run_case_evaluates_every_trace_value_in_one_eigvalsh_call(monkeypatch):
    shapes = _count_calls(monkeypatch, "eigvalsh")
    for index in range(4):
        records = run_case(0, index, max_n=7)
        assert [r.check for r in records] == CHECK_ORDER
        # 11 + 26 + distinct random sums + 4 far points, 11 for (L, M), 12 for (L, diag M)
        assert len(shapes) == 1 and 11 + 26 + 4 + 11 + 12 < shapes[0][0] <= 100
        shapes.clear()


def test_run_case_points_stay_inside_the_double_range(monkeypatch):
    # run_case hands its three pairs to the batch entry, which checks the range: the far points
    # give |t| ||A||_max <= 80, the line and the Gram sums |t| <= 4 with ||L||_max <= 3, so no
    # array of the ensemble is near it
    batches = []
    real = verify._trace_batch

    def spied(pairs):
        out = real(pairs)
        batches.append((pairs, out))
        return out

    monkeypatch.setattr(verify, "_trace_batch", spied)
    for max_n in (7, 12, 64):
        for seed in range(3):
            for index in range(8):
                run_case(seed, index, max_n)
    assert len(batches) == 3 * 3 * 8
    assert all([len(arrays) for _, _, arrays in pairs] == [4, 1, 1] for pairs, _ in batches)
    for pairs, out in batches:
        for a, b, arrays in pairs:
            for ts in arrays:
                scale = float(np.abs(ts).max() * a.norm_max())
                assert scale <= 80.0 * (1.0 + 1e-12)
                assert scale + b.norm_max() < transform._MAX_SCALE
        assert not any("double-precision range" in str(r) for r in out)


def test_run_case_takes_one_max_norm_per_matrix(monkeypatch):
    # A, B, L, M and diag M: the far points, reduce and the batch's range check read their
    # max-norms, each computed once on the frozen matrix
    seen = []

    def norm(h):
        seen.append(h)
        return max_abs(h.mat)

    cached = functools.cached_property(norm)
    cached.__set_name__(HermitianMatrix, "_norm_max")
    monkeypatch.setattr(HermitianMatrix, "_norm_max", cached)
    for index in range(4):
        seen.clear()
        run_case(0, index, 7)
        assert len(seen) == len(set(map(id, seen))) == 5


def test_run_case_stacks_stay_within_one_trace_chunk(monkeypatch):
    # the batch entry bounds every eigvalsh stack by _CHUNK_BYTES: at n = MAX_N a case's
    # stack of at most 100 matrices fits in one, so that it takes one eigvalsh call
    sizes = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(np.asarray(a).nbytes)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    index = 0
    while run_case(0, index, max_n=verify.MAX_N)[0].n != verify.MAX_N:
        index += 1
    assert sizes and max(sizes) <= transform._CHUNK_BYTES


@pytest.mark.parametrize("max_n", [7, 12])
@pytest.mark.parametrize("seed", range(4))
def test_ensemble_records_no_failure(max_n, seed):
    # a guard on every verdict and on the batch entry: a changed rule or an ensemble point
    # turned into a recorded error fails it
    assert run_verification(200, max_n, seed).failures == 0


def test_run_case_eigendecomposes_each_distinct_matrix_once(monkeypatch):
    real = np.linalg.eigh
    mats = []

    def recorded(a, *args, **kwargs):
        mats.append(np.array(a, copy=True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    for index in range(4):
        rng = np.random.default_rng([0, index])
        n = int(rng.integers(2, 8))
        verify.random_grid(rng)
        pair = random_rank_one_pair(rng, n)
        records = run_case(0, index, max_n=7)
        assert [r.check for r in records] == CHECK_ORDER
        # A, B and A + B in one call, which reduce, the Lie exponentials and the growth check
        # read; a block of B in reduce; both Gram matrices in one call; the round trip reads
        # the measure of (L, diag M) off the diagonals
        assert [np.shape(m) for m in mats] == [(3, n, n), (1, n - 1, n - 1), (2, 8, 8)]
        assert [m.tobytes() for m in mats[0]] == [
            pair.A.mat.tobytes(), pair.B.mat.tobytes(), (pair.A.mat + pair.B.mat).tobytes()]
        # no scaled A or B: e^{A/p} and e^{B/p} come from eigh(A) and eigh(B)
        scaled = {(h / p).tobytes() for h in (pair.A.mat, pair.B.mat) for p in (64, 128)}
        square = {m.tobytes() for stack in mats if stack.shape[-2:] == (n, n)
                  for m in stack.reshape(-1, n, n)}
        assert not scaled & square
        mats.clear()


def test_run_case_measure_is_commuting_measure_bit_for_bit(monkeypatch):
    # the atoms (L_jj, e^{M_jj}) that run_case reads off the diagonals are those that
    # commuting_measure finds by its eigensolves: from_atoms sorts them, so their order
    # and the phases of the eigenvectors do not matter
    built = []

    def recorded(pairs):
        built.append(AtomicMeasure.from_atoms(pairs))
        return built[-1]

    monkeypatch.setattr(verify, "AtomicMeasure", SimpleNamespace(from_atoms=recorded))
    sizes = set()
    for index in range(60):
        rng = np.random.default_rng([0, index])
        n = int(rng.integers(2, 13))
        verify.random_grid(rng)
        pair = random_rank_one_pair(rng, n)
        assert [r.check for r in run_case(0, index, max_n=12)] == CHECK_ORDER
        red = reduce(pair.A, pair.B)
        cpair = TracePair(red.L, hermitian_from_diag(np.diag(red.M.mat).real))
        expected = commuting_measure(cpair)
        measure = built.pop()
        assert not built
        assert measure.locations.tobytes() == expected.locations.tobytes()
        assert measure.weights.tobytes() == expected.weights.tobytes()
        sizes.add(n)
    assert sizes == set(range(2, 13))


def _public_metrics(seed, index, max_n):
    """The metric of every check of a case, from the public one-item functions."""
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(2, max_n + 1))
    grid = verify.random_grid(rng)
    pair = random_rank_one_pair(rng, n)
    line = np.linspace(-2.0, 2.0, 11)
    red = reduce(pair.A, pair.B)
    ra, rb = reduction_residuals(pair.A, pair.B, red)
    m = red.M.mat
    min_off = float(m.real[~np.eye(n, dtype=bool)].min())
    fa, fl = trace_values(pair, line), trace_values(TracePair(red.L, red.M), line)
    worst = float(np.max(np.abs(fa - fl) / np.maximum(1.0, fa)))
    ec = [psd_check(gram(trace_function(pair), g)).min_eigenvalue for g in (default_grid(), grid)]
    e1, e2 = (lie_product_approx(pair.A, pair.B, p, with_reference=True).reference_error
              for p in (64, 128))
    ratio = 0.0 if e1 < LIE_ERROR_FLOOR else e2 / e1
    cpair = TracePair(red.L, hermitian_from_diag(np.diag(m).real))
    measure = commuting_measure(cpair)
    ft = trace_values(cpair, line)
    worst_rt = float(np.max(np.abs(ft - laplace_values(measure, line)) / np.maximum(1.0, ft)))
    ref_mass = float(trace_values(cpair, [0.0])[0])
    mass_err = abs(measure.total_mass - ref_mass) / max(1.0, ref_mass)
    est = growth_exponents(pair)
    worst_g = max(abs(est.lambda_min_est - est.lambda_min_true),
                  abs(est.lambda_max_est - est.lambda_max_true))
    return [ra, rb, min_off, worst, *ec, ratio, worst_rt, mass_err, worst_g]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_case_metrics_equal_the_public_functions_bit_for_bit(seed):
    # the bytes of a verify report do not depend on how run_case shares work between checks
    for index in range(40):
        records = run_case(seed, index, max_n=12)
        assert [r.check for r in records] == CHECK_ORDER
        assert [r.metric.hex() for r in records] == [
            float(x).hex() for x in _public_metrics(seed, index, 12)]


def test_a_failed_random_gram_group_follows_the_uniform_record(monkeypatch):
    # the random grid's sum 2 * 1.3 is no point of the other groups: eigvalsh fails on it
    real = np.linalg.eigvalsh
    marked = []

    def flaky(h):
        if any(np.array_equal(m, 2.6 * marked[0].A.mat + marked[0].B.mat) for m in h):
            raise np.linalg.LinAlgError("did not converge")
        return real(h)

    def pair(rng, n):
        marked.append(random_rank_one_pair(rng, n))
        return marked[-1]

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
    monkeypatch.setattr(verify, "random_rank_one_pair", pair)
    monkeypatch.setattr(verify, "random_grid", lambda rng: TGrid(np.array([-1.9, 0.1, 1.3])))
    names = [r.check for r in run_case(0, 0, max_n=7)]
    assert names == CHECK_ORDER[:5] + ["case_error(ConvergenceFailure)"]
