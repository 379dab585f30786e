"""Seeded random-ensemble verification of the whole pipeline.

Each case draws a rank-one Hermitian A and a dense Hermitian B from a fixed
documented law, runs the reduction, trace-invariance, Gram, Lie-ratio,
commuting round-trip, and growth-exponent checks, and emits one record per
check.  Case seeds derive from (master seed, case index), so reports are
deterministic and order-independent.  run_verification runs its cases in blocks
of consecutive indices, each stacked step of a block's cases of one size in one
call, and every case keeps the records it gives alone.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .convexity import TGrid, _distinct_sums, _stacked_psd, default_grid
from .errors import ExpConvexError
from .hermitian import (
    _exp_of, _freeze, _raised, _split_steps, _stack, _stacked_eigh, hermitian_from_diag,
    max_abs, validate_hermitian,
)
from .reduction import _reduce, reduction_residuals
from .tolerances import (
    GRID_MIN_GAP, GROWTH_TOL, LIE_ERROR_FLOOR, LIE_RATIO_LIMIT, OFFDIAG_TOL, RESIDUAL_TOL,
    ROUNDTRIP_TOL, TRACE_INV_TOL,
)
from .transform import (
    AtomicMeasure, TracePair, _far_points, _support_estimate, _trace_batch, laplace_values,
    trace_f,  # noqa: F401  bench/test_bench.py refers to verify.trace_f
)

ENSEMBLE_LAW = (
    "A = lambda v v* with lambda uniform on [-3, 3] resampled until |lambda| >= 0.1 "
    "and v a normalized complex Gaussian vector; B = (G + G*)/2 with G an n x n "
    "standard complex Gaussian; n uniform on {2, ..., max_n}; "
    "case rng = default_rng([seed, case_index])"
)

# Largest case dimension accepted by run_verification and the verify command.
MAX_N = 12

# run_verification's cases per _run_block, which bounds the stacks a block holds
_BLOCK = 64

# the points of random_grid, as of default_grid: every Gram matrix of a case is 8 x 8
_GRID_N = 8

# the points of the trace-invariance and round-trip checks; t = 0 gives the reference mass
_LINE = _freeze(np.linspace(-2.0, 2.0, 11))
_LINE_AND_ZERO = _freeze(np.append(_LINE, 0.0))
# the default grid's 26 distinct sums and (r, s) indices, lazily: a first np.unique costs 0.5 MB
_uniform_sums = functools.cache(lambda: _distinct_sums(default_grid().points))


@dataclass(frozen=True)
class CaseRecord:
    """Outcome of one named check on one case."""

    seed: tuple[int, int]
    n: int
    check: str
    passed: bool
    metric: float | None


@dataclass(frozen=True)
class VerificationReport:
    cases: int
    max_n: int
    master_seed: int
    records: tuple
    elapsed: float

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    def to_doc(self) -> dict:
        # elapsed is intentionally left out: report bytes must be identical
        # across reruns with the same flags and seed.
        return {
            "ensemble": ENSEMBLE_LAW,
            "flags": {
                "cases": self.cases,
                "max_n": self.max_n,
                "seed": self.master_seed,
            },
            # the fields in declaration order, as the report has always listed them
            "records": [dict(vars(r), seed=list(r.seed)) for r in self.records],
            "summary": {
                "cases": self.cases,
                "records": len(self.records),
                "failures": self.failures,
            },
        }


def random_rank_one_pair(rng: np.random.Generator, n: int) -> TracePair:
    """Draw (A, B) from the documented ensemble law."""
    lam = float(rng.uniform(-3.0, 3.0))
    while abs(lam) < 0.1:
        lam = float(rng.uniform(-3.0, 3.0))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    a = lam * np.outer(v, v.conj())
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = (g + g.conj().T) / 2.0
    return TracePair(validate_hermitian(a), validate_hermitian(b))


def random_grid(rng: np.random.Generator) -> TGrid:
    """Strictly increasing random grid of 8 points on [-2, 2]."""
    while True:
        pts = np.sort(rng.uniform(-2.0, 2.0, size=_GRID_N))
        if (np.diff(pts) > GRID_MIN_GAP).all():
            return TGrid(pts)


def run_case(master_seed: int, index: int, max_n: int) -> list[CaseRecord]:
    """The records of case `index`: _run_block with that one case."""
    return _run_block(master_seed, [index], max_n)[0]


def _run_block(master_seed: int, indices, max_n: int) -> list[list[CaseRecord]]:
    """The records of every case of indices, each list the one run_case gives for it alone.

    The cases run side by side, each as a _case generator. Every round each unfinished case
    waits on the same step, and the steps of one (function, size) go to one _stacked_call.
    """
    out = [[] for _ in indices]
    # per case: its place in out, its generator, and what it is sent next, a result or an error
    live = [(k, _case(master_seed, index, max_n), None) for k, index in enumerate(indices)]
    while live:
        groups = {}
        for k, case, sent in live:
            try:
                fn, size, items = (case.throw(sent) if isinstance(sent, ExpConvexError)
                                   else case.send(sent))
            except StopIteration as stop:
                out[k] = stop.value
            else:
                groups.setdefault((fn, size), []).append((k, case, items))
        live = []
        for (fn, _), steps in groups.items():
            results = _stacked_call(fn, [items for _, _, items in steps])
            live += [(k, case, result) for (k, case, _), result in zip(steps, results)]
    return out


def _stacked_call(fn, requests: list) -> list:
    """fn's results for each list of requests, from one call of fn on their concatenation: fn
    maps a list of items to a list of their results. If that call raises, fn of each list
    alone, whose error is then that list's result."""
    try:
        results = fn([item for items in requests for item in items])
    except ExpConvexError as exc:
        if len(requests) == 1:
            return [exc]
        return [_stacked_call(fn, [items])[0] for items in requests]
    ends = accumulate(map(len, requests))
    return [results[end - len(items):end] for items, end in zip(requests, ends)]


def _trace_by_pair(pairs) -> list:
    """_trace_batch(pairs), as one list of per-array results for each pair."""
    results = iter(_trace_batch(pairs))
    return [[next(results) for _ in group] for _, _, group in pairs]


def _lie_steps(eig_pairs) -> list:
    """The split steps at p = 64 and 128 of every (eigh(x), eigh(y)) of eig_pairs, of one size,
    by one _split_steps broadcast: per pair, its (2, n, n) stack."""
    eig_x, eig_y = zip(*eig_pairs)
    return list(_split_steps(_stack(eig_x), _stack(eig_y), (64, 128)).swapaxes(0, 1))


def _exps(eigs) -> list:
    """e^H of every eigendecomposition of eigs, of one size, by one _exp_of broadcast."""
    return list(_exp_of(_stack(eigs)))


def _case(master_seed: int, index: int, max_n: int):
    """The checks of one case, as a generator. It yields each stacked step as (fn, size, items),
    is sent fn's list of results for its items (or thrown the error fn raised for them alone),
    and returns the case's records."""
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    rng = np.random.default_rng([master_seed, index])
    n = int(rng.integers(2, max_n + 1))
    seed = (master_seed, index)
    grid_rand = random_grid(rng)
    pair = random_rank_one_pair(rng, n)

    def record(check: str, passed: bool, metric: float | None) -> CaseRecord:
        return CaseRecord(
            seed=seed,
            n=n,
            check=check,
            passed=bool(passed),
            metric=None if metric is None else float(metric),
        )

    records: list[CaseRecord] = []
    try:
        # every eigendecomposition of A, B and A + B the case needs, in one stack; A + B needs
        # no validate_hermitian, as a sum of two exactly Hermitian matrices
        eigs = yield _stacked_eigh, n, [pair.A.mat, pair.B.mat, pair.A.mat + pair.B.mat]
        eig_a = _raised(eigs[0])
        red = _reduce(pair.A, pair.B, eig_a)
        ra, rb = reduction_residuals(pair.A, pair.B, red)
        records.append(record("reduce_wavw_l", ra <= RESIDUAL_TOL, ra))
        records.append(record("reduce_wbw_m", rb <= RESIDUAL_TOL, rb))

        l, m = red.L.mat, red.M.mat
        min_off = float(m.real[~np.eye(n, dtype=bool)].min())
        records.append(record("reduce_offdiag_min", min_off >= -OFFDIAG_TOL, min_off))

        # every trace value of the case from one batch, each array with its own error
        sums_rand, inverse_rand = _distinct_sums(grid_rand.points)
        far = _far_points(pair)
        (fa, f_uniform, f_rand, f_far), (fl,), (f_round,) = yield _trace_by_pair, n, [
            (pair.A, pair.B, [_LINE, _uniform_sums()[0], sums_rand, far]), (red.L, red.M, [_LINE]),
            (red.L, hermitian_from_diag(np.diag(m).real), [_LINE_AND_ZERO])]
        fa, fl = _raised(fa), _raised(fl)
        worst = float(np.max(np.abs(fa - fl) / np.maximum(1.0, fa)))
        records.append(record("trace_invariance", worst <= TRACE_INV_TOL, worst))

        # gram() without its finiteness check (a value is at most n e^700, finite), and the
        # Gram matrices up to the first failed group in one eigh stack, of every n: its error
        # follows the records of the checks before it
        grams = []
        for inverse, vals in ((_uniform_sums()[1], f_uniform), (inverse_rand, f_rand)):
            if isinstance(vals, ExpConvexError):
                break
            grams.append(vals[inverse])
        reports = yield _stacked_psd, _GRID_N, grams
        for check, rep in zip(("ec_gram_uniform", "ec_gram_random"), reports):
            records.append(record(check, rep.passed, rep.min_eigenvalue))
        _raised(f_uniform)
        _raised(f_rand)

        # lie_product_approx's reference errors at p = 64 and 128, which share their squarings;
        # as there, an error of A + B follows the split steps
        (values,) = yield _lie_steps, n, [(eig_a, _raised(eigs[1]))]
        (ref,) = yield _exps, n, [_raised(eigs[2])]
        e1, e2 = (max_abs(value - ref) for value in values)
        ratio = 0.0 if e1 < LIE_ERROR_FLOOR else e2 / e1
        records.append(record("lie_ratio", ratio <= LIE_RATIO_LIMIT, ratio))

        # Round trip on the commuting pair (L, diag M) produced by this case: its measure has
        # the atoms (L_jj, e^{M_jj}), in range as the trace-invariance values were
        vals = _raised(f_round)
        measure = AtomicMeasure.from_atoms(zip(np.diag(l).real, np.exp(np.diag(m).real)))
        ft, ref_mass = vals[:-1], float(vals[-1])
        lt = laplace_values(measure, _LINE)
        worst_rt = float(np.max(np.abs(ft - lt) / np.maximum(1.0, ft)))
        records.append(record("roundtrip_transform", worst_rt <= ROUNDTRIP_TOL, worst_rt))

        mass = measure.total_mass
        mass_err = abs(mass - ref_mass) / max(1.0, ref_mass)
        records.append(record("roundtrip_mass", mass_err <= ROUNDTRIP_TOL, mass_err))

        est = _support_estimate(far, _raised(f_far), eig_a[0])
        worst_g = max(
            abs(est.lambda_min_est - est.lambda_min_true),
            abs(est.lambda_max_est - est.lambda_max_true),
        )
        records.append(record("growth_exponents", worst_g <= GROWTH_TOL, worst_g))
    except ExpConvexError as exc:
        records.append(record(f"case_error({type(exc).__name__})", False, None))
    return records


def run_verification(cases: int, max_n: int, seed: int) -> VerificationReport:
    """Run the full battery over `cases` seeded instances."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    if not 2 <= max_n <= MAX_N:
        raise ValueError(f"max_n must be in [2, {MAX_N}], got {max_n}")
    started = time.perf_counter()
    records: list[CaseRecord] = []
    for start in range(0, cases, _BLOCK):
        for case_records in _run_block(seed, range(start, min(cases, start + _BLOCK)), max_n):
            records.extend(case_records)
    elapsed = time.perf_counter() - started
    return VerificationReport(
        cases=cases,
        max_n=max_n,
        master_seed=seed,
        records=tuple(records),
        elapsed=elapsed,
    )
