"""Seeded random-ensemble verification of the whole pipeline.

Each case draws a rank-one Hermitian A and a dense Hermitian B from a fixed
documented law, runs the reduction, trace-invariance, Gram, Lie-ratio,
commuting round-trip, and growth-exponent checks, and emits one record per
check.  Case seeds derive from (master seed, case index), so reports are
deterministic and order-independent.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .convexity import TGrid, _distinct_sums, _stacked_psd, default_grid
from .errors import ExpConvexError
from .hermitian import (
    _exp_of, _freeze, _raised, _split_steps, _stacked_eigh, max_abs, validate_hermitian,
)
from .reduction import _reduce, reduction_residuals
from .tolerances import (
    GRID_MIN_GAP, GROWTH_TOL, LIE_ERROR_FLOOR, LIE_RATIO_LIMIT, OFFDIAG_TOL, RESIDUAL_TOL,
    ROUNDTRIP_TOL, TRACE_INV_TOL,
)
from .transform import (
    AtomicMeasure, TracePair, _far_points, _stacked_trace_values, _support_estimate,
    laplace_values,
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
        pts = np.sort(rng.uniform(-2.0, 2.0, size=8))
        if (np.diff(pts) > GRID_MIN_GAP).all():
            return TGrid(pts)


def run_case(master_seed: int, index: int, max_n: int) -> list[CaseRecord]:
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
        # every eigendecomposition of A, B and A + B the case needs, in one call; A + B needs
        # no validate_hermitian, as a sum of two exactly Hermitian matrices
        a, b = pair.A.mat, pair.B.mat
        eigs = _stacked_eigh([a, b, a + b])
        eig_a = _raised(eigs[0])
        red = _reduce(pair.A, pair.B, eig_a)
        ra, rb = reduction_residuals(pair.A, pair.B, red)
        records.append(record("reduce_wavw_l", ra <= RESIDUAL_TOL, ra))
        records.append(record("reduce_wbw_m", rb <= RESIDUAL_TOL, rb))

        l, m = red.L.mat, red.M.mat
        min_off = float(m.real[~np.eye(n, dtype=bool)].min())
        records.append(record("reduce_offdiag_min", min_off >= -OFFDIAG_TOL, min_off))

        # every trace value of the case from one stacked eigvalsh call, with one range check
        # each for (A, B), (L, M) and (L, diag M); each check raises its group's error
        # (n <= MAX_N < CONTOUR_MIN_N: trace_values is dense here too)
        sums_rand, inverse_rand = _distinct_sums(grid_rand.points)
        far = _far_points(pair)
        fa, f_uniform, f_rand, f_far, fl, f_round = _stacked_trace_values([
            (a, b, _LINE), (a, b, _uniform_sums()[0]), (a, b, sums_rand), (a, b, far),
            (l, m, _LINE), (l, np.diag(np.diag(m).real).astype(complex), _LINE_AND_ZERO),
        ])
        fa, fl = _raised(fa), _raised(fl)
        worst = float(np.max(np.abs(fa - fl) / np.maximum(1.0, fa)))
        records.append(record("trace_invariance", worst <= TRACE_INV_TOL, worst))

        # gram() without its finiteness check (a value is at most n e^700, finite), and the
        # Gram matrices up to the first failed group in one eigh call: its error follows
        # the records of the checks before it
        grams = []
        for inverse, vals in ((_uniform_sums()[1], f_uniform), (inverse_rand, f_rand)):
            if isinstance(vals, ExpConvexError):
                break
            grams.append(vals[inverse])
        for check, rep in zip(("ec_gram_uniform", "ec_gram_random"), _stacked_psd(grams)):
            records.append(record(check, rep.passed, rep.min_eigenvalue))
        _raised(f_uniform)
        _raised(f_rand)

        # lie_product_approx's reference errors at p = 64 and 128, which share their squarings;
        # as there, an error of A + B follows the split steps
        values = _split_steps(eig_a, _raised(eigs[1]), (64, 128))
        ref = _exp_of(_raised(eigs[2]))
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
    for index in range(cases):
        records.extend(run_case(seed, index, max_n))
    elapsed = time.perf_counter() - started
    return VerificationReport(
        cases=cases,
        max_n=max_n,
        master_seed=seed,
        records=tuple(records),
        elapsed=elapsed,
    )
