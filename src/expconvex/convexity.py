"""Gram-matrix positive-semidefiniteness machinery for exponential convexity.

A function f on the reals is exponentially convex when every kernel matrix
[f(t_r + t_s)] over a finite grid is positive semidefinite.  This module
builds those Gram matrices, tests them with an eigenvalue-based PSD check
that returns a witness vector on failure, checks the zero-or-positive
dichotomy, and provides the closure combinators (nonnegative scaling, sum,
product).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DichotomyViolated,
    EvaluationFailure,
    HypothesisViolated,
    NegativeScale,
)
from .hermitian import (
    _HALF_MAX,
    HermitianMatrix,
    _check_offdiag_nonneg,
    _exp_of,
    _freeze,
    _lapack,
    _raised,
    _stacked_eigh,
    max_abs,
)
from .tolerances import DEFAULT_PSD_TOL, IMAG_TOL, OFFDIAG_TOL, ZERO_FUNCTION_TOL


@dataclass(frozen=True)
class ScalarFunction:
    """A labelled real function of a real variable, evaluated on arrays of points.

    fn maps a 1-d float array of points to the array of values at those
    points, of the same shape.  Evaluation must be deterministic and
    pointwise: a value may not depend on the other points in the batch.
    Calling the function on a single t is a convenience for fn([t])[0].
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str

    def __call__(self, t: float) -> float:
        return float(self.fn(np.array([t], dtype=float))[0])


@dataclass(frozen=True)
class TGrid:
    """A strictly increasing finite grid of real evaluation points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError(f"grid must be a nonempty 1-d sequence, got shape {pts.shape}")
        _check_points(pts)
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def n(self) -> int:
        return self.points.size

    @staticmethod
    def equispaced(lo: float, hi: float, n: int) -> "TGrid":
        # the ends first: past them linspace's step hi - lo overflows
        _check_points(np.array([lo, hi], dtype=float))
        return TGrid(np.linspace(lo, hi, n))


def _check_points(pts: np.ndarray) -> None:
    if not np.all(np.isfinite(pts)):
        raise ValueError("grid contains non-finite points")
    # within +-_HALF_MAX every sum t_r + t_s of grid points is finite
    if not np.all(np.abs(pts) <= _HALF_MAX):
        raise ValueError(
            f"grid points must lie within +-{_HALF_MAX:.17g}, "
            "so that the sums t_r + t_s are finite"
        )


def default_grid() -> TGrid:
    """Eight equispaced points on [-2, 2]."""
    return TGrid.equispaced(-2.0, 2.0, 8)


@dataclass(frozen=True)
class GramMatrix:
    """The symmetric kernel matrix G[r, s] = f(t_r + t_s) over a grid."""

    matrix: np.ndarray


@dataclass(frozen=True)
class ECReport:
    """PSD verdict for a Gram matrix.

    On failure the witness is the coefficient vector attaining the minimal
    quadratic form, a genuine violation certificate: xi* G xi equals
    min_eigenvalue below -tolerance.  tolerance is the absolute threshold
    actually used.
    """

    passed: bool
    min_eigenvalue: float
    witness: np.ndarray
    tolerance: float


@dataclass(frozen=True)
class DichotomyReport:
    all_zero: bool
    all_positive: bool


def _evaluate(f: ScalarFunction, ts: np.ndarray) -> np.ndarray:
    """f at every point of ts in one call; a non-finite value raises EvaluationFailure."""
    vals = np.asarray(f.fn(ts), dtype=float)
    if vals.shape != ts.shape:
        raise EvaluationFailure(
            f"{f.label} returned shape {vals.shape} for points of shape {ts.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        raise EvaluationFailure(f"{f.label} returned {vals[i]} at t = {float(ts[i])}")
    return vals


def _distinct_sums(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct exact sums t_r + t_s and the index of each (r, s) among them.

    Sums are compared as computed, never rounded: two sums that are equal
    in exact arithmetic but differ in the last bit stay distinct, so every
    entry is f at exactly pts[r] + pts[s].
    """
    ts, inverse = np.unique((pts[:, None] + pts[None, :]).ravel(), return_inverse=True)
    return ts, inverse.reshape(pts.size, pts.size)


def gram(f: ScalarFunction, grid: TGrid) -> GramMatrix:
    """Evaluate G[r, s] = f(t_r + t_s) with one call of f on the distinct sums."""
    ts, inverse = _distinct_sums(grid.points)
    g = _evaluate(f, ts)[inverse]
    return GramMatrix(matrix=_freeze(g))


def psd_check(g: GramMatrix, tol: float = DEFAULT_PSD_TOL) -> ECReport:
    """Eigenvalue-based PSD test with witness.

    Passes iff the minimal eigenvalue is >= -tol * max(1, ||G||_max); the
    witness is the corresponding unit eigenvector.  Full eigendecomposition
    rather than Cholesky so a failure always carries its certificate.
    """
    return _stacked_psd([g.matrix], tol)[0]


def _stacked_psd(gs, tol: float = DEFAULT_PSD_TOL) -> list:
    """psd_check of every symmetric array of gs, all of one size, by one stacked eigh call, bit
    for bit."""
    if not gs:
        return []
    mats = np.array(gs)
    w, v = _lapack(np.linalg.eigh, mats)
    # max(1, ||G||_max) as Python's max takes it (a NaN entry gives 1), times tol in Python
    # floats, which overflow to inf without a warning
    scales = np.fmax(np.abs(mats).max(axis=(-2, -1), initial=0.0), 1.0).tolist()
    abs_tols = [tol * scale for scale in scales]
    return [
        ECReport(
            passed=min_eig >= -abs_tol,
            min_eigenvalue=min_eig,
            witness=_freeze(vk[:, 0].copy()),
            tolerance=abs_tol,
        )
        for min_eig, vk, abs_tol in zip(w[:, 0].tolist(), v, abs_tols)
    ]


def check_exponential_convexity(
    f: ScalarFunction, grid: TGrid, tol: float = DEFAULT_PSD_TOL
) -> ECReport:
    """Gram construction followed by the PSD check."""
    return psd_check(gram(f, grid), tol)


def dichotomy_check(f: ScalarFunction, grid: TGrid) -> DichotomyReport:
    """On the grid, f must be identically ~0 or everywhere positive.

    Anything else raises DichotomyViolated: for an exponentially convex
    function the alternative is exact, so a mixed sample signals either
    numerical failure or a non-EC input.
    """
    vals = _evaluate(f, grid.points)
    all_zero = bool(np.all(np.abs(vals) <= ZERO_FUNCTION_TOL))
    all_positive = bool(np.all(vals > 0.0))
    if not (all_zero or all_positive):
        raise DichotomyViolated(
            f"{f.label} is neither identically zero nor everywhere positive on the grid "
            f"(min {vals.min():.6g}, max {vals.max():.6g})"
        )
    return DichotomyReport(all_zero=all_zero, all_positive=all_positive)


def ec_scale(f: ScalarFunction, c: float) -> ScalarFunction:
    """c * f for a finite c >= 0; preserves exponential convexity."""
    if not 0.0 <= c < np.inf:
        raise NegativeScale(f"scale constant must be a finite number >= 0, got {c}")
    return ScalarFunction(fn=lambda ts: c * f.fn(ts), label=f"scale({c:g},{f.label})")


def ec_sum(f1: ScalarFunction, f2: ScalarFunction) -> ScalarFunction:
    """Pointwise sum; preserves exponential convexity."""
    return ScalarFunction(
        fn=lambda ts: f1.fn(ts) + f2.fn(ts), label=f"sum({f1.label},{f2.label})"
    )


def ec_product(f1: ScalarFunction, f2: ScalarFunction) -> ScalarFunction:
    """Pointwise product; preserves exponential convexity."""
    return ScalarFunction(
        fn=lambda ts: f1.fn(ts) * f2.fn(ts), label=f"product({f1.label},{f2.label})"
    )


@dataclass(frozen=True)
class EntrywiseECResult:
    """Per-entry PSD reports for the matrix function t -> e^{Lt + M}.

    reports[j][k] checks Re(e^{Lt+M})_{jk}; max_imag is the largest
    imaginary part of the exponentials whose real parts were checked, one
    per distinct grid sum t_r + t_s, and must stay below the tolerance for
    the real-part extraction to be sound.
    """

    reports: tuple
    max_imag: float
    imag_tol: float

    @property
    def all_passed(self) -> bool:
        return self.max_imag <= self.imag_tol and all(
            r.passed for row in self.reports for r in row
        )


def entrywise_ec_check(
    l: HermitianMatrix,
    m: HermitianMatrix,
    grid: TGrid,
    tol: float = DEFAULT_PSD_TOL,
    imag_tol: float = IMAG_TOL,
) -> EntrywiseECResult:
    """PSD-check every entry of t -> e^{Lt + M} as a function of t.

    Requires l diagonal and m with nonnegative real off-diagonal entries;
    under that hypothesis every entry is exponentially convex.  The matrix
    exponential is evaluated once per distinct exact grid sum, all of them
    from one stacked eigendecomposition, and shared across entries.
    """
    if l.n != m.n:
        raise HypothesisViolated(f"operands are {l.n}x{l.n} and {m.n}x{m.n}")
    if max_abs(l.mat[~np.eye(l.n, dtype=bool)]) > OFFDIAG_TOL:
        raise HypothesisViolated("first matrix must be diagonal")
    _check_offdiag_nonneg(m, " of the second matrix")
    n = l.n
    ts, inverse = _distinct_sums(grid.points)
    # t*L + M is exactly Hermitian for real t, as L and M are stored symmetrized
    eigs = _stacked_eigh([t * l.mat + m.mat for t in ts])
    # in the order of ts, so the first sum that fails raises, as one call per sum would
    exps = np.array([_exp_of(_raised(eig)) for eig in eigs])
    max_imag = max_abs(exps.imag)
    entries = exps.real[inverse]

    # the n^2 entry Gram matrices, row by row, in one eigh call
    flat = _stacked_psd([entries[:, :, j, k] for j in range(n) for k in range(n)], tol)
    reports = tuple(tuple(flat[j * n : (j + 1) * n]) for j in range(n))
    return EntrywiseECResult(reports=reports, max_imag=float(max_imag), imag_tol=imag_tol)
