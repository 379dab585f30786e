"""Trace functions, bilateral Laplace transforms, and measure recovery.

The central object is the trace function t -> tr e^{tA + B} of a Hermitian
pair.  For commuting pairs it is the exact Laplace transform of an atomic
measure supported on the spectrum of A; in general a nonnegative atomic
measure is fitted on a discretized support by nonnegative least squares.
Growth exponents of the trace function estimate the support endpoints.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .convexity import ScalarFunction, TGrid
from .errors import (
    DimensionMismatch,
    ExpConvexError,
    IllConditioned,
    NotCommuting,
    Overflow,
)
from .hermitian import (
    HermitianMatrix,
    _check_lie_operands,
    _eigenvalue_text,
    _freeze,
    _lapack,
    _raised,
    eigh,
    lie_product_approx,
    max_abs,
)
from .tolerances import (
    ATOM_MERGE_TOL, COMM_TOL, CONTOUR_MIN_N, CONTOUR_NODES, EXP_OVERFLOW_LIMIT, RANK_TOL_FACTOR,
    RIDGE_REG,
)


@dataclass(frozen=True)
class TracePair:
    """A Hermitian pair (A, B) of equal dimension."""

    A: HermitianMatrix
    B: HermitianMatrix

    def __post_init__(self):
        if self.A.n != self.B.n:
            raise DimensionMismatch(
                f"A is {self.A.n}x{self.A.n}, B is {self.B.n}x{self.B.n}"
            )

    @property
    def n(self) -> int:
        return self.A.n


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite nonnegative atomic measure with strictly increasing locations."""

    locations: np.ndarray
    weights: np.ndarray

    @property
    def atoms(self) -> tuple:
        return tuple(zip(self.locations.tolist(), self.weights.tolist()))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @staticmethod
    def from_atoms(pairs) -> "AtomicMeasure":
        """Build a measure from (location, weight) pairs.

        Locations within ATOM_MERGE_TOL are merged by weight addition; negative
        weights are rejected.
        """
        pairs = sorted((float(l), float(w)) for l, w in pairs)
        locs: list[float] = []
        wts: list[float] = []
        for loc, w in pairs:
            if not (math.isfinite(loc) and math.isfinite(w)):
                raise ValueError(f"non-finite atom ({loc}, {w})")
            if w < 0.0:
                raise ValueError(f"negative weight {w} at location {loc}")
            if locs and loc - locs[-1] <= ATOM_MERGE_TOL:
                wts[-1] += w
            else:
                locs.append(loc)
                wts.append(w)
        return AtomicMeasure(
            locations=_freeze(np.array(locs, dtype=float)),
            weights=_freeze(np.array(wts, dtype=float)),
        )


@dataclass(frozen=True)
class SupportEstimate:
    """Log-slope estimates of the support endpoints against the spectrum of A."""

    lambda_min_est: float
    lambda_max_est: float
    lambda_min_true: float
    lambda_max_true: float


@dataclass(frozen=True)
class MeasureFit:
    """A fitted measure with its training residual and holdout error."""

    measure: AtomicMeasure
    grid_resolution: int
    training_residual: float
    holdout_error: float


# Stacked matrices per eigvalsh call: about 1 MiB of complex entries, so a
# long batch at large n holds one chunk of (k, n, n) at a time, not all k.
_CHUNK_BYTES = 2**20

# Largest |t| ||A|| + ||B|| at which a kernel evaluates t: below it t*A + B and
# t*lambda with the contour bracket (up to twice that) stay finite, with a factor
# 2 to spare for rounding.
_MAX_SCALE = sys.float_info.max / 4

# Midpoint nodes theta_k in (0, pi) of the Talbot parabola
# z(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta), with the weights
# (2/N) e^{z} z'(theta): conjugate symmetry supplies the nodes in (-pi, 0).
_THETA = (np.arange(CONTOUR_NODES // 2) + 0.5) * (2.0 * np.pi / CONTOUR_NODES)
_NODES = CONTOUR_NODES * (0.1309 - 0.1194 * _THETA**2 + 0.25j * _THETA)
_WEIGHTS = 2.0 * np.exp(_NODES) * (-2.0 * 0.1194 * _THETA + 0.25j)


def _rank_one_factor(a: HermitianMatrix) -> tuple[float, np.ndarray] | None:
    """(lambda, v) with unit v and ||A - lambda v v*||_max <= RANK_TOL_FACTOR ||A||_max, else None.

    v is the column of A with the largest norm, normalized, and lambda = tr A:
    O(n^2) work, against the O(n^3) of the eigendecomposition behind reduce.
    """
    norms = np.linalg.norm(a.mat, axis=0)
    j = int(np.argmax(norms))
    if not norms[j] > 0.0:
        return None
    v = a.mat[:, j] / norms[j]
    lam = float(np.trace(a.mat).real)
    if max_abs(a.mat - lam * np.outer(v, v.conj())) > RANK_TOL_FACTOR * a.norm_max():
        return None
    return lam, v


def _top_eigenvalue(beta: np.ndarray, p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of diag(beta) + c w w* for every c, where p = |w|^2 sums to 1.

    Bisection on h(x) = 1/c - sum_j p_j / (x - beta_j), which increases on the
    bracket (beta_max, beta_max + c] for c > 0 and (beta_{n-2}, beta_max] for
    c < 0 and has the top eigenvalue as its root there, or at an end of the
    bracket when a weight p_j is zero.  Each point stops on its own, once its
    bracket is within rounding of the spectrum's scale.
    """
    top = beta[-1]
    lo = np.where(c < 0.0, beta[-2], top)
    hi = np.where(c > 0.0, top + c, top)
    # every bracket end lies within the scale, so a wider bracket has a midpoint inside
    scale = max(abs(beta[0]), abs(top)) + np.abs(c)
    tol = np.maximum(np.finfo(float).eps * scale, np.finfo(float).tiny)
    # 1/c and p_j / (x - beta_j) may overflow to inf, which still orders x against the root
    with np.errstate(divide="ignore", over="ignore"):
        inv_c = 1.0 / c
        while True:
            act = np.flatnonzero(hi - lo > tol)
            if not act.size:
                return lo + (hi - lo) / 2.0
            mid = lo[act] + (hi[act] - lo[act]) / 2.0
            below = np.sum(p / (mid[:, None] - beta), axis=-1) > inv_c[act]
            lo[act[below]] = mid[below]
            hi[act[~below]] = mid[~below]


def _contour_values(ts: np.ndarray, b: np.ndarray, lam: float, v: np.ndarray) -> np.ndarray:
    """tr e^{t lambda v v* + B} at every t: one eigh of B, then O(n) work per node and t.

    With B = Q diag(beta) Q*, p = |Q* v|^2, c = t lambda and s the top
    eigenvalue, log f = s + log I, where I = tr e^{H - s} for H = B + c v v*
    is the Talbot midpoint sum of (1/2 pi i) int e^z tr(z + s - H)^{-1} dz and
    Sherman-Morrison gives the resolvent trace
    sum_j g_j + c sum_j p_j g_j^2 / (1 - c sum_j p_j g_j), g_j = 1/(z + s - beta_j).
    Same errors as the dense kernel, with the whole batch as one chunk.
    """
    beta, q = _lapack(np.linalg.eigh, b)
    p = np.abs(q.conj().T @ v) ** 2
    c = ts * lam
    s = _top_eigenvalue(beta, p, c)
    _raise_overflow(ts, s)
    total = np.zeros(ts.size)
    for node, weight in zip(_NODES, _WEIGHTS):
        g = 1.0 / ((s[:, None] + node) - beta)
        phi = np.sum(p * g, axis=-1)
        psi = np.sum(p * g * g, axis=-1)
        total += (weight * (np.sum(g, axis=-1) + c * psi / (1.0 - c * phi))).imag
    vals = np.exp(s + np.log(total))
    _raise_underflow(ts, vals)
    return vals


def _raise_out_of_range(ts: np.ndarray, a_norm: float, b_norm: float) -> None:
    """Overflow, naming the first t with |t| a_norm + b_norm above _MAX_SCALE, if there is one."""
    if a_norm > 0.0:
        # the bound on |t| is a Python float, which overflows to inf without a warning
        beyond = np.flatnonzero(np.abs(ts) > (_MAX_SCALE - b_norm) / a_norm)
        if beyond.size:
            t = float(ts[beyond[0]])
            raise Overflow(f"t*A + B leaves the double-precision range at t = {t}")


def _raise_overflow(ts: np.ndarray, top: np.ndarray) -> None:
    over = np.flatnonzero(top > EXP_OVERFLOW_LIMIT)
    if over.size:
        k = int(over[0])
        raise Overflow(
            f"largest eigenvalue {_eigenvalue_text(top[k], 2)} of t*A + B exceeds exp range "
            f"at t = {float(ts[k])}"
        )


def _raise_underflow(ts: np.ndarray, vals: np.ndarray) -> None:
    # tr e^H > 0 for every Hermitian H, so a value that is not has underflowed
    under = np.flatnonzero(~(vals > 0.0))
    if under.size:
        k = int(under[0])
        raise Overflow(f"trace value {float(vals[k])} underflows at t = {float(ts[k])}")


def _points(values, name: str = "ts", ndim: int = 1) -> np.ndarray:
    """values as a float array of ndim axes, the first indexing points; ValueError names a
    shape of other axes, or the first point (entry or row) with a NaN or an infinity."""
    values = np.asarray(values, dtype=float)
    if values.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d array of points, got shape {values.shape}")
    if not np.isfinite(values).all():
        k = np.flatnonzero(~np.isfinite(values).all(axis=tuple(range(1, ndim))))[0]
        raise ValueError(f"{name}[{k}] = {values[k].tolist()} is not finite")
    return values


def _stacked_trace_values(groups) -> list:
    """The dense kernel: tr e^{tA + B} for every (a, b, ts) of groups, with a and b exactly
    Hermitian arrays of one size n.

    The matrices tA + B of all groups go to one eigvalsh call per chunk of about 1 MiB, and a
    value has the bits of its point alone.  Groups that share their arrays a and b share one
    double-range check.  Per group: its values or the error trace_values raises for it, so a
    stack that fails is evaluated again group by group.
    """
    per_chunk = max(1, _CHUNK_BYTES // (16 * groups[0][0].shape[0] ** 2))
    starts = list(accumulate((ts.size for _, _, ts in groups), initial=0))
    ts_all = np.concatenate([ts for _, _, ts in groups])
    vals = np.empty(ts_all.size)
    pairs = {}
    for a, b, ts in groups:
        pairs.setdefault((id(a), id(b)), (a, b, []))[2].append(ts)
    try:
        for a, b, tss in pairs.values():
            _raise_out_of_range(np.concatenate(tss), max_abs(a), max_abs(b))
        for lo in range(0, ts_all.size, per_chunk):
            chunk, hi = ts_all[lo : lo + per_chunk], lo + per_chunk
            parts = [ts_all[max(lo, start) : min(hi, stop), None, None] * a + b
                     for (a, b, _), start, stop in zip(groups, starts, starts[1:])
                     if start < hi and lo < stop]
            # t*a + b is exactly Hermitian for real t, as a and b are
            h = parts[0] if len(parts) == 1 else np.concatenate(parts)
            w = _lapack(np.linalg.eigvalsh, h)
            _raise_overflow(chunk, w[:, -1])
            vals[lo : lo + chunk.size] = np.sum(np.exp(w), axis=-1)
            _raise_underflow(chunk, vals[lo : lo + chunk.size])
    except ExpConvexError as exc:
        return [exc] if len(groups) == 1 else [_stacked_trace_values([g])[0] for g in groups]
    return [vals[s:e] for s, e in zip(starts, starts[1:])]


def trace_values(pair: TracePair, ts) -> np.ndarray:
    """tr e^{tA + B} at every t of the 1-d array ts, in input order.

    Two kernels give the values, neither depending on the other points of ts: the
    dense one is _stacked_trace_values with this pair alone.  When n >= CONTOUR_MIN_N
    and A = lambda v v* up to RANK_TOL_FACTOR * ||A||_max, the contour kernel instead
    diagonalizes B once and sums Sherman-Morrison resolvent traces on a Talbot
    contour.  Raises ValueError naming the first non-finite t, ConvergenceFailure when the
    eigensolver fails, and Overflow, naming the first such t, when t*A + B would leave the
    double-precision range (checked before any evaluation), when a largest eigenvalue
    exceeds the exp range or when a value underflows to zero (overflow first in a chunk).
    """
    ts = _points(ts)
    n = pair.n
    if n == 0:
        return np.zeros(ts.size)
    if n >= CONTOUR_MIN_N:
        factor = _rank_one_factor(pair.A)
        if factor is not None:
            _raise_out_of_range(ts, abs(factor[0]), pair.B.norm_max())
            return _contour_values(ts, pair.B.mat, *factor)
    return _raised(_stacked_trace_values([(pair.A.mat, pair.B.mat, ts)])[0])


def trace_f(pair: TracePair, t: float) -> float:
    """tr e^{tA + B} at a single point."""
    return float(trace_values(pair, [t])[0])


def trace_function(pair: TracePair) -> ScalarFunction:
    """The trace function of a pair as a labelled scalar function."""
    return ScalarFunction(fn=lambda ts: trace_values(pair, ts), label=f"trace(n={pair.n})")


def sample_trace_f(pair: TracePair, grid: TGrid) -> list[tuple[float, float]]:
    """Evaluate the trace function on a grid, preserving order."""
    return list(zip(grid.points.tolist(), trace_values(pair, grid.points).tolist()))


def laplace_values(measure: AtomicMeasure, ts) -> np.ndarray:
    """Two-sided Laplace transform sum_j w_j e^{t lambda_j} at every t of the 1-d ts.

    Raises ValueError naming the first non-finite t, and Overflow, naming the
    first such t, when a live atom's exponent exceeds the exp range.
    """
    ts = _points(ts)
    exponents = ts[:, None] * measure.locations
    live = measure.weights > 0.0
    over = np.any(exponents[:, live] > EXP_OVERFLOW_LIMIT, axis=1)
    if np.any(over):
        raise Overflow(f"transform overflows at t = {float(ts[np.argmax(over)])}")
    return np.sum(
        measure.weights * np.exp(np.minimum(exponents, EXP_OVERFLOW_LIMIT)), axis=-1
    )


def laplace_transform(measure: AtomicMeasure, t: float) -> float:
    """Two-sided Laplace transform sum_j w_j e^{t lambda_j} at a single point."""
    return float(laplace_values(measure, [t])[0])


def lie_trace_function(l: HermitianMatrix, m: HermitianMatrix, p: int) -> ScalarFunction:
    """The split-step trace t -> tr (e^{Lt/p} e^{M/p})^p, converging to trace(L, M)."""
    _check_lie_operands(l, m, p)

    def f(t: float) -> float:
        approx = lie_product_approx(HermitianMatrix(t * l.mat), m, p)
        return float(np.trace(approx.value).real)

    return ScalarFunction(fn=lambda ts: np.array([f(t) for t in ts]), label=f"lie_trace(p={p})")


def commuting_measure(pair: TracePair) -> AtomicMeasure:
    """Exact atomic measure for a commuting pair.

    In a common eigenbasis with A-eigenvalues lambda_i and B-values mu_i the
    measure has atoms (lambda_i, e^{mu_i}), merged over coinciding
    locations.  Raises NotCommuting when ||AB - BA||_max exceeds
    COMM_TOL * max(1, ||A||_max ||B||_max).
    """
    a, b = pair.A.mat, pair.B.mat
    comm = max_abs(a @ b - b @ a)
    a_norm = pair.A.norm_max()
    scale = max(1.0, a_norm * pair.B.norm_max())
    if comm > COMM_TOL * scale:
        raise NotCommuting(
            f"||AB - BA||_max = {comm:.3e} exceeds {COMM_TOL * scale:.3e}"
        )

    w, v = eigh(pair.A)
    mus = np.real(np.einsum("ij,jk,ki->i", v.conj().T, b, v))

    # Within each eigenspace of A, the B-values are the eigenvalues of the projection of B.
    group_tol = ATOM_MERGE_TOL * max(1.0, a_norm)
    start = 0
    n = pair.n
    while start < n:
        stop = start + 1
        while stop < n and w[stop] - w[start] <= group_tol:
            stop += 1
        if stop - start > 1:
            vg = v[:, start:stop]
            sub = vg.conj().T @ b @ vg
            mus[start:stop], _ = _lapack(np.linalg.eigh, (sub + sub.conj().T) / 2.0)
        start = stop

    if np.any(mus > EXP_OVERFLOW_LIMIT):
        raise Overflow("diagonal value of B exceeds exp range")
    return AtomicMeasure.from_atoms(zip(w.tolist(), np.exp(mus).tolist()))


def growth_exponents(pair: TracePair) -> SupportEstimate:
    """Two-point log-slope estimates of the extreme eigenvalues of A.

    lambda_max_est = [log f(2 t_far) - log f(t_far)] / t_far, and
    symmetrically at -t_far for the minimum, with t_far = 40/||A||_max (1
    for A = 0), far enough that the dominant eigenvalue carries the slope.
    Raises Overflow (from trace_values), naming the t, when a far value
    overflows or underflows to zero.
    """
    far = _far_points(pair)
    return _support_estimate(far, trace_values(pair, far), eigh(pair.A)[0])


def _far_points(pair: TracePair) -> np.ndarray:
    norm = pair.A.norm_max()
    return np.array([2.0, 1.0, -1.0, -2.0]) * (40.0 / norm if norm > 0.0 else 1.0)


def _support_estimate(far: np.ndarray, f_far: np.ndarray, w: np.ndarray) -> SupportEstimate:
    """growth_exponents from the values f_far at _far_points and A's ascending eigenvalues w."""
    log_2, log_1, log_m1, log_m2 = (math.log(v) for v in f_far)
    est_max = (log_2 - log_1) / far[1]  # far[1] = t_far
    est_min = (log_m1 - log_m2) / far[1]
    return SupportEstimate(
        lambda_min_est=float(est_min),
        lambda_max_est=float(est_max),
        lambda_min_true=float(w[0]),
        lambda_max_true=float(w[-1]),
    )


def fit_measure(
    samples,
    support: tuple[float, float],
    grid_resolution: int,
    reg: float = RIDGE_REG,
) -> MeasureFit:
    """Fit a nonnegative atomic measure to samples of a transform.

    Candidate atoms sit equispaced on [support[0], support[1]]; weights
    solve min ||E w - f||^2 + reg ||w||^2 subject to w >= 0 with
    E[k][j] = e^{t_k lambda_j}, via deterministic active-set NNLS on the
    ridge-augmented system.  Every third sample is withheld and scored as
    the relative holdout error, so at least three finite samples are required.
    """
    samples = [(float(t), float(f)) for t, f in samples]
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValueError(f"support must satisfy lo < hi, got [{lo}, {hi}]")
    # hi - lo in Python floats, which overflow to inf without the warning np.linspace gives
    if not math.isfinite(hi - lo):
        raise ValueError(f"support must have finite ends and width, got [{lo}, {hi}]")
    if grid_resolution < 1:
        raise ValueError(f"grid_resolution must be positive, got {grid_resolution}")
    if len(samples) < grid_resolution / 4:
        raise ValueError(
            f"need at least grid_resolution/4 = {grid_resolution / 4:.1f} samples, "
            f"got {len(samples)}"
        )
    if reg < 0.0:
        raise ValueError(f"reg must be nonnegative, got {reg}")
    if not math.isfinite(reg):
        raise ValueError(f"reg must be finite, got {reg}")
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples, so that one is held out; got {len(samples)}")

    ts, fs = _points(samples, "samples", ndim=2).T
    hold = np.arange(len(samples)) % 3 == 2
    t_train, f_train = ts[~hold], fs[~hold]
    t_hold, f_hold = ts[hold], fs[hold]

    locs = np.linspace(lo, hi, grid_resolution)
    # overflow here is diagnosed below, not a numpy warning condition
    with np.errstate(over="ignore"):
        design = np.exp(np.outer(t_train, locs))
    if not np.all(np.isfinite(design)):
        raise IllConditioned("design matrix overflows double precision")

    a_aug = np.vstack([design, math.sqrt(reg) * np.eye(grid_resolution)])
    b_aug = np.concatenate([f_train, np.zeros(grid_resolution)])
    # scipy.optimize is imported here, on the first fit, so that the paths
    # that never fit a measure (reduce, check-ec, verify) start without it
    from scipy.optimize import nnls

    try:
        weights, _ = nnls(a_aug, b_aug)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise IllConditioned(f"NNLS solver failed: {exc}") from exc
    if not np.all(np.isfinite(weights)):
        raise IllConditioned("NNLS produced non-finite weights")

    residual = design @ weights - f_train
    # norm squares each residual: past about 1e154 it is taken of residual / max|residual|
    with np.errstate(over="ignore"):
        training_residual = float(np.linalg.norm(residual))
    if math.isinf(training_residual):
        scale = float(np.abs(residual).max())
        training_residual = scale * float(np.linalg.norm(residual / scale))
    pred = np.exp(np.outer(t_hold, locs)) @ weights
    denom = np.where(np.abs(f_hold) > 0.0, np.abs(f_hold), 1.0)
    holdout_error = float(np.max(np.abs(pred - f_hold) / denom))

    live = weights > 0.0
    measure = AtomicMeasure.from_atoms(zip(locs[live].tolist(), weights[live].tolist()))
    return MeasureFit(
        measure=measure,
        grid_resolution=grid_resolution,
        training_residual=training_residual,
        holdout_error=holdout_error,
    )
