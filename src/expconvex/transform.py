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
import threading
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .convexity import ScalarFunction, TGrid
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    ExpConvexError,
    IllConditioned,
    NotCommuting,
    Overflow,
)
from .hermitian import (
    HermitianMatrix, _check_lie_operands, _eigenvalue_text, _freeze, _lapack, _raised,
    _split_steps, _stacked_eigh, eigh, max_abs,
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


# _trace_batch's chunk of k points: about 1 MiB of complex entries, (k, n, n) matrices in the
# dense kernel and (k, n) terms in the contour one, so a long batch is not held all at once.
_CHUNK_BYTES = 2**20

# Largest |t| ||A|| + ||B|| at which _trace_batch evaluates t, checked there for both
# kernels: below it t*A + B and t*lambda with the contour bracket (up to twice that)
# stay finite, with a factor 2 to spare for rounding.
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


def _eigh_ahead(b: HermitianMatrix):
    """Start b._lapack_eigh, the contour kernel's eigh of B, on a second thread and return the
    thread's join.  The result is cached on b; a failure is not, and the kernel's own access
    raises it again, in its turn.

    None, and no thread, when b is below CONTOUR_MIN_N, where _trace_batch takes the dense
    kernel.  LAPACK releases the GIL, so the caller's Python work runs meanwhile on another
    core: the parse of a pair file's A, after load_pair's on_b hook.  The package's one use of
    threading.
    """
    if b.n < CONTOUR_MIN_N:
        return None

    def run():
        try:
            b._lapack_eigh  # computed and cached on b
        except ConvergenceFailure:
            pass

    thread = threading.Thread(target=run, name="eigh-ahead")
    thread.start()
    return thread.join


def _contour_values(ts: np.ndarray, eig_b, lam: float, v: np.ndarray) -> tuple:
    """(s, tr e^{t lambda v v* + B}) at every t: one eigh of B, then O(n) work per node and t.

    With B = Q diag(beta) Q*, p = |Q* v|^2, c = t lambda and s the top
    eigenvalue, log f = s + log I, where I = tr e^{H - s} for H = B + c v v*
    is the Talbot midpoint sum of (1/2 pi i) int e^z tr(z + s - H)^{-1} dz and
    Sherman-Morrison gives the resolvent trace
    sum_j g_j + c sum_j p_j g_j^2 / (1 - c sum_j p_j g_j), g_j = 1/(z + s - beta_j).
    eig_b = (beta, Q) is B's HermitianMatrix._lapack_eigh.
    """
    beta, q = eig_b
    p = np.abs(q.conj().T @ v) ** 2
    c = ts * lam
    s = _top_eigenvalue(beta, p, c)
    total = np.zeros(ts.size)
    # a point whose s exceeds the exp range may lose its sum: _trace_batch raises on s first
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for node, weight in zip(_NODES, _WEIGHTS):
            g = 1.0 / ((s[:, None] + node) - beta)
            phi = np.sum(p * g, axis=-1)
            psi = np.sum(p * g * g, axis=-1)
            total += (weight * (np.sum(g, axis=-1) + c * psi / (1.0 - c * phi))).imag
        return s, np.exp(s + np.log(total))


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


def _trace_batch(pairs) -> list:
    """tr e^{ta + b} at every t of every array of pairs, a list of (a, b, arrays): HermitianMatrix
    a and b, all of one size n, and 1-d float arrays of points.  Per array, in order: its values
    or the error trace_values raises for it alone.

    Per pair, before any evaluation, the range is checked and the kernel chosen: the contour one
    when n >= CONTOUR_MIN_N and a = lambda v v* up to RANK_TOL_FACTOR * ||a||_max, which
    diagonalizes b once and sums Sherman-Morrison resolvent traces on a Talbot contour, else the
    dense one.  Each takes about _CHUNK_BYTES of points at a time, the dense one those of adjacent
    pairs in one eigvalsh stack.  The kernels only compute; each chunk is checked here, for the
    first t whose largest eigenvalue exceeds EXP_OVERFLOW_LIMIT, then the first value that is not
    > 0.  One array fails with its first failed chunk's error; a longer batch that fails is
    evaluated again array by array.
    """
    arrays = [ts for _, _, group in pairs for ts in group]
    starts = list(accumulate((ts.size for ts in arrays), initial=0))
    ts_all = np.concatenate([np.empty(0), *arrays])
    t_max = float(np.abs(ts_all).max(initial=0.0))
    vals, stacks, lo = np.zeros(ts_all.size), [], 0  # stack: [factor, lo, hi, *(a, b, lo, hi)]
    try:
        for a, b, group in pairs:
            n, hi = a.n, lo + sum(map(len, group))
            factor = _rank_one_factor(a) if n >= CONTOUR_MIN_N else None
            a_norm, row = (a.norm_max(), n * n) if factor is None else (abs(factor[0]), n)
            # the bound on |t| is a Python float, which overflows to inf without a warning
            bound = (_MAX_SCALE - b.norm_max()) / a_norm if a_norm > 0.0 else math.inf
            if t_max > bound and (beyond := np.flatnonzero(np.abs(ts_all[lo:hi]) > bound)).size:
                t = float(ts_all[lo + beyond[0]])
                raise Overflow(f"t*A + B leaves the double-precision range at t = {t}")
            step = max(1, _CHUNK_BYTES // (16 * row or 1))
            while n and lo < hi:  # dense points join the last stack while it is dense, not full
                last = stacks[-1] if stacks else [0, lo, lo]
                if not (factor is last[0] is None and last[2] - last[1] < step):
                    stacks.append([factor, lo, lo])
                stacks[-1][2] = end = min(hi, stacks[-1][1] + step)
                stacks[-1].append((a, b, lo, end))
                lo = end
            lo = hi
        for factor, lo, hi, *runs in stacks:
            ts = ts_all[lo:hi]
            if factor:
                top, vals[lo:hi] = _contour_values(ts, runs[0][1]._lapack_eigh, *factor)
            else:
                w = _lapack(np.linalg.eigvalsh, np.concatenate(
                    [ts_all[i:j, None, None] * a.mat + b.mat for a, b, i, j in runs]))
                top = w[:, -1]
            if (over := np.flatnonzero(top > EXP_OVERFLOW_LIMIT)).size:
                k = int(over[0])
                raise Overflow(f"largest eigenvalue {_eigenvalue_text(top[k], 2)} of t*A + B "
                               f"exceeds exp range at t = {float(ts[k])}")
            if not factor:  # every exponent is now at most EXP_OVERFLOW_LIMIT
                vals[lo:hi] = np.sum(np.exp(w), axis=-1)
            # tr e^H > 0 for every Hermitian H, so a value that is not has underflowed
            if (under := np.flatnonzero(~(vals[lo:hi] > 0.0))).size:
                k = int(under[0])
                raise Overflow(f"trace value {float(vals[lo + k])} underflows at t = "
                               f"{float(ts[k])}")
    except ExpConvexError as exc:
        return [exc] if len(arrays) == 1 else [
            _trace_batch([(a, b, [ts])])[0] for a, b, group in pairs for ts in group]
    return [vals[s:e] for s, e in zip(starts, starts[1:])]


def trace_values(pair: TracePair, ts) -> np.ndarray:
    """tr e^{tA + B} at every t of the 1-d array ts, in input order: _trace_batch with one pair
    and one array, whose kernels make no value depend on the other points of ts.

    Raises ValueError naming the first non-finite t, ConvergenceFailure when the eigensolver
    fails, and Overflow, naming the first such t, when t*A + B would leave the double-precision
    range (checked on all of ts first), when a largest eigenvalue exceeds the exp range or when
    a value underflows to zero (overflow first in a chunk).
    """
    return _raised(_trace_batch([(pair.A, pair.B, [_points(ts)])])[0])


def trace_f(pair: TracePair, t: float) -> float:
    """tr e^{tA + B} at a single point."""
    return float(trace_values(pair, [t])[0])


def trace_function(pair: TracePair) -> ScalarFunction:
    """The trace function of a pair as a labelled scalar function, evaluated by trace_values."""
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
    """The split-step trace t -> tr (e^{Lt/p} e^{M/p})^p, converging to trace(L, M).

    Each evaluation eigendecomposes L and M once, by one stacked call, and takes every
    e^{tL/p} from eigh(L) = (w, V) as V diag(e^{tw/p}) V*: one split step at a time, so a
    batch of points holds O(n^2) memory.  Raises ValueError naming the first non-finite t.
    """
    _check_lie_operands(l, m, p)

    def f_p(ts) -> np.ndarray:
        ts = _points(ts)
        eigs = _stacked_eigh([l.mat, m.mat])
        (w, v), eig_m = _raised(eigs[0]), _raised(eigs[1])
        return np.array([np.trace(_split_steps((t * w, v), eig_m, (p,))[0]).real for t in ts])

    return ScalarFunction(fn=f_p, label=f"lie_trace(p={p})")


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
    Raises Overflow naming the far point when 2 t_far leaves the double-precision
    range, and Overflow (from trace_values), naming the t, when a far value
    overflows or underflows to zero.  Raises ValueError for a 0x0 pair, whose f is 0.
    """
    if pair.n == 0:
        raise ValueError("matrices are 0x0: f = 0 has no growth exponent")
    far = _far_points(pair)
    if math.isinf(far[0]):
        raise Overflow(f"far point t = 80/||A||_max leaves the double-precision range at "
                       f"||A||_max = {pair.A.norm_max():.3e}")
    return _support_estimate(far, trace_values(pair, far), eigh(pair.A)[0])


def _far_points(pair: TracePair) -> np.ndarray:
    norm = pair.A.norm_max()
    t_far = 40.0 / norm if norm > 0.0 else 1.0
    # Python floats: 2 t_far overflows to inf without a warning
    return np.array([2.0 * t_far, t_far, -t_far, -2.0 * t_far])


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
    live = weights > 0.0
    # a dead atom adds nothing: with its exponent set to 0, only a live term can overflow
    with np.errstate(over="ignore"):
        pred = np.exp(np.outer(t_hold, np.where(live, locs, 0.0))) @ weights
    if not np.isfinite(pred).all():
        t = float(t_hold[np.argmin(np.isfinite(pred))])
        raise IllConditioned(f"holdout prediction overflows double precision at t = {t}")
    denom = np.where(np.abs(f_hold) > 0.0, np.abs(f_hold), 1.0)
    holdout_error = float(np.max(np.abs(pred - f_hold) / denom))

    measure = AtomicMeasure.from_atoms(zip(locs[live].tolist(), weights[live].tolist()))
    return MeasureFit(
        measure=measure,
        grid_resolution=grid_resolution,
        training_residual=training_residual,
        holdout_error=holdout_error,
    )
