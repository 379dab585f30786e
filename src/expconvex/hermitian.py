"""The validated Hermitian matrix type and the core dense operations.

Everything here works on small dense complex matrices.  Matrix exponentials
are computed through the Hermitian eigendecomposition, which preserves
Hermitian structure exactly and is the reference against which the Lie
product approximation is measured.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    ExpConvexError,
    HypothesisViolated,
    NonFinite,
    NotHermitian,
    NotSquare,
    Overflow,
)
from .tolerances import (
    EIGH_RESIDUAL_TOL, EXP_OVERFLOW_LIMIT, HERMITIAN_TOL, OFFDIAG_TOL, PHASE_ANCHOR_TOL,
)


# the largest |x| at which every sum of two such doubles, as in (m + m*)/2, is finite
_HALF_MAX = sys.float_info.max / 2


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm; 0.0 for empty arrays."""
    return float(np.abs(a).max(initial=0.0))


def _as_complex_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    return a


def _eigenvalue_text(x: float, decimals: int) -> str:
    """x in fixed point below 1e15, else in exponent form, so that an error message stays short."""
    return f"{x:.{decimals}f}" if abs(x) < 1e15 else f"{x:.{decimals}e}"


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HermitianMatrix:
    """An n x n complex matrix stored in exactly symmetrized form."""

    mat: np.ndarray

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def norm_max(self) -> float:
        return self._norm_max

    @functools.cached_property
    def _norm_max(self) -> float:
        """max_abs(mat), kept from the first call of norm_max on, as mat is frozen."""
        return max_abs(self.mat)

    @functools.cached_property
    def _lapack_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """_lapack(np.linalg.eigh, mat), frozen and with no phase fix: the contour kernel's eigh
        of B, kept from the first access on.  A ConvergenceFailure is not kept: the next access
        tries again.  Before Python 3.12 cached_property computes under one lock shared by all
        matrices; the CLI decomposes one matrix at a time."""
        w, v = _lapack(np.linalg.eigh, self.mat)
        return _freeze(w), _freeze(v)


@dataclass(frozen=True)
class PerronShift:
    """A shift rho with shifted = M + rho*I having all entries nonnegative."""

    rho: float
    shifted: np.ndarray


@dataclass(frozen=True)
class LieApproximation:
    """The split-step product (e^{X/p} e^{Y/p})^p with optional reference error."""

    value: np.ndarray
    reference_error: float | None = None


@dataclass(frozen=True)
class EntrywiseReport:
    """Result of the entrywise nonnegativity check of a matrix exponential."""

    holds: bool
    min_entry: float
    location: tuple[int, int]


def validate_hermitian(m) -> HermitianMatrix:
    """Validate that m is Hermitian and return the symmetrized wrapper.

    The tolerance is HERMITIAN_TOL * max(1, ||m||_max).  The stored matrix is
    (m + m*)/2, which has an exactly real diagonal and exact conjugate
    symmetry.  An entry of modulus above max/2, whose sums may overflow, raises NonFinite.
    """
    a = _as_complex_square(m)
    if (size := max_abs(a)) > _HALF_MAX:
        raise NonFinite(
            f"matrix entries must not exceed {_HALF_MAX:.17g} in modulus, "
            "so that (m + m*)/2 is finite"
        )
    tol = HERMITIAN_TOL * max(1.0, size)
    a_star = a.conj().T
    dev = max_abs(a - a_star)
    if dev > tol:
        raise NotHermitian(
            f"deviation from conjugate transpose is {dev:.3e}, tolerance {tol:.3e}"
        )
    sym = (a + a_star) / 2.0
    return HermitianMatrix(_freeze(sym))


def _raised(result):
    """result, unless it is the error a stacked call kept for one of its members: then raise it."""
    if isinstance(result, ExpConvexError):
        raise result
    return result


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column (of a matrix or a stack) so its first nonzero component is real positive.

    Makes eigenvector output reproducible across runs; any unitary choice is
    equally valid downstream.
    """
    if v.size == 0:
        return v.copy()
    s = v.reshape(-1, *v.shape[-2:])
    k, r, c = s.shape
    cols = s.swapaxes(1, 2).reshape(k * c, r)
    nonzero = np.abs(cols) > PHASE_ANCHOR_TOL
    at = (np.arange(k * c), nonzero.argmax(axis=1))
    # a column with no entry above the threshold keeps its phase
    lead = np.where(nonzero[at], cols[at], 1.0).reshape(k, 1, c)
    # hypot, not np.abs: the vectorized complex abs can round differently
    # in the last bit, and the verify report bytes depend on these phases
    return (s * (lead.conjugate() / np.hypot(lead.real, lead.imag))).reshape(v.shape)


def _lapack(solver, a):
    """solver(a) for solver np.linalg.eigh or np.linalg.eigvalsh: the package's one LAPACK call.
    A failure raises ConvergenceFailure, never numpy's LinAlgError, a ValueError that the CLI
    would read as a usage error."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc


def _stacked_eigh(hs) -> list:
    """eigh of every exactly Hermitian array of hs, all of one size, by one stacked LAPACK call,
    bit for bit. Per matrix: (w, v) or the ConvergenceFailure eigh raises for it; a failed call
    is redone singly.
    """
    mats = np.array(hs)
    try:
        w, v = _lapack(np.linalg.eigh, mats)
    except ConvergenceFailure as exc:
        if len(hs) > 1:
            return [_stacked_eigh([h])[0] for h in hs]
        return [exc]
    v = _fix_column_phases(v)
    residuals = np.abs(mats @ v - v * w[:, None, :]).max(axis=(-2, -1), initial=0.0).tolist()
    limits = (EIGH_RESIDUAL_TOL * np.abs(mats).max(axis=(-2, -1), initial=1.0)).tolist()
    # each result is a view of the frozen stacks, so it is frozen too
    _freeze(w)
    _freeze(v)
    return [
        ConvergenceFailure(f"reconstruction residual {r:.3e} exceeds {limit:.3e}")
        if r > limit else (wk, vk)
        for wk, vk, r, limit in zip(w, v, residuals, limits)
    ]


def _exp_of(eig) -> np.ndarray:
    """e^H = V diag(e^w) V*, symmetrized, from eig = (w, v) = eigh(H).

    w and v may also stack k results, (k, n) and (k, n, n): one broadcast then gives every
    member's exponential with the bits of its own call, and the largest eigenvalue of the
    stack is the one an Overflow names.
    """
    w, v = eig
    # eigenvalues ascend, so w.max() is the stack's largest top eigenvalue
    if (top := w.max(initial=-np.inf)) > EXP_OVERFLOW_LIMIT:
        raise Overflow(f"largest eigenvalue {_eigenvalue_text(top, 3)} exceeds exp range")
    out = (v * np.exp(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def eigh(h: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition (w, v): ascending eigenvalues, phase-fixed eigenvector columns.

    Both arrays are frozen; the result has the shape of np.linalg.eigh's.
    Raises ConvergenceFailure if LAPACK fails or the reconstruction residual
    ||H V - V diag(w)||_max exceeds EIGH_RESIDUAL_TOL * max(1, ||H||_max).
    """
    return _raised(_stacked_eigh([h.mat])[0])


def matrix_exp_hermitian(h: HermitianMatrix) -> np.ndarray:
    """exp(h) via eigendecomposition: V diag(e^w) V*.

    The result is Hermitian positive definite up to roundoff.  Raises
    Overflow when the largest eigenvalue exceeds the double-precision
    exponent range.
    """
    return _exp_of(eigh(h))


def conjugate(u: np.ndarray, h: HermitianMatrix) -> HermitianMatrix:
    """Conjugation U h U* by a unitary array u; preserves the trace and the spectrum."""
    if u.shape != h.mat.shape:
        raise DimensionMismatch(f"unitary has shape {u.shape}, matrix is {h.n}x{h.n}")
    out = u @ h.mat @ u.conj().T
    return HermitianMatrix(_freeze((out + out.conj().T) / 2.0))


def lie_product_approx(
    x: HermitianMatrix,
    y: HermitianMatrix,
    p: int,
    with_reference: bool = False,
) -> LieApproximation:
    """Split-step approximation (e^{x/p} e^{y/p})^p of e^{x+y}.

    With with_reference=True the eigendecomposition exponential of x+y is computed
    after the split step, whose errors come first, and reference_error = ||value - e^{x+y}||_max.
    """
    _check_lie_operands(x, y, p)
    eigs = _stacked_eigh([x.mat, y.mat, x.mat + y.mat] if with_reference else [x.mat, y.mat])
    value = _freeze(_split_steps(_raised(eigs[0]), _raised(eigs[1]), (p,))[0])
    if not with_reference:
        return LieApproximation(value)
    return LieApproximation(value, max_abs(value - _exp_of(_raised(eigs[2]))))


def _check_lie_operands(x: HermitianMatrix, y: HermitianMatrix, p: int) -> None:
    """Raise DimensionMismatch for operands of two sizes, or ValueError for a p not an integer >= 1."""
    if x.n != y.n:
        raise DimensionMismatch(f"operands are {x.n}x{x.n} and {y.n}x{y.n}")
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")


def _split_steps(eig_x, eig_y, ps) -> np.ndarray:
    """The split steps (e^{x/p} e^{y/p})^p for every p of ps, stacked, from eigh(x) and eigh(y).

    Each p of ps is a multiple of the one before.  e^{x/p} is taken from eigh(x) = (w, V) as
    V diag(e^{w/p}) V*, which for p a power of two is eigh(x / p) bit for bit.  All
    exponentials are one broadcast, and all products are raised to ps[0] together, the later
    ones then by each further factor.  Raises an Overflow of an e^{x/p} or e^{y/p}, then of a
    split step (with no numpy warning).
    """
    (wx, vx), (wy, vy), k = eig_x, eig_y, len(ps)
    eig = [(wx / p, vx) for p in ps] + [(wy / p, vy) for p in ps]
    exps = _exp_of(tuple(map(np.array, zip(*eig))))
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linalg.matrix_power(exps[:k] @ exps[k:], ps[0])
        for j in range(1, k):
            values[j:] = np.linalg.matrix_power(values[j:], ps[j] // ps[j - 1])
    if not np.isfinite(values).all():
        raise Overflow("split-step product overflowed double precision")
    return values


def _check_offdiag_nonneg(m: HermitianMatrix, what: str = "") -> None:
    """Raise HypothesisViolated unless all off-diagonal entries of m are nonnegative reals."""
    a = m.mat
    bad = ~np.eye(m.n, dtype=bool) & ((a.real < -OFFDIAG_TOL) | (np.abs(a.imag) > OFFDIAG_TOL))
    if np.any(bad):
        j, k = np.argwhere(bad)[0]
        raise HypothesisViolated(
            f"off-diagonal entry ({j},{k}) = {a[j, k]:.6g}{what} is not a nonnegative real"
        )


def perron_shift(m: HermitianMatrix) -> PerronShift:
    """Shift m by rho*I so every entry is nonnegative.

    Requires all off-diagonal entries of m to be nonnegative reals (within
    OFFDIAG_TOL); the diagonal is real by Hermiticity.  rho is the smallest
    deterministic choice: max(0, -min diagonal).
    """
    _check_offdiag_nonneg(m)
    diag = m.mat.diagonal().real
    rho = float(max(0.0, -diag.min())) if diag.size else 0.0
    shifted = m.mat + rho * np.eye(m.n)
    return PerronShift(rho=rho, shifted=_freeze(shifted))


def exp_entrywise_nonneg_check(m: HermitianMatrix, tol: float = OFFDIAG_TOL) -> EntrywiseReport:
    """Compute e^m and report whether every entry is a nonnegative real.

    holds is True iff every entry has real part >= -tol and |imag| <= tol.
    min_entry is the smallest real part together with its location.
    Raises ValueError for a 0x0 m, which has no entry.
    """
    if m.n == 0:
        raise ValueError("matrix is 0x0: e^m has no entry to check")
    e = matrix_exp_hermitian(m)
    re = e.real
    idx = np.unravel_index(np.argmin(re), re.shape)
    min_entry = float(re[idx])
    holds = bool(min_entry >= -tol and max_abs(e.imag) <= tol)
    return EntrywiseReport(holds=holds, min_entry=min_entry, location=(int(idx[0]), int(idx[1])))


def hermitian_from_diag(diag) -> HermitianMatrix:
    """Diagonal Hermitian matrix from a sequence of reals."""
    d = np.asarray(diag, dtype=float)
    if not np.all(np.isfinite(d)):
        raise NonFinite("diagonal contains NaN or Inf")
    return HermitianMatrix(_freeze(np.diag(d).astype(complex)))
