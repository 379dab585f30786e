"""Validated Hermitian/unitary matrix types and the core dense operations.

Everything here works on small dense complex matrices.  Matrix exponentials
are computed through the Hermitian eigendecomposition, which preserves
Hermitian structure exactly and is the reference against which the Lie
product approximation is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    HypothesisViolated,
    NonFinite,
    NotHermitian,
    NotSquare,
    NotUnitary,
    Overflow,
)
from .tolerances import (
    EIGH_RESIDUAL_TOL, EXP_OVERFLOW_LIMIT, HERMITIAN_TOL, OFFDIAG_TOL, PHASE_ANCHOR_TOL,
    UNITARY_TOL,
)


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm; 0.0 for empty arrays."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def _as_complex_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
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
        return max_abs(self.mat)


@dataclass(frozen=True)
class UnitaryMatrix:
    """An n x n complex matrix meant to be unitary.

    Only validate_unitary checks ||U U* - I||_max <= UNITARY_TOL; the
    reduction wraps the unitaries it builds (corner reflection, block
    diagonalizer, W) without a check.
    """

    mat: np.ndarray

    @property
    def n(self) -> int:
        return self.mat.shape[0]


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
    symmetry.
    """
    a = _as_complex_square(m)
    tol = HERMITIAN_TOL * max(1.0, max_abs(a))
    dev = max_abs(a - a.conj().T)
    if dev > tol:
        raise NotHermitian(
            f"deviation from conjugate transpose is {dev:.3e}, tolerance {tol:.3e}"
        )
    sym = (a + a.conj().T) / 2.0
    return HermitianMatrix(_freeze(sym))


def validate_unitary(m) -> UnitaryMatrix:
    """Validate ||m m* - I||_max <= UNITARY_TOL and wrap."""
    a = _as_complex_square(m)
    dev = max_abs(a @ a.conj().T - np.eye(a.shape[0]))
    if dev > UNITARY_TOL:
        raise NotUnitary(f"||U U* - I||_max = {dev:.3e} > {UNITARY_TOL:.3e}")
    return UnitaryMatrix(_freeze(a.copy()))


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero component is real positive.

    Makes eigenvector output reproducible across runs; any unitary choice is
    equally valid downstream.
    """
    if v.size == 0:
        return v.copy()
    nonzero = np.abs(v) > PHASE_ANCHOR_TOL
    cols = np.arange(v.shape[1])
    first = np.argmax(nonzero, axis=0)
    # a column with no entry above the threshold keeps its phase
    lead = np.where(nonzero[first, cols], v[first, cols], 1.0)
    # hypot, not np.abs: the vectorized complex abs can round differently
    # in the last bit, and the verify report bytes depend on these phases
    return v * (lead.conjugate() / np.hypot(lead.real, lead.imag))


def eigh(h: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition (w, v): ascending eigenvalues, phase-fixed eigenvector columns.

    Both arrays are frozen; the result has the shape of np.linalg.eigh's.
    Raises ConvergenceFailure if LAPACK fails or the reconstruction residual
    ||H V - V diag(w)||_max exceeds EIGH_RESIDUAL_TOL * max(1, ||H||_max).
    """
    try:
        w, v = np.linalg.eigh(h.mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    v = _fix_column_phases(v)
    scale = max(1.0, h.norm_max())
    residual = max_abs(h.mat @ v - v * w)
    if residual > EIGH_RESIDUAL_TOL * scale:
        raise ConvergenceFailure(
            f"reconstruction residual {residual:.3e} exceeds {EIGH_RESIDUAL_TOL * scale:.3e}"
        )
    return _freeze(w), _freeze(v)


def matrix_exp_hermitian(h: HermitianMatrix) -> np.ndarray:
    """exp(h) via eigendecomposition: V diag(e^w) V*.

    The result is Hermitian positive definite up to roundoff.  Raises
    Overflow when the largest eigenvalue exceeds the double-precision
    exponent range.
    """
    w, v = eigh(h)
    if w.size and float(w[-1]) > EXP_OVERFLOW_LIMIT:
        raise Overflow(f"largest eigenvalue {_eigenvalue_text(w[-1], 3)} exceeds exp range")
    ew = np.exp(w)
    out = (v * ew) @ v.conj().T
    return (out + out.conj().T) / 2.0


def conjugate(u: UnitaryMatrix, h: HermitianMatrix) -> HermitianMatrix:
    """Unitary conjugation U h U*; preserves the trace and the spectrum."""
    if u.n != h.n:
        raise DimensionMismatch(f"unitary is {u.n}x{u.n}, matrix is {h.n}x{h.n}")
    out = u.mat @ h.mat @ u.mat.conj().T
    return HermitianMatrix(_freeze((out + out.conj().T) / 2.0))


def lie_product_approx(
    x: HermitianMatrix,
    y: HermitianMatrix,
    p: int,
    with_reference: bool = False,
) -> LieApproximation:
    """Split-step approximation (e^{x/p} e^{y/p})^p of e^{x+y}.

    With with_reference=True the eigendecomposition exponential of x+y is
    computed as well and reference_error = ||value - e^{x+y}||_max.
    """
    if x.n != y.n:
        raise DimensionMismatch(f"operands are {x.n}x{x.n} and {y.n}x{y.n}")
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    ex = matrix_exp_hermitian(HermitianMatrix(x.mat / p))
    ey = matrix_exp_hermitian(HermitianMatrix(y.mat / p))
    value = np.linalg.matrix_power(ex @ ey, p)
    if not np.all(np.isfinite(value.real)) or not np.all(np.isfinite(value.imag)):
        raise Overflow("split-step product overflowed double precision")
    err = None
    if with_reference:
        ref = matrix_exp_hermitian(validate_hermitian(x.mat + y.mat))
        err = max_abs(value - ref)
    return LieApproximation(value=_freeze(value), reference_error=err)


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
    """
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
