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
    ExpConvexError,
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
    return float(np.abs(a).max())


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
    a_star = a.conj().T
    dev = max_abs(a - a_star)
    if dev > tol:
        raise NotHermitian(
            f"deviation from conjugate transpose is {dev:.3e}, tolerance {tol:.3e}"
        )
    sym = (a + a_star) / 2.0
    return HermitianMatrix(_freeze(sym))


def validate_unitary(m) -> UnitaryMatrix:
    """Validate ||m m* - I||_max <= UNITARY_TOL and wrap."""
    a = _as_complex_square(m)
    dev = max_abs(a @ a.conj().T - np.eye(a.shape[0]))
    if dev > UNITARY_TOL:
        raise NotUnitary(f"||U U* - I||_max = {dev:.3e} > {UNITARY_TOL:.3e}")
    return UnitaryMatrix(_freeze(a.copy()))


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


def _stacked_eigh(hs) -> list:
    """eigh of every matrix of hs, all of one size, by one stacked LAPACK call, bit for bit.
    Per matrix: (w, v) or the ConvergenceFailure eigh raises for it; a failed call is redone singly.
    """
    mats = hs[0].mat[None] if len(hs) == 1 else np.array([h.mat for h in hs])
    try:
        w, v = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        if len(hs) > 1:
            return [_stacked_eigh([h])[0] for h in hs]
        return [ConvergenceFailure(f"eigensolver failed: {exc}")]
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
    """e^H = V diag(e^w) V*, symmetrized, from eig = (w, v), one result of _stacked_eigh.

    w and v may also stack k results, (k, n) and (k, n, n): one broadcast then gives every
    member's exponential with the bits of its own call, and the largest eigenvalue of the
    stack is the one an Overflow names.
    """
    w, v = _raised(eig)
    # eigenvalues ascend, so w.max() is the stack's largest top eigenvalue
    if w.size and (top := w.max()) > EXP_OVERFLOW_LIMIT:
        raise Overflow(f"largest eigenvalue {_eigenvalue_text(top, 3)} exceeds exp range")
    out = (v * np.exp(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def eigh(h: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition (w, v): ascending eigenvalues, phase-fixed eigenvector columns.

    Both arrays are frozen; the result has the shape of np.linalg.eigh's.
    Raises ConvergenceFailure if LAPACK fails or the reconstruction residual
    ||H V - V diag(w)||_max exceeds EIGH_RESIDUAL_TOL * max(1, ||H||_max).
    """
    return _raised(_stacked_eigh([h])[0])


def matrix_exp_hermitian(h: HermitianMatrix) -> np.ndarray:
    """exp(h) via eigendecomposition: V diag(e^w) V*.

    The result is Hermitian positive definite up to roundoff.  Raises
    Overflow when the largest eigenvalue exceeds the double-precision
    exponent range.
    """
    return _exp_of(_stacked_eigh([h])[0])


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
    exps = map(_exp_of, _stacked_eigh([HermitianMatrix(x.mat / p), HermitianMatrix(y.mat / p)]))
    value = _split_step(*exps, p)
    err = None
    if with_reference:
        ref = matrix_exp_hermitian(HermitianMatrix(x.mat + y.mat))
        err = max_abs(value - ref)
    return LieApproximation(value=_freeze(value), reference_error=err)


def _split_step(ex: np.ndarray, ey: np.ndarray, p) -> np.ndarray:
    """(ex ey)^p by np.linalg.matrix_power.

    ex and ey may also stack k factors, with p then k ascending powers of two: all
    members are squared together, the products matrix_power forms, and member j
    stops after log2(p[j]) squarings.  The result is the (k, n, n) stack of powers.
    """
    if np.ndim(p) == 0:
        value = np.linalg.matrix_power(ex @ ey, p)
    else:
        z, power, value = ex @ ey, 1, np.empty_like(ex)
        for j, pj in enumerate(p):
            while power < pj:
                z, power = z @ z, 2 * power
            value[j], z = z[0], z[1:]
    if not np.isfinite(value).all():
        raise Overflow("split-step product overflowed double precision")
    return value


def _lie_reference_errors(x: HermitianMatrix, y: HermitianMatrix, eigs, ps) -> list:
    """lie_product_approx(x, y, p, with_reference=True).reference_error for each p of ps.

    ps holds ascending powers of two and eigs = _stacked_eigh([x, y, x + y]).  eigh(x / p)
    is (w / p, v) of eigh(x) bit for bit, as dividing by a power of two scales every
    rounding of the eigensolver exactly and keeps its residual within the limit, so the
    2 len(ps) + 1 exponentials are one broadcast and the split steps one stack.  When an
    eigendecomposition failed or an exponential would overflow, lie_product_approx itself
    evaluates every p, and raises its errors in its order.
    """
    if not any(isinstance(e, ExpConvexError) for e in eigs):
        (wx, vx), (wy, vy), (wxy, vxy) = eigs
        k = len(ps)
        w = np.array([wx / p for p in ps] + [wy / p for p in ps] + [wxy])
        if w.max() <= EXP_OVERFLOW_LIMIT:
            exps = _exp_of((w, np.array([vx] * k + [vy] * k + [vxy])))
            values = _split_step(exps[:k], exps[k : 2 * k], ps)
            return np.abs(values - exps[-1]).max(axis=(-2, -1), initial=0.0).tolist()
    return [lie_product_approx(x, y, p, with_reference=True).reference_error for p in ps]


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
