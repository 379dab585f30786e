"""Unitary reduction of a rank-one pair (A, B) to (diagonal L, nonneg-off-diag M).

Given Hermitian A of rank one and Hermitian B, builds a unitary W with

    W A W* = L = diag(0, ..., 0, lambda_n)
    W B W* = M,  M[j,k] = 0 for j < k < n,  M[j,n] = |gamma_j| >= 0.

The construction: a Householder reflection moves the range of A into the
last coordinate, the leading (n-1)-block of the transformed B is
diagonalized, and a diagonal phase matrix rotates the coupling column to
nonnegative reals.  The trace function of the pair is invariant throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankNotOne
from .hermitian import HermitianMatrix, _freeze, conjugate, eigh
from .tolerances import PHASE_ZERO_TOL, RANK_TOL_FACTOR


@dataclass(frozen=True)
class ReductionResult:
    """The unitary W with W A W* = L, W B W* = M, and the intermediates L, M and W do not hold.

    U is the Householder corner diagonalizer; B_block and b_col are the
    leading block and the coupling column of U B U*; V_block diagonalizes
    B_block.  The rest is read off M and W: M's diagonal holds the
    eigenvalues of B_block and the corner entry mu_n of U B U*, and with
    g = V_block b_col and omegas = phase_matrix(g) W's leading block is
    W_block = diag(omegas) V_block and M's coupling column is |g|.
    """

    W: np.ndarray
    L: HermitianMatrix
    M: HermitianMatrix
    U: np.ndarray
    B_block: HermitianMatrix
    b_col: np.ndarray
    V_block: np.ndarray


def _rank_one_certificate(eig_a, rank_tol: float) -> tuple[float, np.ndarray]:
    """(lambda, v): the one eigenvalue of magnitude above rank_tol and its unit eigenvector,
    from eig_a = (w, v) = eigh(a).

    Raises RankNotOne (carrying the spectrum) when zero or several
    eigenvalues exceed the threshold.
    """
    w, v = eig_a
    big = np.flatnonzero(np.abs(w) > rank_tol)
    if big.size != 1:
        raise RankNotOne(
            f"expected exactly one eigenvalue with |lambda| > {rank_tol:.3e}, "
            f"found {big.size}: {w[big].tolist() if big.size else w.tolist()}",
            spectrum=w.copy(),
        )
    k = int(big[0])
    return float(w[k]), v[:, k]


def corner_diagonalizer(v: np.ndarray) -> np.ndarray:
    """Householder reflection U mapping the unit vector v to the last axis, as a frozen array.

    U is Hermitian and unitary, and U A U* = diag(0, ..., 0, lambda_n) for
    A = lambda_n * v v*.  The reflection sends v to alpha*e_n with the unit
    phase alpha chosen to avoid cancellation.
    """
    n = v.shape[0]
    e_last = np.zeros(n, dtype=complex)
    e_last[-1] = 1.0
    vn = v[-1]
    alpha = -vn / abs(vn) if abs(vn) > 0.0 else 1.0 + 0.0j
    w = v - alpha * e_last
    u = np.eye(n, dtype=complex) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
    return _freeze(u)


def phase_matrix(g) -> np.ndarray:
    """Unit phases omega_j with omega_j * g_j = |g_j|, the diagonal of the phase matrix.

    Components with |g_j| <= PHASE_ZERO_TOL are treated as zero and get
    omega_j = 1.
    """
    g = np.asarray(g, dtype=complex)
    omegas = np.ones(g.shape[0], dtype=complex)
    nz = np.abs(g) > PHASE_ZERO_TOL
    omegas[nz] = g[nz].conjugate() / np.abs(g[nz])
    return _freeze(omegas)


def reduce(a: HermitianMatrix, b: HermitianMatrix) -> ReductionResult:
    """Reduce the rank-one pair (a, b) to (diagonal L, nonneg-off-diag M).

    Steps: certify rank one and move the nonzero eigendirection of a into
    the corner; diagonalize the leading block of the transformed b; rotate
    the coupling column to nonnegative reals with diagonal phases; assemble
    W as the block unitary times the corner reflection.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"operands are {a.n}x{a.n} and {b.n}x{b.n}")
    return _reduce(a, b, eigh(a))


def _reduce(a: HermitianMatrix, b: HermitianMatrix, eig_a) -> ReductionResult:
    """reduce(a, b) for a and b of one size, from eig_a = (w, v) = eigh(a)."""
    n = a.n
    lambda_n, v = _rank_one_certificate(eig_a, RANK_TOL_FACTOR * a.norm_max())
    u = corner_diagonalizer(v)
    b1 = conjugate(u, b).mat

    b_block = HermitianMatrix(_freeze(b1[: n - 1, : n - 1].copy()))
    b_col = b1[: n - 1, n - 1].copy()

    mus, vecs = eigh(b_block)
    # eigh returns columns; the diagonalizing map is its conjugate transpose.
    v_block = vecs.conj().T

    g = v_block @ b_col
    g_abs = np.abs(g)
    w_block = np.diag(phase_matrix(g)) @ v_block

    w_full = np.zeros((n, n), dtype=complex)
    w_full[: n - 1, : n - 1] = w_block
    w_full[n - 1, n - 1] = 1.0
    w_full = w_full @ u

    l_mat = np.zeros((n, n), dtype=complex)
    l_mat[n - 1, n - 1] = lambda_n

    m_mat = np.zeros((n, n), dtype=complex)
    m_mat[: n - 1, : n - 1] = np.diag(mus)
    m_mat[: n - 1, n - 1] = g_abs
    m_mat[n - 1, : n - 1] = g_abs
    m_mat[n - 1, n - 1] = b1[n - 1, n - 1].real

    return ReductionResult(
        W=_freeze(w_full),
        L=HermitianMatrix(_freeze(l_mat)),
        M=HermitianMatrix(_freeze(m_mat)),
        U=u,
        B_block=b_block,
        b_col=_freeze(b_col),
        V_block=_freeze(v_block),
    )


def reduction_residuals(a: HermitianMatrix, b: HermitianMatrix, result: ReductionResult) -> tuple[float, float]:
    """Max-norm residuals (||W A W* - L||, ||W B W* - M||) of a reduction."""
    w = result.W
    diffs = w @ np.array([a.mat, b.mat]) @ w.conj().T - np.array([result.L.mat, result.M.mat])
    ra, rb = np.abs(diffs).max(axis=(-2, -1), initial=0.0).tolist()
    return ra, rb
