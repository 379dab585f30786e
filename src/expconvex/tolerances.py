"""Every numerical threshold and pass limit of the package, each named once by what it decides.

"Relative" means scaled as documented where the constant is used.
"""

# matrix validation and eigendecomposition
HERMITIAN_TOL = 1e-12  # relative ||m - m*||_max for a matrix to count as Hermitian
EIGH_RESIDUAL_TOL = 1e-10  # relative ||H V - V diag(w)||_max for eigh to be trusted
EXP_OVERFLOW_LIMIT = 700.0  # exp(x) overflows double precision near x = 709.78
PHASE_ANCHOR_TOL = 1e-12  # |v_jk| above this anchors the phase of eigenvector column k

# the paper's hypotheses (OFFDIAG_TOL also decides that L is diagonal and e^M nonnegative)
OFFDIAG_TOL = 1e-12  # an off-diagonal entry is a nonnegative real: re >= -tol, |im| <= tol
RANK_TOL_FACTOR = 1e-9  # |eigenvalue| / ||A||_max above this counts toward the rank
PHASE_ZERO_TOL = 1e-13  # |g_j| at or below this is no coupling and keeps phase 1

# trace evaluation: the contour kernel takes A of rank one up to RANK_TOL_FACTOR
CONTOUR_MIN_N = 32  # rank-one A from this n: for 26 points dense is faster only up to n = 24-28
CONTOUR_NODES = 32  # Talbot nodes: |log f error| 3e-7 at 16, 8e-11 at 24, 1e-13 at 32

# exponential convexity
DEFAULT_PSD_TOL = 1e-8  # Gram check: min eigenvalue >= -tol * max(1, ||G||_max)
ZERO_FUNCTION_TOL = 1e-14  # |f(t)| at or below this is zero in the dichotomy
IMAG_TOL = 1e-10  # largest Im e^{Lt+M} for its real part to stand for the entry

# measures
COMM_TOL = 1e-10  # relative ||AB - BA||_max for a pair to commute
ATOM_MERGE_TOL = 1e-9  # atom locations this close are one atom
RIDGE_REG = 1e-10  # default ridge weight of the NNLS measure fit
HOLDOUT_LIMIT = 1e-3  # fit-measure passes at this relative holdout error or below
SUPPORT_MIN_WIDTH = 1e-3  # a narrower spec(A) range, as of A = cI, is widened to unit width

# verify records
RESIDUAL_TOL = 1e-10  # ||W A W* - L||_max and ||W B W* - M||_max
TRACE_INV_TOL = 1e-9  # relative gap of tr e^{tA+B} and tr e^{tL+M}
LIE_RATIO_LIMIT = 0.75  # Lie error ratio e(128)/e(64); first order gives 0.5
LIE_ERROR_FLOOR = 1e-300  # a p = 64 Lie error below this is zero; the ratio is 0
ROUNDTRIP_TOL = 1e-10  # relative error of the commuting measure's transform and mass
GROWTH_TOL = 0.05  # error of the log-slope support estimates against spec(A), in verify only
GRID_MIN_GAP = 1e-6  # smallest spacing of a random grid, so its Gram is not degenerate
