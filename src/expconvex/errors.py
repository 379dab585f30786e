"""Exception hierarchy for the expconvex package."""


class ExpConvexError(Exception):
    """Base class for all expconvex errors."""


class NotSquare(ExpConvexError):
    """Matrix is not square."""


class NotHermitian(ExpConvexError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NonFinite(ExpConvexError):
    """Matrix or function value contains NaN or Inf, or an entry whose sums would."""


class ConvergenceFailure(ExpConvexError):
    """Iterative eigensolver failed to converge or missed its residual bound."""


class Overflow(ExpConvexError):
    """A value would leave the double-precision range: it overflows, or underflows to zero."""


class DimensionMismatch(ExpConvexError):
    """Operands have incompatible dimensions."""


class HypothesisViolated(ExpConvexError):
    """Input does not satisfy the structural hypothesis of the operation."""


class RankNotOne(ExpConvexError):
    """Matrix does not have exactly one eigenvalue above the rank tolerance."""

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class EvaluationFailure(ExpConvexError):
    """A scalar function returned a non-finite or invalid value."""


class DichotomyViolated(ExpConvexError):
    """Sampled values are neither identically zero nor everywhere positive."""


class NegativeScale(ExpConvexError):
    """Scaling constant must be nonnegative."""


class NotCommuting(ExpConvexError):
    """Matrix pair does not commute within tolerance."""


class IllConditioned(ExpConvexError):
    """Nonnegative least-squares solver failed numerically."""


class MatrixFileError(ExpConvexError):
    """Matrix document failed to parse; message carries the position."""
