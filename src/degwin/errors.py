"""Exception types shared across the package.

Kept deliberately small: callers mostly want to distinguish "your input can
never work" (InfeasibleError, DegreeSetError) from "the numerics refused"
(ConvergenceError, TruncationUnstableError) and from plain bad arguments
(ValueError subclasses).
"""


class DegreeSetError(ValueError):
    """A degree-set specification is malformed or violates model requirements."""


class TruncationUnstableError(ArithmeticError):
    """A truncated series over an unbounded degree set failed to stabilise."""


class NoCriticalPointError(ArithmeticError):
    """The branching ratio never reaches 1 on the positive axis."""


class ConvergenceError(ArithmeticError):
    """An iterative solve or series summation failed to converge."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SingularityError(ArithmeticError):
    """Evaluation was requested at or beyond a singularity."""


class OutOfRangeError(ValueError):
    """A requested target value lies outside the attainable range."""


class InfeasibleError(RuntimeError):
    """No admissible configuration exists for the requested (degrees, n, m)."""


class MaxAttemptsError(RuntimeError):
    """Rejection sampling exhausted its attempt budget without a simple graph."""
