"""Exception types shared across the package.

Kept deliberately small: callers mostly want to distinguish "your input can
never work" (InfeasibleError, DegreeSetError) from "the numerics refused"
(ConvergenceError, NoCriticalPointError) and from plain bad arguments
(ValueError subclasses).  Every class here is also a DegwinError, which the
command line reports in one line with exit code 2.
"""


class DegwinError(Exception):
    """Base of the package's own errors."""


class DegreeSetError(DegwinError, ValueError):
    """A degree-set specification is malformed or violates model requirements."""


class NoCriticalPointError(DegwinError, ArithmeticError):
    """The branching ratio never reaches 1 on the positive axis."""


class ConvergenceError(DegwinError, ArithmeticError):
    """An iterative solve or series summation failed to converge."""


class OutOfRangeError(DegwinError, ValueError):
    """A requested target value lies outside the attainable range."""


class InfeasibleError(DegwinError, RuntimeError):
    """No admissible configuration exists for the requested (degrees, n, m)."""


class MaxAttemptsError(DegwinError, RuntimeError):
    """Rejection sampling exhausted its attempt budget without a simple graph."""
