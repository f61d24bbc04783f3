"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the validity range of an operation."""


class OverflowDomainError(DomainError):
    """An argument inside the validity range gives a value that overflows
    double precision."""


class BracketError(ValueError):
    """A root-finding bracket does not straddle the target value."""


class ConvergenceError(RuntimeError):
    """An iterative scheme ran out of budget before reaching tolerance.

    Carries the best value obtained so far in ``partial`` and the error
    estimate at the point of failure in ``error_estimate``.
    """

    def __init__(self, message, partial=None, error_estimate=None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


class EvaluationError(RuntimeError):
    """A quantity that should be well defined came out non-finite or of the
    wrong sign (numeric guard, not a domain violation)."""
