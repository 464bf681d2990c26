"""Shared exception types.

Every public entry point raises DomainError for arguments outside its
documented domain, so callers can distinguish usage errors (exit code 2
in the CLI) from numerical failures (exit code 1).
"""


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


def check_unit_interval(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise DomainError("%s must lie in [0, 1], got %r" % (name, value))


class EvaluationError(RuntimeError):
    """An integrand returned a non-finite value.

    Attributes
    ----------
    abscissa : float
        Sample point at which the evaluation failed.
    """

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class ConvergenceError(RuntimeError):
    """Adaptive subdivision exhausted before reaching tolerance.

    Attributes
    ----------
    estimate : QuadResult
        Best estimate available at the point of failure.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class AdmissionError(ValueError):
    """A function failed the convexity admission required by a bound.

    Attributes
    ----------
    report : ConvexityReport
        Grid check that rejected the function.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
