"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


class RangeError(OverflowError):
    """A result is not representable in double precision."""


class AccuracyError(RuntimeError):
    """A numerical route cannot certify its result (recursion underflow, or a
    Fourier grid too large or outside [0, 1]); carries any estimate made."""

    def __init__(self, message, estimate=None, achieved_tol=None):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_tol = achieved_tol


class CeilingError(RuntimeError):
    """The dimensioning target is unreachable below the configured PRB ceiling."""

    def __init__(self, message, ceiling=None, achieved_pi=None):
        super().__init__(message)
        self.ceiling = ceiling
        self.achieved_pi = achieved_pi


class InfeasibleSplitError(ValueError):
    """Outdoor traffic requested but there are no roads to carry it."""


class ScenarioError(ValueError):
    """A scenario document failed parsing or validation."""
