"""Exception types, and the threshold reader, shared across the package."""

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


class RangeError(OverflowError):
    """A result is not representable in double precision."""


class AccuracyError(RuntimeError):
    """The Fourier route cannot certify its result (a grid too large, or a
    result outside [0, 1]); carries any estimate made."""

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


def read_thresholds(m, name: str = "thresholds", negative: str = "nonnegative") -> np.ndarray:
    """Threshold(s) m as an int64 array of m's shape, refused unless whole and `negative`."""
    given = np.asarray(m)
    with np.errstate(invalid="ignore"):
        ms = given.astype(np.int64)
    if not np.array_equal(ms, given):
        raise DomainError(f"{name}: {given[ms != given][0]} is not a whole number")
    if ms.size and ms.min() < 0:
        raise DomainError(f"{name} must be {negative}")
    return ms
