"""Exception types with their exit codes, the size bound, and the package's input readers."""

import math
from numbers import Real

import numpy as np

# The most elements a draw, curve or Fourier grid may take (512 MiB of float64s).
MAX_POINTS = 1 << 26


class PrbdimError(Exception):
    """An error of prbdim's own: `cli.main` prints `label: message`, exits `exit_code`."""
    exit_code, label = 1, "error"


class DomainError(PrbdimError, ValueError):
    """An argument lies outside the domain of the requested operation."""
    exit_code, label = 3, "validation error"


class RangeError(PrbdimError, OverflowError):
    """A result is not representable in double precision (the float Bell
    evaluations); no command reaches it today."""
    exit_code, label = 5, "accuracy error"


class AccuracyError(PrbdimError, RuntimeError):
    """The Fourier route cannot certify its result (a grid too large, or a
    result outside [0, 1])."""
    exit_code, label = 5, "accuracy error"


class CeilingError(PrbdimError, RuntimeError):
    """The dimensioning target is unreachable below the configured PRB ceiling."""
    exit_code, label = 4, "infeasible"

    def __init__(self, message, ceiling=None, achieved_pi=None):
        super().__init__(message)
        self.ceiling = ceiling
        self.achieved_pi = achieved_pi


class InfeasibleSplitError(PrbdimError, ValueError):
    """Outdoor traffic requested but there are no roads to carry it."""
    exit_code, label = 4, "infeasible"


class ScenarioError(PrbdimError, ValueError):
    """A scenario document failed parsing or validation."""
    exit_code, label = 3, "scenario error"


def check_size(size: float, unit: str, what: str) -> None:
    """Refuse work of `size` elements beyond MAX_POINTS, named by `what`, before it runs."""
    if not size <= MAX_POINTS:
        raise DomainError(f"{what} asks for {size:.3g} {unit}, more than the limit of {MAX_POINTS}")


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


def read_threshold_list(m, negative: str = "nonnegative") -> np.ndarray:
    """Thresholds m as a nonempty one-dimensional int64 array, a scalar as
    one threshold; refused as :func:`read_thresholds` refuses them."""
    ms = np.atleast_1d(read_thresholds(m, negative=negative))
    if ms.size == 0:
        raise DomainError("thresholds must be nonempty and nonnegative")
    if ms.ndim > 1:
        raise DomainError(f"thresholds must be one-dimensional, not of shape {ms.shape}")
    return ms


def read_count(n, name: str, least: int) -> int:
    """n as an int, refused unless an integer (not a bool, nor a whole
    float) of at least `least`."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"{name} {n!r} must be an integer")
    if n < least:
        bound = "a non-negative integer" if least == 0 else f"at least {least}"
        raise DomainError(f"{name} {n} must be {bound}")
    return int(n)


def read_real(x, name: str, sign: str = "finite") -> float:
    """x as a float, refused unless a real number (not a bool) that is finite
    and, for sign "nonnegative" or "positive", of that sign."""
    if isinstance(x, bool) or not isinstance(x, Real):
        raise DomainError(f"{name} {x!r} must be a number")
    v = float(x)
    if math.isfinite(v) and (sign == "finite" or v > 0 or (sign == "nonnegative" and v == 0)):
        return v
    bound = "finite" if sign == "finite" else f"{sign} and finite"
    raise DomainError(f"{name} {v:g} must be {bound}")
