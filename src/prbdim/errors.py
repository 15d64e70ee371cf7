"""Exception types with their exit codes, the size bound, the input readers and reader fields."""

import math
import sys
from dataclasses import MISSING, field, fields
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


class PrecisionError(DomainError):
    """Inputs, each in its domain, whose result lies beyond double precision; a
    caller that read them in other units names them as it was given them."""


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
        raise DomainError(f"{what} asks for {as_float(size):.3g} {unit}, "
                          f"more than the limit of {MAX_POINTS}")


def read_array(x, name: str, sign: str = "finite", integer: bool = False,
               ndim: tuple | None = (1,)) -> np.ndarray:
    """x as a read-only float64 (int64 for `integer`) copy, refused unless numbers, not bools,
    of a dimension count in `ndim` (None: any), each finite, whole for `integer` and, for sign
    "nonnegative" or "positive", of that sign; the refusal names the first bad entry.  numpy
    reads a list that mixes bools with numbers as numbers, so such a list is accepted."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged list
        raise DomainError(f"{name} {x!r} must be an array of numbers") from None
    if a.dtype.kind not in "iuf":
        if bad := [e for e in a.ravel().tolist() if isinstance(e, bool) or not isinstance(e, Real)]:
            raise DomainError(f"{name} {bad[0]!r} must be a number")
        a = np.vectorize(as_float, otypes=[float])(a)
    if ndim is not None and a.ndim not in ndim:
        raise DomainError(f"{name} must be one-dimensional, not of shape {a.shape}")
    with np.errstate(invalid="ignore"):
        out = a.astype(np.int64 if integer else float)
    if integer and not np.array_equal(out, a):
        raise DomainError(f"{name}: {a[out != a][0]} is not a whole number")
    wrong = ~np.isfinite(out) | {"nonnegative": out < 0, "positive": out <= 0}.get(sign, False)
    if wrong.any():
        bound = "finite" if sign == "finite" else f"{sign} and finite"
        raise DomainError(f"{name} must be {sign}" if integer else
                          f"{name} {out[wrong][0]:g} must be {bound}")
    out.flags.writeable = False
    return out


def read_threshold_list(m) -> np.ndarray:
    """Thresholds m, a scalar as one, by :func:`read_array`; nonempty and nonnegative."""
    ms = np.atleast_1d(read_array(m, "thresholds", integer=True, ndim=(0, 1)))
    if not ms.size or ms.min() < 0:
        raise DomainError("thresholds must be nonempty and nonnegative")
    return ms


def read_count(n, name: str, least: int) -> int:
    """n as an int, refused unless an integer (not a bool, nor a whole
    float) of at least `least` that Python can write as text."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"{name} {n!r} must be an integer")
    try:
        str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise DomainError(f"{name} has more than {sys.get_int_max_str_digits()} digits, "
                          "too many to write") from None
    if n < least:
        bound = "a non-negative integer" if least == 0 else f"at least {least}"
        raise DomainError(f"{name} {n} must be {bound}")
    return int(n)


def read_real(x, name: str, sign: str = "finite") -> float:
    """x as a float, refused unless a real number (not a bool) that :func:`read_array` accepts."""
    if isinstance(x, bool) or not isinstance(x, Real):
        raise DomainError(f"{name} {x!r} must be a number")
    return float(read_array(x, name, sign, ndim=None))


SI_UNITS = {"khz": (1e3, "Hz"), "kbps": (1e3, "bit/s"), "mbps": (1e6, "bit/s")}


def read_si(x, name: str) -> float:
    """x in the unit its key or option `name` ends in (an SI_UNITS key), read by :func:`read_real`
    as positive, in SI units; refused, naming x as given, where those overflow."""
    scale, unit = SI_UNITS[name.rsplit("_", 1)[1]]
    if (si := read_real(x, name, "positive") * scale) == math.inf:
        raise DomainError(f"{name} {as_float(x):g} is beyond double precision in {unit}")
    return si


def read_fraction(x, name: str) -> float:
    """x as a float in [0, 1], read by :func:`read_real`."""
    if not (f := read_real(x, name, "nonnegative")) <= 1.0:
        raise DomainError(f"{name} {f:g} must lie in [0, 1]")
    return f


def read_choice(x, name: str, choices) -> str:
    """x, refused unless a string among `choices`."""
    if not (isinstance(x, str) and x in choices):
        raise DomainError(f"unknown {name} {x!r}")
    return x


def read_tuple(x, name: str, sign: str = "finite") -> tuple[float, ...]:
    """x as a tuple of floats, read by :func:`read_array`."""
    return tuple(read_array(x, name, sign).tolist())


def reading(reader, *args, name: str | None = None, default=MISSING, **metadata):
    """A record field that :func:`read_fields` reads as reader(value, name or its name, *args),
    with `metadata`, whose `absent` (what an omitted value is) is `default` unless given."""
    metadata = {"read": (reader, name, args), "absent": default, **metadata}
    return field(default=default, metadata=metadata)


def read_fields(record) -> None:
    """Store in each `reading` field its reader's result; a None stays where `absent` is None."""
    for f in fields(record):
        value = getattr(record, f.name)
        if "read" in f.metadata and not (value is None and f.metadata["absent"] is None):
            reader, name, args = f.metadata["read"]
            object.__setattr__(record, f.name, reader(value, name or f.name, *args))


def as_float(x) -> float:
    """float(x) of a real number, or an infinity for one beyond double range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
