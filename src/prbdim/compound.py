"""Distribution engine for the weighted Poisson sum Lambda = sum(n * V_n).

* :func:`recursion_steps` - the one kernel: the stable recursion
  k*p_k = sum(j*w_j*p_{k-j}) (Panjer 1981), which carries the Bell
  coefficients H*B_k/k! (x_j = w_j*j!) in range, over the rows of a weight
  matrix and rescaled where exp(-total weight) underflows (Panjer & Willmot
  1986).  :func:`kernel_rows` reads its p and tail rows, :func:`pmf` and
  :func:`ccdf_bell` one row; every tail is its running CDF, never re-summed.
* :func:`ccdf_bell_literal` - the same sum evaluated through raw complete
  Bell polynomials (one :func:`bell_sequence`); small M, for validation.
* :func:`ccdf_integral` - Fourier inversion of the probability generating
  function: the trapezoid rule on equispaced points of the unit circle,
  one FFT pass with enough points that the Chernoff bound of
  :func:`default_cutoff` puts the aliased mass below 1e-12 before any work
  starts.

Plus the Bell-polynomial toolkit itself (recurrence and determinant forms,
exact on integer and Fraction inputs).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Integral, Rational
from typing import Sequence

import numpy as np

from .errors import AccuracyError, DomainError, RangeError, read_thresholds

# Raw Bell values overflow double precision near k ~ 25 for realistic
# weights; beyond that only the exact integer mode is meaningful.
_BELL_FLOAT_MAX = 25

# P(Lambda >= default_cutoff) is below CUTOFF_TAIL, which certifies every
# truncation; _MAX_POINTS bounds the Fourier grid (1 GiB per complex array).
CUTOFF_TAIL = 1e-12
_MAX_POINTS = 1 << 26

_HEAVY_WEIGHT = 600.0
_RESCALE = 1e200


@dataclass(frozen=True, eq=False)
class CompoundSpec:
    """Weight vector w_1..w_N: Poisson intensity of users needing n PRBs."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise DomainError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)) or w.min() < 0:
            raise DomainError("weights must be nonnegative and finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_levels(self) -> int:
        return int(self.weights.size)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def mean(self) -> float:
        n = np.arange(1, self.n_levels + 1)
        return float(n @ self.weights)

    def bell_arguments(self, k: int) -> list[float]:
        """x_j = w_j * j! for j = 1..k (zero beyond the populated levels)."""
        return [self.weights[j - 1] * math.factorial(j) if j <= self.n_levels else 0.0
                for j in range(1, k + 1)]


def recursion_steps(w: np.ndarray, k_max: int):
    """Yield (p_k, P(Lambda > k)) for k = 0..k_max, each a vector over the
    rows of the R x N weight matrix w, by k*p_k = sum_j j*w_j*p_{k-j} with
    a window of the last N values and a running CDF per row.

    A row of total weight above 600 starts from exp(600 - total), not an
    underflowing exp(-total), and is divided by 1e200 whenever its newest
    value passes 1e200 (Panjer & Willmot 1986); a log-scale per row undoes
    both.  A step grows a value at most sum_j j*w_j / k-fold, so the check
    catches every overflow.

    A row's values do not depend on the rows stacked with it: einsum sums a
    one-row matrix in another order than a stack, so a lone row runs with a
    zero row under it, whose values are dropped."""
    rows, n = w.shape
    if rows == 1:
        for p, tail in recursion_steps(np.vstack((w, np.zeros(n))), k_max):
            yield p[:1], tail[:1]
        return
    total = w.sum(axis=1)
    scale = np.maximum(total - _HEAVY_WEIGHT, 0.0)
    heavy = bool(scale.any())
    p = np.exp(scale - total)
    # a doubled ring: p_k sits at rows k % n and k % n + n, so at step k
    # rows k % n + i hold p_{k-n+i}, which lagged_jw row i multiplies
    ring = np.zeros((2 * n, rows))
    lagged_jw = np.ascontiguousarray((w * np.arange(1, n + 1)).T[::-1])
    cum = np.zeros(rows)
    for k in range(k_max + 1):
        at = k % n
        if k > 0:
            p = np.einsum("jr,jr->r", lagged_jw, ring[at:at + n]) / k
        ring[at] = p
        ring[at + n] = p
        cum += p
        if not heavy:
            yield p, np.maximum(1.0 - cum, 0.0)
            continue
        unscale = np.exp(-scale)
        yield p * unscale, np.maximum(1.0 - cum * unscale, 0.0)
        big = p > _RESCALE
        if big.any():
            ring[:, big] /= _RESCALE
            cum[big] /= _RESCALE
            scale[big] -= math.log(_RESCALE)


def kernel_rows(w: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows p_0..p_k_max and P(Lambda >= 0..k_max+1) of the R x N weight
    matrix w, R x (k_max+1) and R x (k_max+2), from one recursion pass."""
    p = np.empty((w.shape[0], k_max + 1))
    tails = np.ones((w.shape[0], k_max + 2))
    for k, (p_k, tail) in enumerate(recursion_steps(w, k_max)):
        p[:, k], tails[:, k + 1] = p_k, tail
    return p, tails


def _at_thresholds(m, tails_at):
    """tails_at(ms), ms the thresholds read from m made at least 1-D, shaped as m was given."""
    ms = read_thresholds(m)
    tails = tails_at(np.atleast_1d(ms)).reshape(ms.shape)
    return float(tails) if ms.ndim == 0 else tails


def pmf(spec: CompoundSpec, k_max: int) -> np.ndarray:
    """P(Lambda = k) for k = 0..k_max by the stable recursion."""
    return kernel_rows(spec.weights[None, :], int(read_thresholds(k_max, "k_max")))[0][0]


def default_cutoff(weights) -> int:
    """Smallest K whose Chernoff bound at s = 1/N puts P(Lambda >= K) below
    CUTOFF_TAIL, for a weight vector, or the largest over the rows of an
    R x N weight matrix."""
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    n = w.shape[1]
    growth = float((w * np.expm1(np.arange(1, n + 1) / n)).sum(axis=1).max())
    return math.ceil(n * (growth - math.log(CUTOFF_TAIL)))


def _is_exact(values: Sequence) -> bool:
    return all(isinstance(v, Rational) for v in values)


def bell_sequence(x: Sequence) -> list:
    """Complete exponential Bell polynomials B_0..B_k, B_p = B_p(x_1..x_p),
    by the recurrence B_{p+1} = sum_i C(p, i) B_{p-i} x_{i+1}.

    Integer (or Fraction) inputs are evaluated exactly at any k; float
    inputs are limited to k <= 25 and overflow raises instead of
    returning infinity.
    """
    xs = list(x)
    k = len(xs)
    exact = _is_exact(xs)
    if not exact and k > _BELL_FLOAT_MAX:
        raise RangeError(f"floating-point Bell values are unreliable beyond k={_BELL_FLOAT_MAX}")
    b = [1] if exact else [1.0]
    for p in range(k):
        val = sum(math.comb(p, i) * b[p - i] * xs[i] for i in range(p + 1))
        if not exact and math.isinf(val):
            raise RangeError(f"B_{p + 1} overflows double precision")
        b.append(val)
    return b


def bell_complete(x: Sequence) -> float | int:
    """Complete exponential Bell polynomial B_k(x_1..x_k); see :func:`bell_sequence`."""
    return bell_sequence(x)[-1]


def _det_bareiss(a: list[list], divide):
    """Fraction-free (Bareiss) elimination with row swaps, whose divisions
    by the previous pivot are exact: `divide` floors ints, divides Fractions."""
    n, sign, prev = len(a), 1, 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        for row in a[col + 1:]:
            lead = row[col]
            for c in range(col + 1, n):
                row[c] = divide(row[c] * top[col] - lead * top[c], prev)
        prev = top[col]
    return sign * a[-1][-1]


def bell_determinant(x: Sequence) -> float | int:
    """B_k via the determinant of the binomial-band matrix A_k.

    Independent of :func:`bell_complete`; used to cross-validate it.
    """
    xs = list(x)
    k = len(xs)
    if k == 0:
        return 1
    exact = _is_exact(xs)
    if not exact and k > _BELL_FLOAT_MAX:
        raise RangeError(f"floating-point Bell values are unreliable beyond k={_BELL_FLOAT_MAX}")

    def entry(i: int, j: int):
        # 1-based indices per the matrix definition
        if i <= j:
            return math.comb(k - i, j - i) * xs[j - i]
        if i == j + 1:
            return -1
        return 0

    a = [[entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)]
    if exact:
        if all(isinstance(v, Integral) for v in xs):
            return _det_bareiss([[int(v) for v in row] for row in a], operator.floordiv)
        from fractions import Fraction
        det = _det_bareiss([[Fraction(v) for v in row] for row in a], operator.truediv)
        return int(det) if det.denominator == 1 else det
    det = float(np.linalg.det(np.array(a, dtype=float)))
    if math.isinf(det):
        raise RangeError(f"B_{k} overflows double precision")
    return det


def ccdf_bell(spec: CompoundSpec, m):
    """P(Lambda >= m) = P(Lambda > m - 1) by the stable recursion, read off
    the kernel's running CDF in one pass, for an integer threshold (returns
    a float) or an integer array (returns an array)."""
    return _at_thresholds(m, lambda ms: kernel_rows(
        spec.weights[None, :], int(ms.max(initial=0)) - 1)[1][0][ms])


def ccdf_bell_literal(spec: CompoundSpec, m):
    """P(Lambda >= m) through raw Bell polynomials, for an int or an integer
    array as in :func:`ccdf_bell`; validation only.  Evaluates
    1 - H * sum_{k<m} B_k(x_1..x_k)/k! with x_j = w_j*j!, the partial sums
    of one :func:`bell_sequence`; m <= 26 by the floating-point Bell guard.
    """
    def tails_at(ms):
        top = int(ms.max(initial=0))
        acc = [0.0]
        for k, b in enumerate(bell_sequence(spec.bell_arguments(max(top - 1, 0)))[:top]):
            acc.append(acc[-1] + b / math.factorial(k))
        return (1.0 - math.exp(-spec.total_weight) * np.array(acc))[ms]
    return _at_thresholds(m, tails_at)


# The implementation behind ccdf_integral, kept under its own name because
# perfbench/tracer.py times the Fourier route by hooking this name.
def _ccdf_integral_batch(spec: CompoundSpec, m_values: np.ndarray) -> np.ndarray:
    if m_values.size == 0:
        return np.zeros(0)
    # Past default_cutoff the aliased mass is below CUTOFF_TAIL (Chernoff),
    # so one pass is certified before it runs.
    start = max(64, 4 * (int(m_values.max()) + spec.n_levels), default_cutoff(spec.weights))
    points = 1 << (start - 1).bit_length()
    if points > _MAX_POINTS:
        raise AccuracyError(f"Fourier inversion needs {points} points, "
                            f"more than the limit of {_MAX_POINTS}")
    # sum_n w_n e^{i n theta_j} at theta_j = 2*pi*j/points, as an inverse FFT
    jumps = np.zeros(points)
    jumps[1:spec.n_levels + 1] = spec.weights
    pgf = np.exp(points * np.fft.ifft(jumps) - spec.total_weight)
    # trapezoid rule = PMF aliased with period `points`
    aliased = np.fft.fft(pgf).real / points
    prob = 1.0 - np.concatenate(([0.0], np.cumsum(aliased)))[m_values]
    prob[m_values == 0] = 1.0
    bad = (prob < -1e-8) | (prob > 1.0 + 1e-8)
    if np.any(bad):
        overshoot = float(np.max(np.maximum(prob - 1.0, -prob)))
        raise AccuracyError("Fourier inversion left [0,1] beyond round-off",
                            estimate=prob, achieved_tol=overshoot)
    return np.clip(prob, 0.0, 1.0)


def ccdf_integral(spec: CompoundSpec, m):
    """P(Lambda >= m) by Fourier inversion on the unit circle, for an
    integer threshold (returns a float) or an integer array (returns an
    array of its shape).

    The trapezoid rule on L equispaced points of the unit circle gives,
    by one FFT, the PMF aliased with period L (p_k + p_{k+L} + ...), so
    the tail is off by at most P(Lambda >= L).  L is the smallest power of
    two >= max(64, 4*(max m + N), default_cutoff(spec.weights)), where the
    Chernoff bound puts that error below 1e-12.  Raises AccuracyError when
    L would exceed 2^26 points or the result leaves [0, 1].
    """
    return _at_thresholds(m, lambda ms: _ccdf_integral_batch(spec, ms))
