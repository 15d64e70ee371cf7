"""Distribution engine for the weighted Poisson sum Lambda = sum(n * V_n).

Three routes to the tail probability P(Lambda >= M):

* :func:`ccdf_bell` - the scalar reference for the batched production
  path :func:`prbdim.congestion.batched_curve`, via the stable weighted
  convolution recursion k*p_k = sum(j*w_j*p_{k-j}).  The recursion carries
  exactly the Bell-polynomial coefficients H*B_k/k! (with x_j = w_j*j!)
  but keeps every intermediate in [0, 1].
* :func:`ccdf_bell_literal` - the same sum evaluated through raw complete
  Bell polynomials; small M only, kept for identity validation.
* :func:`ccdf_integral` - Fourier inversion of the probability generating
  function: the trapezoid rule on equispaced points of the unit circle,
  one FFT per pass, with the point count doubled until two passes agree.
  It starts from |PGF| <= 1 instead of exp(-total weight), so it does not
  underflow at heavy load.

Plus the Bell-polynomial toolkit itself (recurrence and determinant forms,
exact on integer inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import AccuracyError, DomainError, RangeError

# Raw Bell values overflow double precision near k ~ 25 for realistic
# weights; beyond that only the exact integer mode is meaningful.
_BELL_FLOAT_MAX = 25


@dataclass(frozen=True)
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

    @property
    def variance(self) -> float:
        n = np.arange(1, self.n_levels + 1)
        return float((n * n) @ self.weights)

    def bell_arguments(self, k: int) -> list[float]:
        """x_j = w_j * j! for j = 1..k (zero beyond the populated levels)."""
        return [self.weights[j - 1] * math.factorial(j) if j <= self.n_levels else 0.0
                for j in range(1, k + 1)]


@dataclass(frozen=True)
class PmfTable:
    """P(Lambda = k) for k = 0..K plus the probability mass beyond K."""

    probabilities: np.ndarray
    tail: float

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(self.probabilities)

    @property
    def k_max(self) -> int:
        return int(self.probabilities.size - 1)

    def ccdf_curve(self, m_values: np.ndarray) -> np.ndarray:
        """P(Lambda >= m) for integer thresholds m <= k_max + 1."""
        m = np.asarray(m_values, dtype=np.int64)
        if m.size and int(m.max()) > self.k_max + 1:
            raise DomainError("threshold beyond the tabulated support")
        cum = np.concatenate(([0.0], self._cumulative))
        return np.maximum(1.0 - cum[np.maximum(m, 0)], 0.0)


def require_normal_start(p0: np.ndarray, total: np.ndarray) -> None:
    """Refuse start values p_0 = exp(-total weight) below the smallest
    normal double (total weight above about 708): every p_k scales with
    p_0, so a subnormal p_0 leaves the whole PMF inaccurate.
    """
    under = p0 < np.finfo(float).tiny
    if under.any():
        raise AccuracyError(f"PMF recursion underflows on {int(under.sum())} of {p0.size} road "
                            f"realizations: total weight up to {total.max():.6g}, limit about 708")


def pmf(spec: CompoundSpec, k_max: int) -> PmfTable:
    """Exact compound-Poisson PMF up to k_max by the stable recursion."""
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    w = spec.weights
    n = w.size
    jw = np.arange(1, n + 1) * w
    p = np.zeros(k_max + 1)
    total = spec.total_weight
    p[0] = math.exp(-total)
    require_normal_start(p[:1], np.array([total]))
    for k in range(1, k_max + 1):
        j = min(k, n)
        # sum over j of j*w_j*p_{k-j}
        p[k] = float(jw[:j] @ p[k - 1 :: -1][:j]) / k
    return PmfTable(probabilities=p, tail=max(float(1.0 - p.sum()), 0.0))


def default_cutoff(spec: CompoundSpec, tail_bound: float = 1e-12,
                   cap: int = 1_000_000) -> int:
    """Smallest K whose Chernoff bound at s = 1/N drops below tail_bound."""
    n = spec.n_levels
    levels = np.arange(1, n + 1)
    growth = float(spec.weights @ np.expm1(levels / n))
    k = math.ceil(n * (growth - math.log(tail_bound)))
    return min(max(k, 1), cap)


def _is_exact(values: Sequence) -> bool:
    return all(isinstance(v, (Integral, Fraction)) for v in values)


def bell_complete(x: Sequence) -> float | int:
    """Complete exponential Bell polynomial B_k(x_1..x_k) by recurrence.

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
    return b[k]


def _det_exact(a: list[list[Fraction]]) -> Fraction:
    """Fraction-based Gaussian elimination; exact for rational entries."""
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


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

    if exact:
        a = [[Fraction(entry(i, j)) for j in range(1, k + 1)] for i in range(1, k + 1)]
        det = _det_exact(a)
        return int(det) if det.denominator == 1 else det
    a = np.array([[float(entry(i, j)) for j in range(1, k + 1)] for i in range(1, k + 1)])
    det = float(np.linalg.det(a))
    if math.isinf(det):
        raise RangeError(f"B_{k} overflows double precision")
    return det


def ccdf_bell(spec: CompoundSpec, m: int) -> float:
    """P(Lambda >= m) = 1 - sum_{k<m} p_k by the stable recursion."""
    if m < 0:
        raise DomainError("threshold must be nonnegative")
    if m == 0:
        return 1.0
    table = pmf(spec, m - 1)
    return max(float(1.0 - table.probabilities.sum()), 0.0)


def ccdf_bell_literal(spec: CompoundSpec, m: int) -> float:
    """P(Lambda >= m) through raw Bell polynomials; validation only.

    Evaluates 1 - H * sum_{k<m} B_k(x_1..x_k)/k! with x_j = w_j*j!.
    Restricted to m <= 26 by the floating-point Bell guard.
    """
    if m < 0:
        raise DomainError("threshold must be nonnegative")
    h = math.exp(-spec.total_weight)
    acc = 0.0
    for k in range(m):
        acc += bell_complete(spec.bell_arguments(k)) / math.factorial(k)
    return 1.0 - h * acc


def _ccdf_integral_batch(spec: CompoundSpec, m_values: np.ndarray,
                         tol: float = 1e-9, max_refinements: int = 6) -> np.ndarray:
    m_values = np.asarray(m_values, dtype=np.int64)
    if m_values.size == 0:
        return np.zeros(0)
    if m_values.min() < 0:
        raise DomainError("thresholds must be nonnegative")

    def tails(points: int) -> np.ndarray:
        # sum_n w_n e^{i n theta_j} at theta_j = 2*pi*j/points, as an inverse FFT
        jumps = np.zeros(points)
        jumps[1:spec.n_levels + 1] = spec.weights
        pgf = np.exp(points * np.fft.ifft(jumps) - spec.total_weight)
        # trapezoid rule = PMF aliased with period `points`
        aliased = np.fft.fft(pgf).real / points
        return 1.0 - np.concatenate(([0.0], np.cumsum(aliased)))[m_values]

    # Past default_cutoff the aliased mass is below 1e-12 (Chernoff).  Without
    # it, mass near a multiple of 2L aliases into both passes alike and the
    # doubling check agrees on a wrong tail.
    start = max(64, 4 * (int(m_values.max()) + spec.n_levels), default_cutoff(spec))
    points = 1 << (start - 1).bit_length()
    prob = tails(points)
    err = math.inf
    for _ in range(max_refinements):
        points *= 2
        refined = tails(points)
        err = float(np.max(np.abs(refined - prob)))
        prob = refined
        if err <= tol:
            break
    else:
        raise AccuracyError(
            f"Fourier inversion stalled at |delta|={err:.3e} with {points} points",
            estimate=prob, achieved_tol=err)
    prob[m_values == 0] = 1.0
    bad = (prob < -1e-8) | (prob > 1.0 + 1e-8)
    if np.any(bad):
        overshoot = float(np.max(np.maximum(prob - 1.0, -prob)))
        raise AccuracyError("Fourier inversion left [0,1] beyond round-off",
                            estimate=prob, achieved_tol=overshoot)
    return np.clip(prob, 0.0, 1.0)


def ccdf_integral(spec: CompoundSpec, m: int, tol: float = 1e-9) -> float:
    """P(Lambda >= m) by Fourier inversion on the unit circle.

    The trapezoid rule on L equispaced points of the unit circle gives,
    by one FFT, the PMF aliased with period L (p_k + p_{k+L} + ...), so
    the tail is off by at most P(Lambda >= L).  L starts at the smallest
    power of two >= max(64, 4*(m+N), default_cutoff(spec)), where that
    bound is below 1e-12, and doubles until two passes agree within
    `tol`.  Raises AccuracyError (carrying the achieved estimate)
    if refinement stalls.
    """
    if m < 0:
        raise DomainError("threshold must be nonnegative")
    if m == 0:
        return 1.0
    return float(_ccdf_integral_batch(spec, np.array([m]), tol=tol)[0])
