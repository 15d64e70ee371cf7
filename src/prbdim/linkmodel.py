"""Link budget, SINR, rate and the radial PRB demand n(x) as a step function.

Distances are in km with the 1 km reference absorbed into the propagation
constants; powers stay in dBm/dB until converted to linear inside
:func:`sinr_at`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

OUTDOOR = "outdoor"
INDOOR = "indoor"

# Relative slack when ceiling rate ratios: the ring radii satisfy
# n = C*/C(d_n) only to floating precision, and a boundary sample must
# land on level n, not n+1.
_CEIL_RTOL = 1e-9


@dataclass(frozen=True)
class LinkBudget:
    """Radio parameters feeding SINR and achievable rate.

    tx_power_dbm includes the antenna gain; noise_power_dbm is thermal noise
    plus receiver noise figure over the full band; path_loss_exp is the
    exponent 2b applied to distance in km.
    """

    tx_power_dbm: float
    noise_power_dbm: float
    prop_const_db: float
    prop_const_indoor_db: float
    path_loss_exp: float
    tx_antennas: int
    rx_antennas: int
    prb_bandwidth_hz: float
    cell_radius_km: float
    max_user_prbs: int = 256

    def __post_init__(self):
        for name in ("tx_power_dbm", "noise_power_dbm", "prop_const_db",
                     "prop_const_indoor_db", "path_loss_exp"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.path_loss_exp <= 2:
            raise DomainError("path_loss_exp must exceed 2")
        if self.tx_antennas < 1 or self.rx_antennas < 1:
            raise DomainError("antenna counts must be positive integers")
        if self.prb_bandwidth_hz <= 0:
            raise DomainError("prb_bandwidth_hz must be positive")
        if self.cell_radius_km <= 0:
            raise DomainError("cell_radius_km must be positive")
        if self.max_user_prbs < 1:
            raise DomainError("max_user_prbs must be at least 1")

    @property
    def spatial_layers(self) -> int:
        return min(self.tx_antennas, self.rx_antennas)

    def prop_const_for(self, environment: str) -> float:
        if environment == OUTDOOR:
            return self.prop_const_db
        if environment == INDOOR:
            return self.prop_const_indoor_db
        raise DomainError(f"unknown environment {environment!r}")


@dataclass(frozen=True)
class InterferenceModel:
    """Piecewise-constant noise-rise margins over concentric regions.

    Region k covers the half-open annulus (breakpoint_{k-1}, breakpoint_k];
    a single margin with no breakpoints is the degenerate one-region model.
    """

    margins_db: tuple[float, ...]
    breakpoints_km: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "margins_db", tuple(float(m) for m in self.margins_db))
        object.__setattr__(self, "breakpoints_km", tuple(float(b) for b in self.breakpoints_km))
        if len(self.margins_db) != len(self.breakpoints_km) + 1:
            raise DomainError("need exactly one margin per region")
        if any(m < 0 for m in self.margins_db):
            raise DomainError("margins_db must be nonnegative")
        bps = self.breakpoints_km
        if any(b <= 0 for b in bps) or any(b >= c for b, c in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be positive and strictly increasing")

    @classmethod
    def noise_limited(cls) -> "InterferenceModel":
        return cls(margins_db=(0.0,))

    @classmethod
    def three_region(cls, center_db: float, middle_db: float, edge_db: float,
                     cell_radius_km: float) -> "InterferenceModel":
        """Default cell-center/middle/edge split at R/3 and 2R/3."""
        r = cell_radius_km
        return cls(margins_db=(center_db, middle_db, edge_db),
                   breakpoints_km=(r / 3.0, 2.0 * r / 3.0))

    def margin_db_at(self, x_km: float) -> float:
        return self.margins_db[bisect_left(self.breakpoints_km, x_km)]

    def regions(self, cell_radius_km: float) -> list[tuple[float, float, float]]:
        """Half-open (lo, hi] regions with their margins, tiling (0, R]."""
        if self.breakpoints_km and self.breakpoints_km[-1] >= cell_radius_km:
            raise DomainError("breakpoints must lie strictly inside the cell")
        bounds = (0.0,) + self.breakpoints_km + (cell_radius_km,)
        return [(lo, hi, m) for lo, hi, m in zip(bounds, bounds[1:], self.margins_db)]


@dataclass(frozen=True)
class Service:
    """Single service class with its required transmission rate in bit/s."""

    rate_bps: float

    def __post_init__(self):
        if not (self.rate_bps > 0 and math.isfinite(self.rate_bps)):
            raise DomainError("rate_bps must be positive and finite")


# StepFunction cells: each is widened by this fraction of the span on both
# sides, far beyond the rounding of x*cells/span, and there are at most
# _MAX_CELLS of them.
_CELL_PAD = 1e-9
_MAX_CELLS = 1 << 14


class StepFunction:
    """f(x) = values[k] on piece k, the half-open (bounds[k-1], bounds[k]],
    where piece 0 is everything up to bounds[0] and piece len(bounds)
    everything beyond bounds[-1]; the bounds rise strictly inside [0, span].
    A point exactly on a bound belongs to the inner piece.

    The piece of x is the number of bounds below it, as
    ``np.searchsorted(bounds, x)`` gives it, read from a table instead of
    by binary search. The table has G uniform cells over [0, span], each
    widened by 1e-9*span, and holds the count of bounds below each cell and
    the bounds inside it; x adds the inside bounds that it exceeds. G is
    the first power of two, up to 2^14, with at most one bound in a cell,
    so the cost per point does not grow with the number of bounds. Every x
    is finite and below 2^40 spans.
    """

    def __init__(self, bounds, values, span: float):
        self.bounds = bounds = np.asarray(bounds, dtype=float)
        self.values = np.asarray(values)
        self.span = span
        pad = _CELL_PAD * span
        if self.values.shape != (bounds.size + 1,):
            raise DomainError("need one step value more than bounds")
        if np.any(bounds[1:] <= bounds[:-1]):
            raise DomainError("step bounds must be strictly increasing")
        if bounds.size and not -pad <= bounds[0] <= bounds[-1] <= span + pad:
            raise DomainError(f"step bounds must lie in [0, {span}]")
        cells = 1
        while True:
            edges = np.arange(cells + 1) * (span / cells)
            below = np.searchsorted(bounds, edges[:-1] - pad)
            inside = np.searchsorted(bounds, edges[1:] + pad, "right") - below
            if cells == _MAX_CELLS or inside.max() <= 1:
                break
            cells *= 2
        self._scale = cells / span
        self._below = below
        padded = np.append(bounds, np.inf)
        self._inside = [np.where(j < inside, padded[np.minimum(below + j, bounds.size)], np.inf)
                        for j in range(int(inside.max()))]

    def pieces_at(self, x) -> np.ndarray:
        """Index of the piece holding each x."""
        x = np.asarray(x, dtype=float)
        cell = (x * self._scale).astype(np.intp)
        piece = self._below.take(cell, mode="clip")
        for bound in self._inside:
            piece += x > bound.take(cell, mode="clip")
        return piece

    def __call__(self, x) -> np.ndarray:
        return self.values.take(self.pieces_at(x))

    def clip(self, region: tuple[float, float] | None) -> StepFunction:
        """f(x) for x inside the region (lo, hi] and 0 outside it; with no
        region, f itself."""
        if region is None:
            return self
        lo, hi = region
        bounds = np.unique(np.concatenate((self.bounds, [lo, hi])))
        # piece k lies in (bounds[k-1], bounds[k]]; the end pieces are outside
        values = np.zeros(bounds.size + 1, dtype=np.int64)
        inside = (bounds[:-1] >= lo) & (bounds[1:] <= hi)
        piece = np.searchsorted(self.bounds, bounds[:-1], "right")
        values[1:-1] = np.where(inside, self.values[piece], 0)
        return StepFunction(bounds, values, self.span)


def _ceil_ratio(value: float) -> int:
    """Ceiling with relative slack so values a hair above an integer stay put."""
    floor = math.floor(value)
    if value - floor <= _CEIL_RTOL * max(1.0, abs(value)):
        return max(int(floor), 1)
    return int(floor) + 1


def sinr_at(lb: LinkBudget, im: InterferenceModel, x_km: float, environment: str) -> float:
    """Linear SINR at distance x from the base station."""
    if not 0.0 < x_km <= lb.cell_radius_km:
        raise DomainError(f"x={x_km} outside (0, {lb.cell_radius_km}]")
    db = (lb.tx_power_dbm
          - lb.prop_const_for(environment)
          - 10.0 * lb.path_loss_exp * math.log10(x_km)
          - lb.noise_power_dbm
          - im.margin_db_at(x_km))
    return 10.0 ** (db / 10.0)


def throughput_at(lb: LinkBudget, im: InterferenceModel, x_km: float, environment: str) -> float:
    """Achievable rate in bit/s: MIMO Shannon bound over one PRB."""
    sinr = sinr_at(lb, im, x_km, environment)
    return lb.spatial_layers * lb.prb_bandwidth_hz * math.log2(1.0 + sinr)


def max_prbs_per_user(lb: LinkBudget, im: InterferenceModel, svc: Service,
                      environment: str) -> int:
    """Demand cap N: cell-edge need (edge margin applies at x=R) or the operator cap."""
    edge_rate = throughput_at(lb, im, lb.cell_radius_km, environment)
    return min(lb.max_user_prbs, _ceil_ratio(svc.rate_bps / edge_rate))


def prbs_required(lb: LinkBudget, im: InterferenceModel, svc: Service,
                  x_km: float, environment: str) -> int:
    """PRBs a user at distance x needs to reach the service rate, capped at N."""
    n = _ceil_ratio(svc.rate_bps / throughput_at(lb, im, x_km, environment))
    return min(n, max_prbs_per_user(lb, im, svc, environment))


def _level_boundary(lb: LinkBudget, svc: Service, environment: str,
                    margin_db: float, n: int) -> float:
    """Outer radius of level n under one fixed margin (the d_n closed form)."""
    if n == 0:
        return 0.0
    noise_factor_db = (lb.prop_const_for(environment) + lb.noise_power_dbm
                       + margin_db - lb.tx_power_dbm)
    fac = 10.0 ** (noise_factor_db / 10.0)
    excess = 2.0 ** (svc.rate_bps / (n * lb.spatial_layers * lb.prb_bandwidth_hz)) - 1.0
    return (fac * excess) ** (-1.0 / lb.path_loss_exp)


def ring_radii(lb: LinkBudget, im: InterferenceModel, svc: Service,
               environment: str) -> StepFunction:
    """n(x) under the piecewise-constant margin model, as a step function
    over (0, R] whose values are the levels 1..N.

    Inside each interference region the level-n set is the closed-form
    annulus (d_{n-1}, d_n] computed with that region's margin, intersected
    with the region; level N absorbs everything beyond d_{N-1}. Walking
    outward, each such annulus is one piece, except that a piece on the
    level of the piece before it (across a region boundary) extends that
    piece, and the outermost piece ends at R. One level may own several
    pieces; neighbouring pieces never share one.
    """
    n_cap = max_prbs_per_user(lb, im, svc, environment)
    uppers: list[float] = []
    levels: list[int] = []
    for lo, hi, margin_db in im.regions(lb.cell_radius_km):
        d_prev = 0.0
        for n in range(1, n_cap + 1):
            d_n = math.inf if n == n_cap else _level_boundary(lb, svc, environment, margin_db, n)
            b = min(d_n, hi)
            if b > max(d_prev, lo):
                if levels and levels[-1] == n:
                    uppers[-1] = b
                else:
                    uppers.append(b)
                    levels.append(n)
            d_prev = d_n
            if d_prev >= hi:
                break
    return StepFunction(uppers[:-1], levels, lb.cell_radius_km)
