"""Link budget, SINR, rate, the radial PRB demand n(x) as a step function,
and the cell they describe, the :class:`Scenario` every evaluation path takes.

Distances are in km with the 1 km reference absorbed into the propagation
constants; powers stay in dBm/dB until converted to linear inside
:func:`sinr_at`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (DomainError, InfeasibleSplitError, PrecisionError, read_array, read_choice,
                     read_count, read_fields, read_fraction, read_real, read_tuple, reading)
from .geometry import GeometryParams, PAPER, SAMPLERS, mean_users

OUTDOOR = "outdoor"
INDOOR = "indoor"
# the link-budget field of each environment's propagation constant
_PROP_KEYS = {OUTDOOR: "prop_const_db", INDOOR: "prop_const_indoor_db"}

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

    tx_power_dbm: float = reading(read_real)
    noise_power_dbm: float = reading(read_real)
    prop_const_db: float = reading(read_real)
    prop_const_indoor_db: float = reading(read_real)
    path_loss_exp: float = reading(read_real)
    tx_antennas: int = reading(read_count, 1)
    rx_antennas: int = reading(read_count, 1)
    prb_bandwidth_hz: float = reading(read_real, "positive")
    cell_radius_km: float = reading(read_real, "positive")
    max_user_prbs: int = reading(read_count, 1, default=256)

    def __post_init__(self):
        read_fields(self)
        if self.path_loss_exp <= 2:
            raise DomainError("path_loss_exp must exceed 2")

    @property
    def spatial_layers(self) -> int:
        return min(self.tx_antennas, self.rx_antennas)

    def prop_const_for(self, environment: str) -> float:
        return getattr(self, _PROP_KEYS[read_choice(environment, "environment", _PROP_KEYS)])


def default_breakpoints(cell_radius_km: float) -> tuple[float, float]:
    """The default cell-center/middle/edge split, at R/3 and 2R/3."""
    r = cell_radius_km
    return r / 3.0, 2.0 * r / 3.0


@dataclass(frozen=True)
class InterferenceModel:
    """Piecewise-constant noise-rise margins over concentric regions.

    Region k covers the half-open annulus (breakpoint_{k-1}, breakpoint_k];
    a single margin with no breakpoints is the degenerate one-region model.
    """

    margins_db: tuple[float, ...] = reading(read_tuple, "nonnegative")
    breakpoints_km: tuple[float, ...] = reading(read_tuple, "positive", default=())

    def __post_init__(self):
        read_fields(self)
        margins, bps = self.margins_db, self.breakpoints_km
        if len(margins) != len(bps) + 1:
            raise DomainError(f"{len(margins)} margins need {len(margins) - 1} breakpoints")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise DomainError("breakpoints_km must be strictly increasing")

    @classmethod
    def noise_limited(cls) -> "InterferenceModel":
        return cls(margins_db=(0.0,))

    @classmethod
    def three_region(cls, center_db: float, middle_db: float, edge_db: float,
                     cell_radius_km: float) -> "InterferenceModel":
        """Three margins over the default split (:func:`default_breakpoints`)."""
        return cls(margins_db=(center_db, middle_db, edge_db),
                   breakpoints_km=default_breakpoints(cell_radius_km))

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

    rate_bps: float = reading(read_real, "positive")
    __post_init__ = read_fields


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
        self.bounds = bounds = read_array(bounds, "bounds")
        self.values = read_array(values, "values", "nonnegative", integer=True)
        self.span = span = read_real(span, "span", "positive")
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


def _ceil_ratio(rate_bps: float, throughput_bps: float, environment: str) -> int:
    """Ceiling of rate/throughput with relative slack so values a hair above an integer stay put."""
    if not (value := rate_bps / throughput_bps if throughput_bps else math.inf) < math.inf:
        raise DomainError(f"{environment} PRB need {rate_bps:.6g} / {throughput_bps:.6g} bit/s is "
                          "beyond double precision; it is made of rate_kbps, prb_bandwidth_khz, "
                          "the antennas and the SINR")
    floor = math.floor(value)
    if value - floor <= _CEIL_RTOL * max(1.0, abs(value)):
        return max(int(floor), 1)
    return int(floor) + 1


def sinr_at(lb: LinkBudget, im: InterferenceModel, x_km: float, environment: str) -> float:
    """Linear SINR at distance x from the base station, refused where it
    overflows or where 1 + SINR rounds to 1, so that every rate is finite and positive."""
    if not 0.0 < read_real(x_km, "x_km") <= lb.cell_radius_km:
        raise DomainError(f"x={x_km} outside (0, {lb.cell_radius_km}]")
    db = (lb.tx_power_dbm
          - lb.prop_const_for(environment)
          - 10.0 * lb.path_loss_exp * math.log10(x_km)
          - lb.noise_power_dbm
          - im.margin_db_at(x_km))
    with suppress(OverflowError):
        if 1.0 < 1.0 + (sinr := 10.0 ** (db / 10.0)) < math.inf:
            return sinr
    where = "the cell edge" if x_km == lb.cell_radius_km else f"{x_km:g} km"
    raise DomainError(f"{environment} SINR {db:.6g} dB at {where} is beyond double precision; "
                      f"it is made of tx_power_dbm, {_PROP_KEYS[environment]}, path_loss_exp, "
                      "the distance, noise_power_dbm and margins_db")


def throughput_at(lb: LinkBudget, im: InterferenceModel, x_km: float, environment: str) -> float:
    """Achievable rate in bit/s: MIMO Shannon bound over one PRB."""
    sinr = sinr_at(lb, im, x_km, environment)
    return lb.spatial_layers * lb.prb_bandwidth_hz * math.log2(1.0 + sinr)


def max_prbs_per_user(lb: LinkBudget, im: InterferenceModel, svc: Service,
                      environment: str) -> int:
    """Demand cap N: cell-edge need (edge margin applies at x=R) or the operator cap."""
    edge_rate = throughput_at(lb, im, lb.cell_radius_km, environment)
    return min(lb.max_user_prbs, _ceil_ratio(svc.rate_bps, edge_rate, environment))


def prbs_required(lb: LinkBudget, im: InterferenceModel, svc: Service,
                  x_km: float, environment: str) -> int:
    """PRBs a user at distance x needs to reach the service rate, capped at N."""
    n = _ceil_ratio(svc.rate_bps, throughput_at(lb, im, x_km, environment), environment)
    return min(n, max_prbs_per_user(lb, im, svc, environment))


def _level_boundary(lb: LinkBudget, svc: Service, environment: str,
                    margin_db: float, n: int) -> float:
    """Outer radius of level n under one fixed margin (the d_n closed form)."""
    if n == 0:
        return 0.0
    noise_factor_db = (lb.prop_const_for(environment) + lb.noise_power_dbm
                       + margin_db - lb.tx_power_dbm)
    exponent = svc.rate_bps / (n * lb.spatial_layers * lb.prb_bandwidth_hz)
    try:
        fac = 10.0 ** (noise_factor_db / 10.0)
        excess = 2.0 ** exponent - 1.0
        return (fac * excess) ** (-1.0 / lb.path_loss_exp)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"{environment} level {n}: rate exponent {exponent:.6g} or noise factor "
                          f"{noise_factor_db:.6g} dB is beyond double precision; they are made of "
                          f"rate_kbps, prb_bandwidth_khz, the antennas, tx_power_dbm, "
                          f"{_PROP_KEYS[environment]}, noise_power_dbm and margins_db") from None


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


@dataclass(frozen=True)
class Scenario:
    """Everything needed to evaluate one cell: radio, demand, geometry, MC.

    `region_km` optionally restricts the evaluated population to an
    annulus (lo, hi].
    """

    link_budget: LinkBudget
    interference: InterferenceModel
    service: Service
    geometry: GeometryParams
    sampler: str = reading(read_choice, SAMPLERS, default=PAPER)
    seed: int = reading(read_count, 0, default=0)
    mc_realizations: int = reading(read_count, 1, name="realizations", default=500)
    region_km: tuple[float, float] | None = reading(read_tuple, default=None)

    def __post_init__(self):
        read_fields(self)
        r = self.link_budget.cell_radius_km
        self.interference.regions(r)  # its breakpoints lie inside the cell
        if (region := self.region_km) is not None and (
                len(region) != 2 or not 0.0 <= region[0] < region[1] <= r * (1 + 1e-12)):
            raise DomainError(f"region_km {region} must be a pair (lo, hi] inside (0, {r}]")

    @property
    def cell_radius_km(self) -> float:
        return self.link_budget.cell_radius_km

    @property
    def mean_users(self) -> float:
        return mean_users(self.geometry, self.cell_radius_km)

    @cached_property
    def n_levels(self) -> int:
        """N, the width of the weight vectors: the larger of the two
        environments' demand caps, which `ring_radii` caps the levels at."""
        return max(max_prbs_per_user(self.link_budget, self.interference, self.service, env)
                   for env in (OUTDOOR, INDOOR))

    @cached_property
    def demand_steps(self) -> tuple[StepFunction, StepFunction]:
        """(outdoor, indoor) PRB demand n(x) of a user at distance x: its
        level inside `region_km`, 0 outside it; with no region, every
        user's level. Computed once per scenario."""
        return tuple(ring_radii(self.link_budget, self.interference, self.service, env)
                     .clip(self.region_km) for env in (OUTDOOR, INDOOR))

    def with_geometry(self, geometry: GeometryParams) -> Scenario:
        """This scenario with other intensities, sharing its demand step
        functions (they depend on the radio setup, service and region only)."""
        other = replace(self, geometry=geometry)
        other.__dict__["demand_steps"] = self.demand_steps  # where cached_property keeps it
        return other


def ppp_equivalent(scn: Scenario) -> Scenario:
    """Outdoor-PPP baseline: same printed intensity, outdoor propagation.

    Reuses the indoor (area PPP) machinery with kappa set to lambda*delta
    and the indoor propagation constant replaced by the outdoor one.
    """
    lam_delta = scn.geometry.road_intensity * scn.geometry.user_intensity_linear
    gp = GeometryParams(road_intensity=0.0, user_intensity_linear=0.0,
                        user_intensity_area=lam_delta + scn.geometry.user_intensity_area)
    lb = replace(scn.link_budget, prop_const_indoor_db=scn.link_budget.prop_const_db)
    return replace(scn, link_budget=lb, geometry=gp)


def intensities_from_throughput(throughput_bps: float, rate_bps: float,
                                cell_radius_km: float, road_intensity: float,
                                outdoor_fraction: float) -> GeometryParams:
    """The intensities (lambda, delta, kappa) of a forecast cell throughput.

    The forecast mean user count is u = tau/C*; a fraction f of it rides the
    roads (delta = f*u/(lambda*pi*R^2), printed intensity convention) and the
    rest is indoor area intensity kappa = (1-f)*u/(pi*R^2).
    """
    throughput_bps = read_real(throughput_bps, "throughput_bps", "positive")
    outdoor_fraction = read_fraction(outdoor_fraction, "outdoor_fraction")
    road_intensity = read_real(road_intensity, "road_intensity", "nonnegative")
    users = throughput_bps / read_real(rate_bps, "rate_bps", "positive")
    try:
        area = math.pi * read_real(cell_radius_km, "cell_radius_km", "positive") ** 2
        if outdoor_fraction > 0 and road_intensity == 0:
            raise InfeasibleSplitError("outdoor traffic requested with zero road intensity")
        delta = outdoor_fraction * users / (road_intensity * area) if outdoor_fraction > 0 else 0.0
        kappa = (1.0 - outdoor_fraction) * users / area
    except (OverflowError, ZeroDivisionError):  # the area, or its product, over- or underflows
        raise PrecisionError(f"cell_radius_km {cell_radius_km:g} squared, or times road_intensity "
                             f"{road_intensity:g}, is beyond double precision") from None
    if not delta + kappa < math.inf:  # an infinite user count, or a subnormal divisor
        raise PrecisionError(
            f"user intensity of throughput_bps {throughput_bps:g} at rate_bps {rate_bps:g} "
            f"over cell_radius_km {cell_radius_km:g}, road_intensity {road_intensity:g} and "
            f"outdoor_fraction {outdoor_fraction:g} is beyond double precision")
    return GeometryParams(road_intensity, delta, kappa)
