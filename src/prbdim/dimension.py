"""Dimensioning: invert the congestion curve to the minimum PRB count for
a target congestion probability and a forecast cell throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .compound import default_cutoff
from .congestion import (CongestionCurve, Scenario, batched_curve, road_set,
                         weight_matrix)
from .errors import (AccuracyError, CeilingError, DomainError,
                     InfeasibleSplitError)
from .geometry import GeometryParams, PAPER
from .linkmodel import InterferenceModel, LinkBudget, Service

DEFAULT_M_CEILING = 4096

# Smallest target accepted: below it, 1 - cumsum of the PMF leaves too few
# correct digits of the tail.  Above it, Pi(default_cutoff) <= 1e-12 plus
# rounding stays below every target, so only m_ceiling can stop a search.
TARGET_FLOOR = 1e-8


def check_target(target: float) -> None:
    """Refuse a target congestion outside [TARGET_FLOOR, 1)."""
    if not TARGET_FLOOR <= target < 1.0:
        raise DomainError(f"target congestion {target:g} must lie in "
                          f"[floor {TARGET_FLOOR:g}, 1)")


def intensities_from_throughput(throughput_bps: float, rate_bps: float,
                                cell_radius_km: float, road_intensity: float,
                                outdoor_fraction: float) -> tuple[float, float]:
    """Derive (delta, kappa) from a forecast cell throughput.

    The forecast mean user count is u = tau/C*; a fraction f of it rides the
    roads (delta = f*u/(lambda*pi*R^2), printed intensity convention) and the
    rest is indoor area intensity kappa = (1-f)*u/(pi*R^2).
    """
    if throughput_bps <= 0:
        raise DomainError("throughput_bps must be positive")
    if not 0.0 <= outdoor_fraction <= 1.0:
        raise DomainError("outdoor_fraction must lie in [0, 1]")
    users = throughput_bps / rate_bps
    area = math.pi * cell_radius_km ** 2
    if outdoor_fraction > 0:
        if road_intensity <= 0:
            raise InfeasibleSplitError(
                "outdoor traffic requested with zero road intensity")
        delta = outdoor_fraction * users / (road_intensity * area)
    else:
        delta = 0.0
    kappa = (1.0 - outdoor_fraction) * users / area
    return delta, kappa


@dataclass(frozen=True)
class DimensionQuery:
    """A dimensioning question: radio setup + forecast + target congestion."""

    target_congestion: float
    throughput_bps: float
    link_budget: LinkBudget
    interference: InterferenceModel
    service: Service
    road_intensity: float
    outdoor_fraction: float = 1.0
    sampler: str = PAPER
    seed: int = 0
    mc_realizations: int = 500
    m_ceiling: int = DEFAULT_M_CEILING
    region_km: tuple[float, float] | None = None

    def __post_init__(self):
        check_target(self.target_congestion)
        if self.throughput_bps <= 0:
            raise DomainError("throughput_bps must be positive")
        if self.m_ceiling < 1:
            raise DomainError("m_ceiling must be positive")

    def build_scenario(self) -> Scenario:
        delta, kappa = intensities_from_throughput(
            self.throughput_bps, self.service.rate_bps,
            self.link_budget.cell_radius_km, self.road_intensity,
            self.outdoor_fraction)
        gp = GeometryParams(road_intensity=self.road_intensity,
                            user_intensity_linear=delta,
                            user_intensity_area=kappa)
        return Scenario(link_budget=self.link_budget,
                        interference=self.interference,
                        service=self.service, geometry=gp,
                        sampler=self.sampler, seed=self.seed,
                        mc_realizations=self.mc_realizations,
                        outdoor_fraction=self.outdoor_fraction,
                        region_km=self.region_km)


@dataclass(frozen=True)
class DimensionReport:
    """Solver output: minimal M with Pi(M) <= target, plus its bracket."""

    required_m: int
    target: float
    pi_at_m: float
    pi_before: float
    stderr_at_m: float
    stderr_before: float
    curve: CongestionCurve
    throughput_bps: float | None = None
    road_intensity: float | None = None


def dimension_scenario(scn: Scenario, target: float,
                       m_ceiling: int = DEFAULT_M_CEILING) -> DimensionReport:
    """Invert the averaged congestion curve for a prepared scenario.

    One fixed road-realization set backs every threshold (common random
    numbers), so the precomputed curve is exactly monotone and the returned
    bracket is meaningful.  One pass runs to K = min(m_ceiling,
    default_cutoff(W)), where every realization's tail is below 1e-12 and
    so below any target at or above TARGET_FLOOR; binary search finds M.
    """
    check_target(target)
    weights = weight_matrix(scn, road_set(scn))
    k = min(m_ceiling, default_cutoff(weights))
    curve = batched_curve(weights, np.arange(0, k + 1))
    pi, stderr = curve.pi, curve.stderr
    if pi[-1] > target:
        raise CeilingError(
            f"congestion {pi[-1]:.6g} still above target {target:.6g} at "
            f"the M ceiling {m_ceiling}", ceiling=m_ceiling,
            achieved_pi=float(pi[-1]))
    required = int(np.searchsorted(-pi, -target, side="left"))
    before = required - 1
    return DimensionReport(
        required_m=required, target=target,
        pi_at_m=float(pi[required]),
        pi_before=float(pi[before]) if before >= 0 else 1.0,
        stderr_at_m=float(stderr[required]),
        stderr_before=float(stderr[before]) if before >= 0 else 0.0,
        curve=curve)


def dimension_prbs(query: DimensionQuery) -> DimensionReport:
    """Dimension a forecast: build the scenario, then invert its curve."""
    report = dimension_scenario(query.build_scenario(), query.target_congestion,
                                query.m_ceiling)
    return replace(report, throughput_bps=query.throughput_bps,
                   road_intensity=query.road_intensity)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a dimensioning sweep; `error` set when it failed."""

    throughput_bps: float
    road_intensity: float
    target: float
    report: DimensionReport | None
    error: str | None = None


def sweep(query: DimensionQuery, throughput_grid_bps=None,
          road_intensity_grid=None) -> list[SweepPoint]:
    """Dimension every (tau, lambda) grid point; failures do not abort.

    Points share the query's base seed, so points with equal road intensity
    redraw identical road realizations.
    """
    taus = list(throughput_grid_bps) if throughput_grid_bps is not None else [query.throughput_bps]
    lams = list(road_intensity_grid) if road_intensity_grid is not None else [query.road_intensity]
    if not taus or not lams:
        raise DomainError("sweep grids must be nonempty")
    points = []
    for tau in taus:
        for lam in lams:
            sub = replace(query, throughput_bps=float(tau), road_intensity=float(lam))
            try:
                report = dimension_prbs(sub)
                points.append(SweepPoint(float(tau), float(lam),
                                         query.target_congestion, report))
            except (AccuracyError, CeilingError, InfeasibleSplitError) as exc:
                points.append(SweepPoint(float(tau), float(lam),
                                         query.target_congestion, None, str(exc)))
    return points
