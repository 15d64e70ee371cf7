"""Dimensioning: invert the congestion curve to the minimum PRB count for
a target congestion probability and a forecast cell throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import DEFAULT_M_CEILING
from .congestion import CongestionCurve, Scenario, shared_road_curves
from .errors import CeilingError, DomainError, InfeasibleSplitError

# Smallest target accepted: below it, 1 - (the kernel's running CDF) leaves
# too few correct digits of the tail.  Above it, Pi(default_cutoff) <= 1e-12
# plus rounding stays below every target, so only m_ceiling can stop a search.
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
    if not (throughput_bps > 0 and math.isfinite(throughput_bps)):
        raise DomainError(f"throughput_bps {throughput_bps:g} must be positive and finite")
    if not 0.0 <= outdoor_fraction <= 1.0:
        raise DomainError(f"outdoor_fraction {outdoor_fraction:g} must lie in [0, 1]")
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
    """A dimensioning question: a cell, a forecast throughput split between
    its roads and indoors, and a target congestion. The user intensities
    of `scenario.geometry` are replaced by the forecast's."""

    scenario: Scenario
    target_congestion: float
    throughput_bps: float
    outdoor_fraction: float = 1.0
    m_ceiling: int = DEFAULT_M_CEILING

    def __post_init__(self):
        check_target(self.target_congestion)
        if not (self.throughput_bps > 0 and math.isfinite(self.throughput_bps)):
            raise DomainError(f"throughput_bps {self.throughput_bps:g} must be positive and finite")
        if self.m_ceiling < 1:
            raise DomainError(f"m_ceiling {self.m_ceiling} must be positive")

    def build_scenario(self) -> Scenario:
        """The scenario with the forecast's intensities, sharing its demand
        step functions."""
        scn = self.scenario
        delta, kappa = intensities_from_throughput(
            self.throughput_bps, scn.service.rate_bps, scn.cell_radius_km,
            scn.geometry.road_intensity, self.outdoor_fraction)
        return scn.with_geometry(replace(scn.geometry, user_intensity_linear=delta,
                                         user_intensity_area=kappa))


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


def _invert(curve: CongestionCurve, target: float, m_ceiling: int) -> DimensionReport:
    """Smallest M with Pi(M) <= target on a curve that ends at K, or
    CeilingError when Pi(K) is still above the target."""
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


def dimension_scenario(scn: Scenario, target: float,
                       m_ceiling: int = DEFAULT_M_CEILING) -> DimensionReport:
    """Invert the averaged congestion curve for a prepared scenario.

    One fixed road-realization set backs every threshold (common random
    numbers), so the precomputed curve is exactly monotone and the returned
    bracket is meaningful; binary search finds M.
    """
    check_target(target)
    [curve] = shared_road_curves([scn], m_ceiling)
    return _invert(curve, target, m_ceiling)


def dimension_prbs(query: DimensionQuery) -> DimensionReport:
    """Dimension a forecast: build the scenario, then invert its curve."""
    report = dimension_scenario(query.build_scenario(), query.target_congestion,
                                query.m_ceiling)
    return replace(report, throughput_bps=query.throughput_bps,
                   road_intensity=query.scenario.geometry.road_intensity)


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
    """Dimension every (tau, lambda) grid point, tau-major; failures do not
    abort, but a grid value outside its domain does.  Points with equal
    road intensity share one road set and one recursion pass, and each
    equals a standalone :func:`dimension_prbs`."""
    geometry = query.scenario.geometry
    taus = [float(t) for t in (throughput_grid_bps if throughput_grid_bps is not None
                               else [query.throughput_bps])]
    lams = [float(x) for x in (road_intensity_grid if road_intensity_grid is not None
                               else [geometry.road_intensity])]
    if not taus or not lams:
        raise DomainError("sweep grids must be nonempty")
    distinct_taus = list(dict.fromkeys(taus))
    at_lam = {lam: replace(query, scenario=query.scenario.with_geometry(
                  replace(geometry, road_intensity=lam))) for lam in lams}
    outcome = {}
    for lam, lam_query in at_lam.items():
        try:
            # the split is feasible for every tau at this lambda or for none
            scns = [replace(lam_query, throughput_bps=tau).build_scenario()
                    for tau in distinct_taus]
        except InfeasibleSplitError as exc:
            outcome.update(((tau, lam), (None, str(exc))) for tau in distinct_taus)
            continue
        for tau, curve in zip(distinct_taus, shared_road_curves(scns, query.m_ceiling)):
            try:
                report = _invert(curve, query.target_congestion, query.m_ceiling)
                outcome[tau, lam] = replace(report, throughput_bps=tau, road_intensity=lam), None
            except CeilingError as exc:
                outcome[tau, lam] = None, str(exc)
    return [SweepPoint(tau, lam, query.target_congestion, *outcome[tau, lam])
            for tau in taus for lam in lams]
