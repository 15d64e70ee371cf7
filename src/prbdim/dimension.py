"""Dimensioning: invert the congestion curve to the minimum PRB count for
a target congestion probability and a forecast cell throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DEFAULT_M_CEILING
from .congestion import row_stats, tail_groups, weight_matrices
from .errors import (CeilingError, DomainError, InfeasibleSplitError, read_array, read_count,
                     read_fields, read_fraction, read_real, reading)
from .linkmodel import Scenario, intensities_from_throughput

# Smallest target accepted: below it, 1 - (the kernel's running CDF) leaves
# too few correct digits of the tail.  Above it every mean tail crosses the
# target by default_cutoff(W), where it is at most 1e-12 plus rounding, so
# the M ceiling is the only bound a search needs.
TARGET_FLOOR = 1e-8


def read_target(x, name: str) -> float:
    """x as a target congestion in [TARGET_FLOOR, 1), read by :func:`read_real`."""
    if not TARGET_FLOOR <= (target := read_real(x, name)) < 1.0:
        raise DomainError(f"{name} {target:g} must lie in [floor {TARGET_FLOOR:g}, 1)")
    return target


@dataclass(frozen=True)
class DimensionQuery:
    """A dimensioning question: a cell, a forecast throughput split between
    its roads and indoors, and a target congestion. The user intensities
    of `scenario.geometry` are replaced by the forecast's."""

    scenario: Scenario
    target_congestion: float = reading(read_target, name="target congestion")
    throughput_bps: float = reading(read_real, "positive")
    outdoor_fraction: float = reading(read_fraction, default=1.0)
    m_ceiling: int = reading(read_count, 1, default=DEFAULT_M_CEILING)

    __post_init__ = read_fields

    def build_scenario(self) -> Scenario:
        """The scenario with the forecast's intensities, sharing its demand
        step functions."""
        scn = self.scenario
        return scn.with_geometry(intensities_from_throughput(
            self.throughput_bps, scn.service.rate_bps, scn.cell_radius_km,
            scn.geometry.road_intensity, self.outdoor_fraction))


@dataclass(frozen=True)
class DimensionReport:
    """Solver output: minimal M with Pi(M) <= target, its bracket, their stderrs
    and the road realization count; the target and grid point are the caller's."""

    required_m: int
    pi_at_m: float
    pi_before: float
    stderr_at_m: float
    stderr_before: float
    realizations: int


def invert(weights: list[np.ndarray], k_max: int,
           target: float) -> list[DimensionReport | CeilingError]:
    """Per R-row weight matrix, the report of the smallest m <= k_max, the M
    ceiling, with Pi(m) <= target, or the CeilingError carrying Pi(k_max).
    One pass over the matrices stacked ends with the group that settles the
    last block; until a block settles it takes only row means, and each
    bracket is bit for bit that pass's full curve."""
    blocks, rows = len(weights), weights[0].shape[0]
    answers = [None] * blocks
    # every row's tail at threshold 0 is 1
    before = np.ones((blocks, rows))
    for first, tails in tail_groups(weights, k_max):
        low = tails.mean(axis=2) <= target
        # a block settles when it crosses the target or the pass reaches k_max
        settles = low.any(axis=0) | (first + len(tails) > k_max)
        for b in [b for b, a in enumerate(answers) if a is None and settles[b]]:
            hits = np.flatnonzero(low[:, b])
            s = int(hits[0]) if hits.size else len(tails) - 1
            pair = np.stack((tails[s - 1, b] if s else before[b], tails[s, b]))
            (pi_before, pi), (err_before, err) = row_stats(pair)
            if hits.size:
                answers[b] = DimensionReport(first + s, float(pi), float(pi_before),
                                             float(err), float(err_before), rows)
            else:
                answers[b] = CeilingError(
                    f"congestion {pi:.6g} still above target {target:.6g} at the M "
                    f"ceiling {k_max}", ceiling=k_max, achieved_pi=float(pi))
        if None not in answers:
            break
        before = tails[-1]
    return answers


def dimension_scenario(scn: Scenario, target: float,
                       m_ceiling: int = DEFAULT_M_CEILING) -> DimensionReport:
    """Find the smallest M with Pi(M) <= target for a prepared scenario. One
    road-realization set backs every threshold (common random numbers), so the
    averaged curve is exactly monotone; the recursion stops at the answer."""
    target = read_target(target, "target congestion")
    m_ceiling = read_count(m_ceiling, "m_ceiling", 1)
    [answer] = invert(weight_matrices([scn]), m_ceiling, target)
    if isinstance(answer, CeilingError):
        raise answer
    return answer


def dimension_prbs(query: DimensionQuery) -> DimensionReport:
    """Dimension a forecast: the one-point :func:`sweep` at its throughput
    and road intensity, whose report is returned or whose error is raised."""
    [answer] = sweep(query)
    if isinstance(answer, Exception):
        raise answer
    return answer


def sweep(query: DimensionQuery, throughput_grid_bps=None,
          road_intensity_grid=None) -> list[DimensionReport | CeilingError | InfeasibleSplitError]:
    """Dimension every (tau, lambda) grid point, tau-major: its report, or the
    error raised for it, which does not abort the others; neither names its
    point, which its grid position gives.  A grid value outside its domain
    is refused first, with its point's text.  Points with equal road
    intensity share one road set, and the feasible points one recursion pass."""
    cell = query.scenario
    taus = read_array([query.throughput_bps] if throughput_grid_bps is None
                      else throughput_grid_bps, "throughput_bps", "positive").tolist()
    lams = read_array([cell.geometry.road_intensity] if road_intensity_grid is None
                      else road_intensity_grid, "road_intensity", "nonnegative").tolist()
    if not taus or not lams:
        raise DomainError("sweep grids must be nonempty")
    distinct_taus = list(dict.fromkeys(taus))
    outcome, scenarios, points, weights = {}, {}, [], []
    for lam in dict.fromkeys(lams):
        try:
            # the split is feasible for every tau at this lambda or for none
            scenarios[lam] = [cell.with_geometry(intensities_from_throughput(
                tau, cell.service.rate_bps, cell.cell_radius_km, lam, query.outdoor_fraction))
                for tau in distinct_taus]
        except InfeasibleSplitError as exc:
            outcome.update(((tau, lam), exc) for tau in distinct_taus)
    for lam, scns in scenarios.items():
        weights += weight_matrices(scns)
        points += [(tau, lam) for tau in distinct_taus]
    answers = invert(weights, query.m_ceiling, query.target_congestion) if weights else []
    outcome.update(zip(points, answers))
    return [outcome[tau, lam] for tau in taus for lam in lams]
