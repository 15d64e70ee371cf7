"""Congestion probability: conditional-on-roads evaluation, averaging over
the road process, and the closed-form mean load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .compound import CompoundSpec, ccdf_bell, require_normal_start
from .errors import DomainError
from .geometry import (GeometryParams, PAPER, RoadRealization, SAMPLERS,
                       expected_roads, mean_users, rng_stream, sample_roads)
from .linkmodel import (DemandProfile, INDOOR, InterferenceModel, LinkBudget,
                        OUTDOOR, Service, ring_radii)


def _clip_intervals(intervals, region):
    """Intersect half-open intervals with a half-open region (lo, hi]."""
    if region is None:
        return list(intervals)
    lo, hi = region
    out = []
    for u, v in intervals:
        a, b = max(u, lo), min(v, hi)
        if b > a:
            out.append((a, b))
    return out


@dataclass(frozen=True)
class Scenario:
    """Everything needed to evaluate one cell: radio, demand, geometry, MC.

    `outdoor_fraction` defaults to the share of mean users carried by roads
    under the printed intensity convention.  `region_km` optionally
    restricts the evaluated population to an annulus (lo, hi].
    """

    link_budget: LinkBudget
    interference: InterferenceModel
    service: Service
    geometry: GeometryParams
    sampler: str = PAPER
    seed: int = 0
    mc_realizations: int = 500
    outdoor_fraction: float | None = None
    region_km: tuple[float, float] | None = None

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise DomainError(f"unknown sampler {self.sampler!r}")
        if self.mc_realizations < 1:
            raise DomainError("mc_realizations must be at least 1")
        r = self.link_budget.cell_radius_km
        if self.region_km is not None:
            lo, hi = self.region_km
            if not 0.0 <= lo < hi <= r * (1 + 1e-12):
                raise DomainError(f"region ({lo}, {hi}] must lie inside (0, {r}]")
            object.__setattr__(self, "region_km", (float(lo), float(hi)))
        if self.outdoor_fraction is None:
            lam_delta = self.geometry.road_intensity * self.geometry.user_intensity_linear
            total = lam_delta + self.geometry.user_intensity_area
            object.__setattr__(self, "outdoor_fraction",
                               lam_delta / total if total > 0 else 0.0)
        if not 0.0 <= self.outdoor_fraction <= 1.0:
            raise DomainError("outdoor_fraction must lie in [0, 1]")

    @property
    def cell_radius_km(self) -> float:
        return self.link_budget.cell_radius_km

    @property
    def mean_users(self) -> float:
        return mean_users(self.geometry, self.cell_radius_km)

    @property
    def cell_throughput_bps(self) -> float:
        return self.mean_users * self.service.rate_bps

    @cached_property
    def profiles(self) -> tuple[DemandProfile, DemandProfile]:
        """(outdoor, indoor) demand profiles, computed once per scenario."""
        return (ring_radii(self.link_budget, self.interference, self.service, OUTDOOR),
                ring_radii(self.link_budget, self.interference, self.service, INDOOR))

    @cached_property
    def _outdoor_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened (u^2, v^2, level) arrays of the region-clipped outdoor rings."""
        prof = self.profiles[0]
        u2, v2, lv = [], [], []
        for n, ivs in prof.rings.items():
            for a, b in _clip_intervals(ivs, self.region_km):
                u2.append(a * a)
                v2.append(b * b)
                lv.append(n - 1)
        return np.array(u2), np.array(v2), np.array(lv, dtype=np.int64)

    @cached_property
    def _indoor_weights(self) -> np.ndarray:
        """Deterministic indoor masses, region-clipped, indexed by level-1."""
        prof = self.profiles[1]
        kappa = self.geometry.user_intensity_area
        w = np.zeros(prof.n_levels)
        for n, ivs in prof.rings.items():
            for a, b in _clip_intervals(ivs, self.region_km):
                w[n - 1] += kappa * math.pi * (b * b - a * a)
        return w

    @property
    def combined_levels(self) -> int:
        return max(self.profiles[0].n_levels, self.profiles[1].n_levels)


def ppp_equivalent(scn: Scenario) -> Scenario:
    """Outdoor-PPP baseline: same printed intensity, outdoor propagation.

    Reuses the indoor (area PPP) machinery with kappa set to lambda*delta
    and the indoor propagation constant replaced by the outdoor one.
    """
    lam_delta = scn.geometry.road_intensity * scn.geometry.user_intensity_linear
    gp = GeometryParams(road_intensity=0.0, user_intensity_linear=0.0,
                        user_intensity_area=lam_delta + scn.geometry.user_intensity_area)
    lb = replace(scn.link_budget, prop_const_indoor_db=scn.link_budget.prop_const_db)
    return replace(scn, link_budget=lb, geometry=gp, outdoor_fraction=None)


def weight_matrix(scn: Scenario, roads: list[RoadRealization]) -> np.ndarray:
    """R x N combined per-level Poisson weights, row i for road realization i."""
    w = np.zeros((len(roads), scn.combined_levels))
    indoor = scn._indoor_weights
    w[:, : indoor.size] += indoor
    u2, v2, lv = scn._outdoor_table
    seg = np.empty((len(roads), lv.size))
    for i, road in enumerate(roads):
        r2 = road.chord_distances ** 2
        seg[i] = (np.sqrt(np.maximum(v2[:, None] - r2[None, :], 0.0))
                  - np.sqrt(np.maximum(u2[:, None] - r2[None, :], 0.0))).sum(axis=1)
    # rings sharing a level accumulate in ring order
    np.add.at(w, (slice(None), lv), 2.0 * scn.geometry.user_intensity_linear * seg)
    return w


def conditional_spec(scn: Scenario, road: RoadRealization) -> CompoundSpec:
    """Combined per-level Poisson weights for one road realization."""
    return CompoundSpec(weights=weight_matrix(scn, [road])[0])


def conditional_congestion(scn: Scenario, road: RoadRealization, m: int) -> float:
    """P(Gamma >= m | roads) via the compound-Poisson tail."""
    return ccdf_bell(conditional_spec(scn, road), m)


def road_set(scn: Scenario) -> list[RoadRealization]:
    """The scenario's road realizations, one independent stream each."""
    return [sample_roads(scn.geometry, scn.cell_radius_km, scn.sampler,
                         rng_stream(scn.seed, i))
            for i in range(scn.mc_realizations)]


@dataclass(frozen=True)
class CongestionCurve:
    """Averaged congestion per threshold with its Monte-Carlo standard error."""

    m_values: np.ndarray
    pi: np.ndarray
    stderr: np.ndarray
    realizations: int


def batched_curve(weights, m_values) -> CongestionCurve:
    """Mean and standard error over the rows of an R x N weight matrix of
    P(Gamma >= m | row weights), exactly zero error where all rows agree.

    The recursion k*p_k = sum_j j*w_j*p_{k-j} advances all rows together and
    keeps only the last N PMF columns and a running CDF per row.
    """
    w = np.asarray(weights, dtype=float)
    m = np.atleast_1d(np.asarray(m_values, dtype=np.int64))
    if w.ndim != 2 or w.size == 0 or not np.all(np.isfinite(w)) or w.min() < 0:
        raise DomainError("weights must be a nonempty R x N matrix, nonnegative and finite")
    if m.size == 0 or m.min() < 0:
        raise DomainError("thresholds must be nonempty and nonnegative")
    rows, n = w.shape
    total = w.sum(axis=1)
    p = np.exp(-total)
    require_normal_start(p, total)
    pi = np.zeros(int(m.max()) + 1)
    stderr = np.zeros(pi.size)
    # at step k window row i holds p_{k-n+i}, which lagged_jw row i multiplies
    window = np.zeros((n, rows))
    lagged_jw = np.ascontiguousarray((w * np.arange(1, n + 1)).T[::-1])
    cum = np.zeros(rows)
    for k in range(pi.size):
        tail = np.maximum(1.0 - cum, 0.0)
        pi[k] = tail.mean()
        if tail.min() != tail.max():
            stderr[k] = tail.std(ddof=1) / math.sqrt(rows)
        if k > 0:
            p = np.einsum("jr,jr->r", lagged_jw, window) / k
        window[:-1] = window[1:]
        window[-1] = p
        cum += p
    return CongestionCurve(m_values=m, pi=pi[m], stderr=stderr[m],
                           realizations=rows)


def averaged_congestion(scn: Scenario, m_values) -> CongestionCurve:
    """Mean conditional congestion over the scenario's road realizations.

    Deterministic for a fixed seed and realization count: realization i
    always uses stream (seed, i), and every realization goes through the
    same batched recursion.
    """
    return batched_curve(weight_matrix(scn, road_set(scn)), m_values)


def expected_load(scn: Scenario) -> float:
    """Closed-form E(Gamma) under the `paper` chord-distance law.

    Outdoor: each clipped ring interval (u, v] contributes
    (4*delta*omega/(3*R^2))*(v^3-u^3) expected users; indoor contributes
    kappa*pi*(v^2-u^2).  Reduces to the single-margin ring formula when the
    interference model has one region.
    """
    r = scn.cell_radius_km
    omega = expected_roads(scn.geometry, r)
    coef = 4.0 * scn.geometry.user_intensity_linear * omega / (3.0 * r * r)
    u2, v2, lv = scn._outdoor_table
    outdoor = coef * float((lv + 1) @ (v2 * np.sqrt(v2) - u2 * np.sqrt(u2)))
    indoor = scn._indoor_weights
    return outdoor + float(np.arange(1, indoor.size + 1) @ indoor)
