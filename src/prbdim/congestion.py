"""Congestion probability: conditional-on-roads evaluation, averaging over
the road process, and the closed-form mean load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .compound import CompoundSpec, ccdf_bell, default_cutoff, recursion_steps
from .errors import DomainError
from .geometry import (GeometryParams, PAPER, RoadSet, SAMPLERS, expected_roads,
                       mean_users, sample_road_set)
from .linkmodel import (INDOOR, InterferenceModel, LinkBudget, OUTDOOR, Service,
                        StepFunction, max_prbs_per_user, ring_radii)


def _pieces(steps: StepFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, level) arrays of the nonzero pieces (u, v] of a demand step
    function, with their ends clamped to its span [0, R]: grouped by level,
    so that sums over them keep one order, and innermost first within a
    level."""
    r = steps.span
    ends = np.concatenate(([0.0], np.clip(steps.bounds, 0.0, r), [r]))
    keep = np.flatnonzero(steps.values)
    keep = keep[np.argsort(steps.values[keep], kind="stable")]
    return ends[keep], ends[keep + 1], steps.values[keep]


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
    sampler: str = PAPER
    seed: int = 0
    mc_realizations: int = 500
    region_km: tuple[float, float] | None = None

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise DomainError(f"unknown sampler {self.sampler!r}")
        if self.mc_realizations < 1:
            raise DomainError("mc_realizations must be at least 1")
        if self.seed < 0:
            raise DomainError(f"seed {self.seed} must be a non-negative integer")
        r = self.link_budget.cell_radius_km
        self.interference.regions(r)  # its breakpoints lie inside the cell
        if self.region_km is not None:
            lo, hi = self.region_km
            if not 0.0 <= lo < hi <= r * (1 + 1e-12):
                raise DomainError(f"region ({lo}, {hi}] must lie inside (0, {r}]")
            object.__setattr__(self, "region_km", (float(lo), float(hi)))

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

    @cached_property
    def _outdoor_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened (u^2, v^2, level - 1) arrays of the region-clipped outdoor rings."""
        u, v, levels = _pieces(self.demand_steps[0])
        return u * u, v * v, levels - 1

    @cached_property
    def _indoor_weights(self) -> np.ndarray:
        """Deterministic indoor masses, region-clipped, indexed by level-1."""
        u, v, levels = _pieces(self.demand_steps[1])
        w = np.zeros(self.n_levels)
        # rings sharing a level accumulate in ring order
        np.add.at(w, levels - 1, self.geometry.user_intensity_area * math.pi * (v * v - u * u))
        return w


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


def chord_segments(scn: Scenario, roads: RoadSet) -> np.ndarray:
    """R x (clipped outdoor rings) matrix of the half road length that
    realization i lays inside ring j; independent of the user intensities.

    Realizations with the same road count y are reduced together, as one
    (realizations, rings, y) array summed over its last axis: each entry
    is still one length-y sum, so grouping does not change its bits.
    """
    u2, v2, _ = scn._outdoor_table
    seg = np.zeros((len(roads), u2.size))
    r2 = roads.chord_distances ** 2
    starts = np.cumsum(roads.counts) - roads.counts
    for y in (np.flatnonzero(np.bincount(roads.counts)[1:]) + 1).tolist():
        rows = np.flatnonzero(roads.counts == y)
        d2 = r2[starts[rows, None] + np.arange(y)][:, None, :]
        seg[rows] = (np.sqrt(np.maximum(v2[:, None] - d2, 0.0))
                     - np.sqrt(np.maximum(u2[:, None] - d2, 0.0))).sum(axis=2)
    return seg


def segment_weights(scn: Scenario, seg: np.ndarray) -> np.ndarray:
    """R x N combined per-level Poisson weights from a chord-segment matrix."""
    w = np.tile(scn._indoor_weights, (seg.shape[0], 1))
    # rings sharing a level accumulate in ring order
    np.add.at(w, (slice(None), scn._outdoor_table[2]),
              2.0 * scn.geometry.user_intensity_linear * seg)
    return w


def weight_matrix(scn: Scenario, roads: RoadSet) -> np.ndarray:
    """R x N combined per-level Poisson weights, row i for road realization i."""
    return segment_weights(scn, chord_segments(scn, roads))


def conditional_congestion(scn: Scenario, road: RoadSet, m: int) -> float:
    """P(Gamma >= m | roads) for one road realization: the one-row case of
    the weight-matrix path."""
    return ccdf_bell(CompoundSpec(weight_matrix(scn, road.single())[0]), m)


def road_set(scn: Scenario) -> RoadSet:
    """The scenario's road realizations, realization i from stream (seed, i)."""
    return sample_road_set(scn.geometry, scn.cell_radius_km, scn.sampler,
                           scn.seed, scn.mc_realizations)


@dataclass(frozen=True)
class CongestionCurve:
    """Averaged congestion per threshold with its Monte-Carlo standard error."""

    m_values: np.ndarray
    pi: np.ndarray
    stderr: np.ndarray
    realizations: int


# Threshold steps reduced per numpy call: fewer calls, little memory.
_STATS_STEPS = 4


def block_curves(weights: list[np.ndarray], k_max: list[int]) -> list[CongestionCurve]:
    """Averaged congestion curve at thresholds 0..k_max[b] of each R-row
    weight matrix in `weights`, from one recursion pass over them stacked;
    rows do not interact, so each equals a pass over its matrix alone."""
    blocks, rows = len(weights), weights[0].shape[0]
    pi = np.ones((blocks, max(k_max) + 1))
    stderr = np.zeros(pi.shape)
    # P(Gamma >= k) = P(Gamma > k - 1)
    steps = recursion_steps(np.concatenate(weights), pi.shape[1] - 2)
    for first in range(1, pi.shape[1], _STATS_STEPS):
        tails = np.array([t.reshape(blocks, rows) for _, t in islice(steps, _STATS_STEPS)])
        last = first + len(tails)
        pi[:, first:last] = tails.mean(axis=2).T
        varies = tails.min(axis=2) != tails.max(axis=2)
        if varies.any():
            err = tails.std(axis=2, ddof=1) / math.sqrt(rows)
            stderr[:, first:last] = np.where(varies, err, 0.0).T
    return [CongestionCurve(m_values=np.arange(0, k + 1), pi=pi[b, : k + 1],
                            stderr=stderr[b, : k + 1], realizations=rows)
            for b, k in enumerate(k_max)]


def shared_road_curves(scns: list[Scenario], m_ceiling: float = math.inf,
                       ) -> list[CongestionCurve]:
    """Averaged curves of scenarios that differ only in user intensities,
    from one road set and one recursion pass, each to K = min(m_ceiling,
    default_cutoff(W)): with no ceiling, every realization's tail at the
    last threshold is certified below CUTOFF_TAIL = 1e-12."""
    seg = chord_segments(scns[0], road_set(scns[0]))
    weights = [segment_weights(scn, seg) for scn in scns]
    return block_curves(weights, [min(m_ceiling, default_cutoff(w)) for w in weights])


def averaged_congestion(scn: Scenario, m_values=None) -> CongestionCurve:
    """Mean conditional congestion over the scenario's road realizations,
    at `m_values` or, when None, at 0..K of :func:`shared_road_curves`.

    Deterministic for a fixed seed and realization count: realization i
    always uses stream (seed, i), and every realization goes through the
    same batched recursion.
    """
    if m_values is None:
        return shared_road_curves([scn])[0]
    m = np.atleast_1d(np.asarray(m_values, dtype=np.int64))
    if m.size == 0 or m.min() < 0:
        raise DomainError("thresholds must be nonempty and nonnegative")
    [curve] = block_curves([weight_matrix(scn, road_set(scn))], [int(m.max())])
    return replace(curve, m_values=m, pi=curve.pi[m], stderr=curve.stderr[m])


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
