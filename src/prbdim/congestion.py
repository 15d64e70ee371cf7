"""Congestion probability: a cell's ring tables, conditional-on-roads
evaluation, averaging over the road process, and the closed-form mean load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .compound import CompoundSpec, ccdf_bell, default_cutoff, recursion_steps
from .errors import check_size, read_threshold_list
from .geometry import PAPER, RoadSet, expected_roads, sample_road_set
from .linkmodel import Scenario, StepFunction


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


def outdoor_rings(scn: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened (u^2, v^2, level - 1) arrays of the region-clipped outdoor rings."""
    u, v, levels = _pieces(scn.demand_steps[0])
    return u * u, v * v, levels - 1


def indoor_weights(scn: Scenario) -> np.ndarray:
    """Deterministic indoor masses, region-clipped, indexed by level-1."""
    u, v, levels = _pieces(scn.demand_steps[1])
    w = np.zeros(scn.n_levels)
    # rings sharing a level accumulate in ring order
    np.add.at(w, levels - 1, scn.geometry.user_intensity_area * math.pi * (v * v - u * u))
    return w


def chord_segments(scn: Scenario, roads: RoadSet) -> np.ndarray:
    """R x (clipped outdoor rings) matrix of the half road length that
    realization i lays inside ring j; independent of the user intensities.

    Realizations with the same road count y are reduced together, as one
    (realizations, rings, y) array summed over its last axis: each entry
    is still one length-y sum, so grouping does not change its bits.
    """
    u2, v2, _ = outdoor_rings(scn)
    seg = np.zeros((len(roads), u2.size))
    r2 = roads.chord_distances ** 2
    starts = np.cumsum(roads.counts) - roads.counts
    for y in (np.flatnonzero(np.bincount(roads.counts)[1:]) + 1).tolist():
        rows = np.flatnonzero(roads.counts == y)
        d2 = r2[starts[rows, None] + np.arange(y)][:, None, :]
        seg[rows] = (np.sqrt(np.maximum(v2[:, None] - d2, 0.0))
                     - np.sqrt(np.maximum(u2[:, None] - d2, 0.0))).sum(axis=2)
    return seg


def weight_matrices(scns: list[Scenario], roads: RoadSet | None = None) -> list[np.ndarray]:
    """The R x N combined per-level Poisson weights of scenarios that differ
    only in their user intensities, row i for realization i of `roads`, by
    default the first scenario's road set: one chord-segment matrix, which
    the roads and rings alone set, shared by every scenario (common random
    numbers)."""
    seg = chord_segments(scns[0], road_set(scns[0]) if roads is None else roads)
    weights = []
    for scn in scns:
        w = np.tile(indoor_weights(scn), (seg.shape[0], 1))
        # rings sharing a level accumulate in ring order
        np.add.at(w, (slice(None), outdoor_rings(scn)[2]),
                  2.0 * scn.geometry.user_intensity_linear * seg)
        weights.append(w)
    return weights


def conditional_congestion(scn: Scenario, road: RoadSet, m: int) -> float:
    """P(Gamma >= m | roads) for one road realization, by its one-row weight matrix."""
    [w] = weight_matrices([scn], road.single())
    return ccdf_bell(CompoundSpec(w[0]), m)


def road_set(scn: Scenario) -> RoadSet:
    """The scenario's road realizations, realization i from stream (seed, i)."""
    return sample_road_set(scn.geometry, scn.cell_radius_km, scn.sampler,
                           scn.seed, scn.mc_realizations)


@dataclass(frozen=True, eq=False)
class CongestionCurve:
    """Averaged congestion per threshold with its Monte-Carlo standard error."""

    m_values: np.ndarray
    pi: np.ndarray
    stderr: np.ndarray


# Threshold steps reduced per numpy call: fewer calls, little memory.
_STATS_STEPS = 4


def tail_groups(weights: list[np.ndarray], k_top: int):
    """Yield (first, tails) for thresholds 1..k_top in groups of
    _STATS_STEPS, tails[s, b, i] = P(Gamma >= first + s) for row i of
    block b, from one recursion pass over the stacked weight matrices; rows
    do not interact, so each equals a pass over its matrix alone."""
    blocks, rows = len(weights), weights[0].shape[0]
    # P(Gamma >= k) = P(Gamma > k - 1)
    steps = recursion_steps(np.concatenate(weights), k_top - 1)
    for first in range(1, k_top + 1, _STATS_STEPS):
        yield first, np.array([t.reshape(blocks, rows) for _, t in islice(steps, _STATS_STEPS)])


def row_stats(tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the rows (last axis) of per-row tails and its Monte-Carlo
    standard error, 0 where the rows are all equal."""
    varies = tails.min(axis=-1) != tails.max(axis=-1)
    stderr = np.zeros(varies.shape)
    if varies.any():
        err = tails.std(axis=-1, ddof=1) / math.sqrt(tails.shape[-1])
        stderr = np.where(varies, err, 0.0)
    return tails.mean(axis=-1), stderr


def block_curves(w: np.ndarray, k_max: int) -> CongestionCurve:
    """Averaged congestion curve at thresholds 0..k_max of an R-row weight matrix."""
    check_size(k_max + 1, "thresholds", f"curve extent {k_max}")
    pi, stderr = np.ones(k_max + 1), np.zeros(k_max + 1)
    for first, tails in tail_groups([w], k_max):
        last = first + len(tails)
        pi[first:last], stderr[first:last] = row_stats(tails[:, 0])
    return CongestionCurve(m_values=np.arange(0, k_max + 1), pi=pi, stderr=stderr)


def averaged_congestion(scn: Scenario, m_values=None) -> CongestionCurve:
    """Mean conditional congestion over the scenario's road realizations,
    at `m_values` or, when None, at 0..default_cutoff(W), where every
    realization's tail is certified below CUTOFF_TAIL = 1e-12.

    Deterministic for a fixed seed and realization count: realization i
    always uses stream (seed, i), and every realization goes through the
    same batched recursion.
    """
    m = None if m_values is None else read_threshold_list(m_values)
    [w] = weight_matrices([scn])
    curve = block_curves(w, default_cutoff(w) if m is None else int(m.max()))
    return curve if m is None else replace(curve, m_values=m, pi=curve.pi[m],
                                           stderr=curve.stderr[m])


def expected_load(scn: Scenario) -> float:
    """Closed-form E(Gamma) under the scenario's chord-distance law.

    Outdoor: each clipped ring interval (u, v] contributes
    (4*delta*omega/(3*R^2))*(v^3-u^3) expected users under `paper`
    (r = R*sqrt(U)) and delta*omega*pi*(v^2-u^2)/(2*R) under `standard`
    (r = R*U); indoor contributes kappa*pi*(v^2-u^2).  Reduces to the
    single-margin ring formula when the interference model has one region.
    """
    r = scn.cell_radius_km
    delta, omega = scn.geometry.user_intensity_linear, expected_roads(scn.geometry, r)
    u2, v2, lv = outdoor_rings(scn)
    if scn.sampler == PAPER:
        coef, ring = 4.0 * delta * omega / (3.0 * r * r), v2 * np.sqrt(v2) - u2 * np.sqrt(u2)
    else:
        coef, ring = math.pi * delta * omega / (2.0 * r), v2 - u2
    outdoor = coef * float((lv + 1) @ ring)
    indoor = indoor_weights(scn)
    return outdoor + float(np.arange(1, indoor.size + 1) @ indoor)
