"""End-to-end Monte-Carlo oracle, independent of the analytic path:
sample roads and users, look up each user's PRB demand, accumulate the
total, and build empirical tail curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .congestion import Scenario
from .errors import DomainError
from .geometry import RoadSet, UserBlock, sample_user_block, streams

_Z95 = 1.959963984540054

# Replications per generator. Kept small so that a block's flat arrays stay
# at a few hundred kB and peak memory stays at the per-replication loop's.
BLOCK = 32
# Block b draws from SeedSequence((seed, MC_TAG, b)), which equals no road
# stream (seed, i) of `sample_road_set` for i < MC_TAG. (SeedSequence pads short
# entropy with zeros, so road i = MC_TAG would meet block 0.)
MC_TAG = 0x6D63_6F72


def block_demand(scn: Scenario, users: UserBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-replication (gamma, outdoor count, indoor count) of one block.

    Only users inside `scn.region_km` = (lo, hi] count, when it is set.
    """
    gamma = np.zeros(users.size)
    counts = []
    for profile, rep, km in zip(scn.profiles, (users.outdoor_rep, users.indoor_rep),
                                (users.outdoor_km, users.indoor_km)):
        if scn.region_km is not None:
            lo, hi = scn.region_km
            inside = (km > lo) & (km <= hi)
            rep, km = rep[inside], km[inside]
        gamma += np.bincount(rep, weights=profile.levels_at(km), minlength=users.size)
        counts.append(np.bincount(rep, minlength=users.size))
    return gamma.astype(np.int64), counts[0], counts[1]


def gamma_samples(scn: Scenario, replications: int, road: RoadSet | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicated (gamma, outdoor count, indoor count) of the PRB demand.

    Replication j is entry j % BLOCK of block j // BLOCK, and each block is
    drawn whole by :func:`sample_user_block` from its own generator on
    SeedSequence((scn.seed, MC_TAG, block)), all seeded in one batch by
    :func:`~prbdim.geometry.streams`. The last block is drawn in
    full and cut, so a run is a prefix of every longer run. Given `road`
    (one realization), every replication keeps it and redraws only its users.
    """
    out = np.empty((3, replications), dtype=np.int64)
    blocks = streams((scn.seed, MC_TAG), -(-replications // BLOCK))
    for start, rng in zip(range(0, replications, BLOCK), blocks):
        users = sample_user_block(scn.geometry, scn.cell_radius_km, scn.sampler,
                                  rng, BLOCK, road)
        stop = min(start + BLOCK, replications)
        for row, values in zip(out, block_demand(scn, users)):
            row[start:stop] = values[:stop - start]
    return out[0], out[1], out[2]


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson-score confidence interval for a binomial proportion."""
    if trials <= 0:
        raise DomainError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return lo, hi


@dataclass(frozen=True)
class EmpiricalCurve:
    """Empirical tail of the PRB demand with per-point 95% Wilson intervals.

    Also reports the measured mean user counts next to the printed-formula
    mean so the intensity-convention gap stays visible.
    """

    m_values: np.ndarray
    ccdf: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    replications: int
    mean_gamma: float
    mean_outdoor_users: float
    mean_indoor_users: float
    eq1_mean_users: float


def empirical_ccdf(scn: Scenario, m_values, replications: int) -> EmpiricalCurve:
    """P_hat(Gamma >= m) over independent replications, deterministic per seed,
    at `m_values` or, when None, at 0..max Gamma + 1, ending at the first 0."""
    if replications < 100:
        raise DomainError("need at least 100 replications")
    gammas, n_out, n_in = gamma_samples(scn, replications)
    m = np.atleast_1d(np.asarray(np.arange(gammas.max() + 2) if m_values is None
                                 else m_values, dtype=np.int64))
    ordered = np.sort(gammas)
    at_least = replications - np.searchsorted(ordered, m, side="left")
    ccdf = at_least / replications
    bounds = np.array([wilson_interval(int(k), replications) for k in at_least])
    return EmpiricalCurve(
        m_values=m, ccdf=ccdf, ci_low=bounds[:, 0], ci_high=bounds[:, 1],
        replications=replications,
        mean_gamma=float(gammas.mean()),
        mean_outdoor_users=float(n_out.mean()),
        mean_indoor_users=float(n_in.mean()),
        eq1_mean_users=scn.mean_users,
    )
