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
from .geometry import UserDrop, rng_stream, sample_roads, sample_users

_Z95 = 1.959963984540054


def _region_filter(distances: np.ndarray, region) -> np.ndarray:
    if region is None:
        return distances
    lo, hi = region
    return distances[(distances > lo) & (distances <= hi)]


def demand_of_drop(scn: Scenario, drop: UserDrop) -> int:
    """Total PRBs requested by one sampled user population."""
    prof_out, prof_in = scn.profiles
    total = 0
    outdoor = _region_filter(drop.outdoor_km, scn.region_km)
    if outdoor.size:
        total += int(prof_out.levels_at(outdoor).sum())
    indoor = _region_filter(drop.indoor_km, scn.region_km)
    if indoor.size:
        total += int(prof_in.levels_at(indoor).sum())
    return total


def gamma_samples(scn: Scenario, replications: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicated (gamma, outdoor count, indoor count); stream i = (seed, i)."""
    gammas = np.zeros(replications, dtype=np.int64)
    n_out = np.zeros(replications, dtype=np.int64)
    n_in = np.zeros(replications, dtype=np.int64)
    for i in range(replications):
        rng = rng_stream(scn.seed, i)
        road = sample_roads(scn.geometry, scn.cell_radius_km, scn.sampler, rng)
        drop = sample_users(scn.geometry, scn.cell_radius_km, road, rng)
        gammas[i] = demand_of_drop(scn, drop)
        n_out[i] = _region_filter(drop.outdoor_km, scn.region_km).size
        n_in[i] = _region_filter(drop.indoor_km, scn.region_km).size
    return gammas, n_out, n_in


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
    """P_hat(Gamma >= m) over independent replications, deterministic per seed."""
    if replications < 100:
        raise DomainError("need at least 100 replications")
    m = np.atleast_1d(np.asarray(m_values, dtype=np.int64))
    gammas, n_out, n_in = gamma_samples(scn, replications)
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
