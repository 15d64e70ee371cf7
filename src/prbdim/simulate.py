"""End-to-end Monte-Carlo oracle, independent of the analytic path:
sample roads and users, sum their PRB demand chord by chord, and build
empirical tail curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .congestion import Scenario
from .errors import DomainError
from .geometry import RoadSet, UserBlock, chord_user_km, sample_user_block, streams
from .linkmodel import StepFunction

_Z95 = 1.959963984540054
MIN_REPLICATIONS = 100

# Replications per generator. Kept small so that a block's flat arrays stay
# at a few hundred kB and peak memory stays at the per-replication loop's.
BLOCK = 32
# Block b draws from SeedSequence((seed, MC_TAG, b)), which equals no road
# stream (seed, i) of `sample_road_set` for i < MC_TAG. (SeedSequence pads short
# entropy with zeros, so road i = MC_TAG would meet block 0.)
MC_TAG = 0x6D63_6F72
# Blocks whose demand is summed in one pass, to share the fixed cost of its
# numpy calls while its arrays stay small.
GROUP = 4


# A user's demand d and whether it counts, packed into one integer as
# d * 2^_SHIFT + (d > 0), so that one sum carries both. Sums stay exact
# while a replication counts fewer than 2^32 users and demands fewer than
# 2^31 PRBs.
_SHIFT = 32
# A demand step function, its packed values and the upper end of each piece.
_Tally = tuple[StepFunction, np.ndarray, np.ndarray]


def _tally(steps: StepFunction) -> _Tally:
    return (steps, (steps.values << _SHIFT) + (steps.values > 0),
            np.append(steps.bounds, np.inf))


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums over consecutive runs of `values` with these lengths; an empty
    run sums to 0."""
    starts = np.cumsum(lengths) - lengths
    filled = lengths > 0
    sums = np.zeros(lengths.size, dtype=np.int64)
    # a run ends where the next filled one starts
    sums[filled] = np.add.reduceat(values, starts[filled])
    return sums


def _outdoor_runs(tally: _Tally, users: UserBlock) -> tuple[np.ndarray, np.ndarray]:
    """Packed demand of the outdoor users, in runs that fill the
    replications in order, and the runs per replication."""
    steps, packed, tops = tally
    r2, half2, n = users.chord_r2, users.chord_half2, users.chord_users
    if not steps.bounds.size:
        return n * packed[0], users.roads
    near = steps.pieces_at(np.sqrt(r2))
    crossing = np.sqrt(half2 + r2) > tops[near]
    crossing &= n > 0
    split = n[crossing]
    if 2 * split.sum() > users.offsets.size:
        return packed[steps.pieces_at(users.outdoor_km)], _run_sums(n, users.roads)
    chords = n * packed[near]
    if split.size:
        runs = np.cumsum(split) - split
        at = np.repeat((np.cumsum(n) - n)[crossing] - runs, split)
        at += np.arange(at.size)
        km = chord_user_km(r2[crossing], half2[crossing], split, users.offsets[at])
        chords[crossing] = np.add.reduceat(packed[steps.pieces_at(km)], runs)
    return chords, users.roads


def _packed_demand(tallies: list[_Tally], users: UserBlock) -> np.ndarray:
    """2 x size packed demand, outdoor and indoor, per replication."""
    outdoor, runs = _outdoor_runs(tallies[0], users)
    steps, packed, _ = tallies[1]
    indoor = packed[steps.pieces_at(users.indoor_km)]
    return _run_sums(np.concatenate((outdoor, indoor)),
                     np.concatenate((runs, users.indoor_users))).reshape(2, users.size)


def _unpack(outdoor: np.ndarray, indoor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma, outdoor count, indoor count) from packed demand."""
    counts = (1 << _SHIFT) - 1
    return (outdoor >> _SHIFT) + (indoor >> _SHIFT), outdoor & counts, indoor & counts


def block_demand(scn: Scenario, users: UserBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-replication (gamma, outdoor count, indoor count) of one block.

    Only users inside `scn.region_km` = (lo, hi] count, when it is set; a
    user's demand is `scn.demand_steps` at its distance. A chord's users
    lie between the distances of its two ends, sqrt(r^2) and
    sqrt(half^2 + r^2), as computed (rounding is monotone). So a chord
    whose two ends share a step contributes users x that step's demand,
    and only the users of chords that cross a step get distances, by
    :func:`~prbdim.geometry.chord_user_km`. When those are most of the
    block's users, every user gets one, and no chord is split out. The
    totals are integer sums, equal to per-user sums bit for bit.
    """
    return _unpack(*_packed_demand([_tally(steps) for steps in scn.demand_steps], users))


def gamma_samples(scn: Scenario, replications: int, road: RoadSet | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicated (gamma, outdoor count, indoor count) of the PRB demand.

    Replication j is entry j % BLOCK of block j // BLOCK, and each block is
    drawn whole by :func:`sample_user_block` from its own generator on
    SeedSequence((scn.seed, MC_TAG, block)), all seeded in one batch by
    :func:`~prbdim.geometry.streams`. The last block is drawn in
    full and cut, so a run is a prefix of every longer run. Given `road`
    (one realization), every replication keeps it and redraws only its users.
    The demand of GROUP blocks at a time is summed in one pass.
    """
    packed = np.empty((2, replications), dtype=np.int64)
    tallies = [_tally(steps) for steps in scn.demand_steps]
    blocks = streams((scn.seed, MC_TAG), -(-replications // BLOCK))
    for start in range(0, replications, GROUP * BLOCK):
        stop = min(start + GROUP * BLOCK, replications)
        users = UserBlock.join([sample_user_block(scn.geometry, scn.cell_radius_km, scn.sampler,
                                                  rng, BLOCK, road)
                                for rng in islice(blocks, -(-(stop - start) // BLOCK))])
        packed[:, start:stop] = _packed_demand(tallies, users)[:, :stop - start]
    return _unpack(*packed)


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


def check_replications(replications: int) -> None:
    """An empirical curve needs at least MIN_REPLICATIONS replications."""
    if replications < MIN_REPLICATIONS:
        raise DomainError(f"need at least {MIN_REPLICATIONS} replications, not {replications}")


def empirical_ccdf(scn: Scenario, m_values, replications: int) -> EmpiricalCurve:
    """P_hat(Gamma >= m) over independent replications, deterministic per seed,
    at `m_values` or, when None, at 0..max Gamma + 1, ending at the first 0."""
    check_replications(replications)
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
