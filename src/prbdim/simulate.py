"""End-to-end Monte-Carlo oracle: sample roads and users, sum their PRB
demand, and build empirical tail curves.  It imports no analytic module
(`compound`, `congestion`, `dimension`), so it checks that path independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_size, read_count, read_threshold_list
from .geometry import RoadSet, chord_law, chord_user_km, expected_roads, streams
from .linkmodel import Scenario, StepFunction

_Z95 = 1.959963984540054
MIN_REPLICATIONS = 100

# Replications per generator, chosen among 64..512 by the time and peak
# memory of `simulate fig4 --replications 10000` (BENCH_18.json).
BLOCK = 128
# Block b draws from SeedSequence((seed, MC_TAG, b)), which equals no road
# stream (seed, i) of `sample_road_set` for i < MC_TAG. (SeedSequence pads short
# entropy with zeros, so road i = MC_TAG would meet block 0.)
MC_TAG = 0x6D63_6F72


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


def _draw_block(scn: Scenario, tallies: list[_Tally], rng: np.random.Generator,
                road: RoadSet | None) -> np.ndarray:
    """2 x BLOCK packed demand, outdoor and indoor, of one block drawn from
    `rng` in the order that :func:`gamma_samples` documents."""
    gp, radius, size = scn.geometry, scn.cell_radius_km, BLOCK
    if road is None:
        roads = rng.poisson(expected_roads(gp, radius), size=size)
        r = chord_law(radius, scn.sampler, rng.uniform(size=int(roads.sum())))
    else:
        roads = np.full(size, road.single().counts[0])
        r = np.tile(np.minimum(road.chord_distances, radius), size)
    r2 = r * r
    half2 = np.maximum(radius ** 2 - r2, 0.0)
    half = np.sqrt(half2)
    rate = 2.0 * gp.user_intensity_linear
    steps, packed, tops = tallies[0]
    pieces = steps.values.size
    # the (replication, step) cell of each chord's near end
    cell = np.repeat(np.arange(size), roads)
    crossing = np.empty(0, dtype=np.intp)
    if pieces > 1:
        near = steps.pieces_at(r)
        far = half2 + r2
        crossing = np.flatnonzero(np.sqrt(far, out=far) > tops[near])
        cell = cell * pieces + near
    means = rate * half[crossing]
    half[crossing] = 0.0
    # the users of a replication's whole chords on one step are Poisson
    # with their summed mean
    mass = np.bincount(cell, half, size * pieces).reshape(size, pieces)
    held = mass.any(axis=0) & (steps.values > 0)
    outdoor = rng.poisson(rate * mass[:, held]) @ packed[held]
    if crossing.size:
        split = rng.poisson(means)
        km = chord_user_km(r2[crossing], half2[crossing], split, rng.random(int(split.sum())))
        chords = np.diff(np.searchsorted(crossing, np.cumsum(roads)), prepend=0)
        outdoor += _run_sums(packed[steps.pieces_at(km)], _run_sums(split, chords))

    steps, packed, _ = tallies[1]
    indoor = rng.poisson(gp.user_intensity_area * math.pi * radius ** 2, size=size)
    km = rng.uniform(size=int(indoor.sum()))
    np.sqrt(km, out=km)
    km *= radius
    return np.stack((outdoor, _run_sums(packed[steps.pieces_at(km)], indoor)))


def _unpack(outdoor: np.ndarray, indoor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma, outdoor count, indoor count) from packed demand."""
    counts = (1 << _SHIFT) - 1
    return (outdoor >> _SHIFT) + (indoor >> _SHIFT), outdoor & counts, indoor & counts


def gamma_samples(scn: Scenario, replications: int, road: RoadSet | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicated (gamma, outdoor count, indoor count) of the PRB demand.

    Only users inside `scn.region_km` = (lo, hi] count, when it is set; a
    user's demand is `scn.demand_steps` at its distance, and the outdoor
    count holds the users at a level above 0. Replication j is entry
    j % BLOCK of block j // BLOCK. Each block is drawn whole from its own
    generator on SeedSequence((scn.seed, MC_TAG, block)), all seeded in
    one batch by :func:`~prbdim.geometry.streams`, in this order:

    1. road counts, Poisson(2*pi*lambda*R) per replication, or, given
       `road` (one realization), its roads in every replication;
    2. one uniform per chord, turned into its distance r by the sampler's
       law (:func:`~prbdim.geometry.chord_law`); its half length is
       sqrt(max(R^2 - r^2, 0));
    3. for each replication and, within it, each step of nonzero demand
       on which the block's whole chords have a positive summed half
       length, innermost first: one Poisson count with mean 2*delta times
       the half lengths of the replication's whole chords on that step,
       summed in chord order;
    4. one Poisson(2*delta*half) count per chord that crosses a step;
    5. one uniform offset t per user of those chords, who lies at
       sqrt(r^2 + t^2*half^2) (:func:`~prbdim.geometry.chord_user_km`);
    6. indoor counts, Poisson(kappa*pi*R^2) per replication, and one
       radius R*sqrt(U) per indoor user.

    A chord is whole when its ends, r and sqrt(half^2 + r^2) as computed,
    lie on one step: its users lie between them (rounding is monotone),
    so all share that step's demand. By superposition the users of a
    replication's whole chords on one step are Poisson with the summed
    mean, so step 3 draws their count alone and gives them no position.
    The last block is drawn in full and cut, so a run is a prefix of
    every longer run. Totals are exact integer sums.  A block expecting more
    than MAX_POINTS roads and users (each chord a diameter) is refused first.
    """
    replications = check_replications(replications, 0)
    gp, r = scn.geometry, scn.cell_radius_km
    roads = expected_roads(gp, r) if road is None else road.single().counts[0]
    users = 2.0 * gp.user_intensity_linear * r * roads + gp.user_intensity_area * math.pi * r * r
    check_size(BLOCK * (roads + users), "roads and users", f"{BLOCK} replications at {gp}")
    packed = np.empty((2, replications), dtype=np.int64)
    tallies = [_tally(steps) for steps in scn.demand_steps]
    for start, rng in zip(range(0, replications, BLOCK),
                          streams((scn.seed, MC_TAG), -(-replications // BLOCK))):
        stop = min(start + BLOCK, replications)
        packed[:, start:stop] = _draw_block(scn, tallies, rng, road)[:, :stop - start]
    return _unpack(*packed)


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson-score confidence interval for a binomial proportion."""
    trials = read_count(trials, "trials", 1)
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} must lie in [0, trials {trials}]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return lo, hi


@dataclass(frozen=True, eq=False)
class EmpiricalCurve:
    """Empirical tail of the PRB demand with per-point 95% Wilson intervals.

    Also reports the measured mean user counts, to set beside the scenario's
    printed-formula mean (`Scenario.mean_users`) so the intensity-convention
    gap stays visible.
    """

    m_values: np.ndarray
    ccdf: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    mean_gamma: float
    mean_outdoor_users: float
    mean_indoor_users: float


def check_replications(replications: int, least: int = MIN_REPLICATIONS) -> int:
    """Replications as an int, at least `least` (a curve's MIN_REPLICATIONS), at most MAX_POINTS."""
    replications = read_count(replications, "replications", least)
    check_size(replications, "samples", f"replications {replications}")
    return replications


def empirical_ccdf(scn: Scenario, m_values, replications: int) -> EmpiricalCurve:
    """P_hat(Gamma >= m) over independent replications, deterministic per seed,
    at `m_values` or, when None, at 0..max Gamma + 1, ending at the first 0."""
    given = None if m_values is None else read_threshold_list(m_values)
    check_replications(replications)
    gammas, n_out, n_in = gamma_samples(scn, replications)
    m = np.arange(gammas.max() + 2) if given is None else given
    ordered = np.sort(gammas)
    at_least = replications - np.searchsorted(ordered, m, side="left")
    ccdf = at_least / replications
    bounds = np.array([wilson_interval(int(k), replications) for k in at_least])
    return EmpiricalCurve(
        m_values=m, ccdf=ccdf, ci_low=bounds[:, 0], ci_high=bounds[:, 1],
        mean_gamma=float(gammas.mean()),
        mean_outdoor_users=float(n_out.mean()),
        mean_indoor_users=float(n_in.mean()),
    )
