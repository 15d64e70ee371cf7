import math
from dataclasses import dataclass

import numpy as np
import pytest

from prbdim import (DomainError, InterferenceModel, LinkBudget, RoadSet, Service,
                    expected_roads, ring_radii)
from prbdim.geometry import chord_user_km
from prbdim.simulate import BLOCK, MC_TAG


@pytest.fixture
def link_budget():
    """Urban macro cell: 60 dBm EIRP, 20 MHz noise floor, 2 spatial layers."""
    return LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0,
                      prop_const_db=130.0, prop_const_indoor_db=166.0,
                      path_loss_exp=3.5, tx_antennas=8, rx_antennas=2,
                      prb_bandwidth_hz=180e3, cell_radius_km=0.7,
                      max_user_prbs=256)


@pytest.fixture
def noise_limited():
    return InterferenceModel.noise_limited()


@pytest.fixture
def three_region():
    return InterferenceModel.three_region(1.0, 8.0, 15.0, 0.7)


@pytest.fixture
def service_500k():
    return Service(rate_bps=500e3)


def scalar_pmf(weights, k_max):
    """The plain scalar recursion k*p_k = sum_j j*w_j*p_{k-j} from p_0 =
    exp(-total weight), one row at a time and with no rescaling: the
    independent reference for the batched kernel, at total weights below
    about 708 where p_0 is a normal double."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    jw = np.arange(1, n + 1) * w
    p = np.zeros(k_max + 1)
    p[0] = math.exp(-float(w.sum()))
    for k in range(1, k_max + 1):
        j = min(k, n)
        # sum over j of j*w_j*p_{k-j}
        p[k] = float(jw[:j] @ p[k - 1 :: -1][:j]) / k
    return p


def scalar_ccdf(weights, m_values):
    """P(Lambda >= m) for each threshold m, from scalar_pmf."""
    m = np.asarray(m_values, dtype=np.int64)
    cum = np.concatenate(([0.0], np.cumsum(scalar_pmf(weights, max(int(m.max()) - 1, 0)))))
    return np.maximum(1.0 - cum[m], 0.0)


# The stream contract, one realization at a time: the reference that
# geometry.sample_road_set reproduces bit for bit.
def road_stream(seed, index):
    """Generator of road realization `index`, seeded by numpy itself."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def reference_roads(gp, cell_radius_km, sampler, rng):
    """One road realization drawn from `rng`: Y ~ Poisson(2*pi*lambda*R),
    then Y uniforms U, and chord distances R*sqrt(U) (`paper`) or R*U
    (`standard`)."""
    u = rng.uniform(size=rng.poisson(expected_roads(gp, cell_radius_km)))
    return fixed_road(cell_radius_km * (np.sqrt(u) if sampler == "paper" else u))


# The Monte-Carlo oracle in its documented draw order, one replication at
# a time: the reference that simulate.gamma_samples reproduces bit for bit.
def reference_block(scn, rng, size, road=None):
    """Per-replication (gamma, outdoor count, indoor count) of `size`
    replications drawn from `rng` in gamma_samples' documented order. Each
    chord and each drawn user is handled on its own, in Python floats, and
    a distance's step is found by binary search of the step bounds."""
    gp, radius = scn.geometry, scn.cell_radius_km
    rate = 2.0 * gp.user_intensity_linear
    outdoor, indoor = scn.demand_steps

    def level(steps, x):
        return int(steps.values[np.searchsorted(steps.bounds, x)])

    if road is None:
        counts = rng.poisson(expected_roads(gp, radius), size=size)
        u = rng.uniform(size=int(counts.sum()))
        r = radius * (np.sqrt(u) if scn.sampler == "paper" else u)
    else:
        counts = np.full(size, road.single().counts[0])
        r = np.tile(np.minimum(road.chord_distances, radius), size)
    gamma = np.zeros(size, dtype=np.int64)
    n_out = np.zeros(size, dtype=np.int64)
    whole = [{} for _ in range(size)]  # step -> summed half length
    crossing = []  # (replication, r^2, half^2, half) in chord order
    for j, distances in enumerate(np.split(r, np.cumsum(counts)[:-1])):
        for x in distances.tolist():
            r2 = x * x
            half2 = max(radius ** 2 - r2, 0.0)
            half = math.sqrt(half2)
            step = int(np.searchsorted(outdoor.bounds, x))
            far = math.sqrt(half2 + r2)
            if step < outdoor.bounds.size and far > outdoor.bounds[step]:
                crossing.append((j, r2, half2, half))
            else:
                whole[j][step] = whole[j].get(step, 0.0) + half
    held = sorted({step for sums in whole for step, mass in sums.items()
                   if mass > 0 and outdoor.values[step] > 0})
    for j in range(size):
        for step in held:
            n = int(rng.poisson(rate * whole[j].get(step, 0.0)))
            gamma[j] += n * int(outdoor.values[step])
            n_out[j] += n
    split = [int(rng.poisson(rate * half)) for _, _, _, half in crossing]
    offsets = iter(rng.random(sum(split)).tolist())
    for (j, r2, half2, _), n in zip(crossing, split):
        for _ in range(n):
            t = next(offsets)
            d = level(outdoor, math.sqrt(half2 * (t * t) + r2))
            gamma[j] += d
            n_out[j] += d > 0

    n_in = np.zeros(size, dtype=np.int64)
    users = rng.poisson(gp.user_intensity_area * math.pi * radius ** 2, size=size)
    radii = iter((np.sqrt(rng.uniform(size=int(users.sum()))) * radius).tolist())
    for j, n in enumerate(users.tolist()):
        for _ in range(n):
            d = level(indoor, next(radii))
            gamma[j] += d
            n_in[j] += d > 0
    return gamma, n_out, n_in


def reference_gamma_samples(scn, replications, road=None):
    """gamma_samples one block at a time: block b drawn by reference_block
    from numpy's own generator on SeedSequence((seed, MC_TAG, b))."""
    parts = []
    for block in range(-(-replications // BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence((scn.seed, MC_TAG, block)))
        parts.append(reference_block(scn, rng, BLOCK, road))
    return tuple(np.concatenate([np.empty(0, dtype=np.int64), *column])[:replications]
                 for column in zip(*parts))


# The oracle's earlier law, user by user: every outdoor user is drawn on
# its chord and gets a distance. The distributional reference for
# gamma_samples, which draws the users of whole chords as one count.
@dataclass(frozen=True)
class UserDrop:
    """Users of `size` replications as flat arrays: replication j has
    `roads[j]` chords, chord c holds `chord_users[c]` users at offsets
    (fractions of its half length) that follow those of chords 0..c-1 in
    `offsets`, and replication j has `indoor_users[j]` indoor users at the
    distances that follow those of replications 0..j-1 in `indoor_km`."""

    size: int
    roads: np.ndarray
    chord_r2: np.ndarray
    chord_half2: np.ndarray
    chord_users: np.ndarray
    offsets: np.ndarray
    indoor_users: np.ndarray
    indoor_km: np.ndarray

    @property
    def outdoor_km(self):
        """Distance of each outdoor user from the cell centre."""
        return chord_user_km(self.chord_r2, self.chord_half2, self.chord_users, self.offsets)

    @property
    def outdoor_rep(self):
        """Replication of each outdoor user."""
        return np.repeat(np.repeat(np.arange(self.size), self.roads), self.chord_users)

    @property
    def indoor_rep(self):
        """Replication of each indoor user."""
        return np.repeat(np.arange(self.size), self.indoor_users)


def per_user_drop(gp, cell_radius_km, sampler, rng, size, road=None):
    """Users of `size` replications from one generator: roads by the law
    of sample_road_set (or the fixed `road` in every replication), then
    Poisson(2*delta*sqrt(R^2-r^2)) users uniform on each chord and
    Poisson(kappa*pi*R^2) users uniform in the disk."""
    if road is None:
        roads = rng.poisson(expected_roads(gp, cell_radius_km), size=size)
        u = rng.uniform(size=int(roads.sum()))
        r = cell_radius_km * (np.sqrt(u) if sampler == "paper" else u)
    else:
        roads = np.full(size, road.single().counts[0])
        r = np.tile(np.minimum(road.chord_distances, cell_radius_km), size)
    r2 = r * r
    half2 = np.maximum(cell_radius_km ** 2 - r2, 0.0)
    counts = rng.poisson(2.0 * gp.user_intensity_linear * np.sqrt(half2))
    offsets = rng.random(int(counts.sum()))
    n_indoor = rng.poisson(gp.user_intensity_area * math.pi * cell_radius_km ** 2, size=size)
    indoor = cell_radius_km * np.sqrt(rng.uniform(size=int(n_indoor.sum())))
    return UserDrop(size=size, roads=roads, chord_r2=r2, chord_half2=half2,
                    chord_users=counts, offsets=offsets, indoor_users=n_indoor,
                    indoor_km=indoor)


def per_user_demand(scn, users):
    """Per-replication (gamma, outdoor count, indoor count) of a UserDrop:
    every user's distance, replication index and level (by binary search
    of the interval ends), summed by bincount."""
    by_env = ((users.outdoor_rep, users.outdoor_km), (users.indoor_rep, users.indoor_km))
    gamma = np.zeros(users.size)
    counts = []
    for profile, (rep, km) in zip(profiles(scn), by_env):
        if scn.region_km is not None:
            lo, hi = scn.region_km
            inside = (km > lo) & (km <= hi)
            rep, km = rep[inside], km[inside]
        levels = profile.values[np.searchsorted(profile.bounds, km)]
        gamma += np.bincount(rep, weights=levels, minlength=users.size)
        counts.append(np.bincount(rep, minlength=users.size))
    return gamma.astype(np.int64), counts[0], counts[1]


def fixed_road(chord_distances):
    """The one-realization road set with these chord distances."""
    return RoadSet(counts=[len(chord_distances)], chord_distances=chord_distances)


def profiles(scn):
    """The scenario's (outdoor, indoor) demand n(x) over (0, R], not
    clipped to its region."""
    return tuple(ring_radii(scn.link_budget, scn.interference, scn.service, env)
                 for env in ("outdoor", "indoor"))


def rings(profile):
    """The level sets of a demand profile n(x) over (0, R]: level -> its
    annuli (u, v], innermost first, levels in the order they first appear
    outward."""
    ends = (0.0, *profile.bounds.tolist(), profile.span)
    out = {}
    for u, v, n in zip(ends, ends[1:], profile.values.tolist()):
        out.setdefault(n, []).append((u, v))
    return out


# Per-ring demand masses written interval by interval: the independent
# reference for congestion.weight_matrix.
def chord_mass(road, interval, delta):
    """Expected users on the road chords inside the annulus (u, v].

    Per road: 2*delta*(sqrt(v^2-r^2)_+ - sqrt(u^2-r^2)_+).
    """
    u, v = interval
    if not 0.0 <= u <= v:
        raise DomainError(f"bad interval ({u}, {v}]")
    r2 = road.chord_distances ** 2
    seg = np.sqrt(np.maximum(v * v - r2, 0.0)) - np.sqrt(np.maximum(u * u - r2, 0.0))
    return 2.0 * delta * float(seg.sum())


def _annulus_area(interval):
    u, v = interval
    return math.pi * (v * v - u * u)


def outdoor_masses(road, profile, delta):
    """Per-level expected outdoor user counts on this realization.

    Entry n-1 holds the mass of level n, up to the top level; levels with
    no interval get 0.
    """
    w = np.zeros(max(rings(profile)))
    for n, intervals in rings(profile).items():
        w[n - 1] = sum(chord_mass(road, iv, delta) for iv in intervals)
    return w


def indoor_masses(profile, kappa):
    """Per-level expected indoor user counts: kappa * area of each level set,
    up to the top level."""
    w = np.zeros(max(rings(profile)))
    for n, intervals in rings(profile).items():
        w[n - 1] = kappa * sum(_annulus_area(iv) for iv in intervals)
    return w


# The region-clipped ring tables interval by interval: the reference that
# congestion.Scenario._outdoor_table and _indoor_weights reproduce bit for bit.
def clip_intervals(intervals, region):
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


def reference_outdoor_table(scn):
    """(u^2, v^2, level - 1) arrays of the outdoor rings clipped to the
    scenario's region, level by level in the profile's order."""
    u2, v2, lv = [], [], []
    for n, ivs in rings(profiles(scn)[0]).items():
        for a, b in clip_intervals(ivs, scn.region_km):
            u2.append(a * a)
            v2.append(b * b)
            lv.append(n - 1)
    return np.array(u2), np.array(v2), np.array(lv, dtype=np.int64)


def reference_indoor_weights(scn):
    """Indoor masses kappa * area of the region-clipped rings, by level - 1,
    up to the top level of either environment."""
    kappa = scn.geometry.user_intensity_area
    outdoor, indoor = (rings(p) for p in profiles(scn))
    w = np.zeros(max(*outdoor, *indoor))
    for n, ivs in indoor.items():
        for a, b in clip_intervals(ivs, scn.region_km):
            w[n - 1] += kappa * math.pi * (b * b - a * a)
    return w


def fraction_bell_determinant(x):
    """B_k as the determinant of the binomial-band matrix A_k by Fraction
    Gaussian elimination with row swaps: the exact reference for the
    fraction-free `bell_determinant`."""
    from fractions import Fraction

    k = len(x)
    a = [[Fraction(math.comb(k - i, j - i) * x[j - i]) if i <= j else
          Fraction(-1 if i == j + 1 else 0) for j in range(1, k + 1)]
         for i in range(1, k + 1)]
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, k):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [v - factor * u for v, u in zip(a[r], a[col])]
    return det


def per_threshold_bell_literal(spec, m):
    """P(Lambda >= m) = 1 - H * sum_{k<m} B_k(x_1..x_k)/k!, each B_k a fresh
    `bell_complete` and the sum redone for each threshold: the reference
    for the one-sequence `ccdf_bell_literal`."""
    from prbdim import bell_complete

    acc = 0.0
    for k in range(m):
        acc += bell_complete(spec.bell_arguments(k)) / math.factorial(k)
    return 1.0 - math.exp(-spec.total_weight) * acc
