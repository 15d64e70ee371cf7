"""User point processes: PLP road realizations, Cox users on roads and
the indoor spatial PPP.

Sampling is deterministic given an explicit generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

PAPER = "paper"
STANDARD = "standard"
SAMPLERS = (PAPER, STANDARD)


@dataclass(frozen=True)
class GeometryParams:
    """Intensities: roads per km (PLP), users per km of road, users per km^2."""

    road_intensity: float
    user_intensity_linear: float
    user_intensity_area: float

    def __post_init__(self):
        for name in ("road_intensity", "user_intensity_linear", "user_intensity_area"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise DomainError(f"{name} must be nonnegative and finite")


@dataclass(frozen=True)
class RoadRealization:
    """One sampled PLP conditioned to the cell disk: chord distances r_j."""

    chord_distances: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.chord_distances, dtype=float)
        if arr.ndim != 1:
            raise DomainError("chord_distances must be one-dimensional")
        if arr.size and arr.min() < 0:
            raise DomainError("chord distances must be nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "chord_distances", arr)

    @property
    def count(self) -> int:
        """Number of roads hitting the cell (Y)."""
        return int(self.chord_distances.size)


@dataclass(frozen=True)
class UserBlock:
    """Users of `size` replications as flat arrays, split by environment.

    The user at `outdoor_km[k]` belongs to replication `outdoor_rep[k]`
    (0 <= rep < size); likewise for the indoor arrays.
    """

    size: int
    outdoor_rep: np.ndarray
    outdoor_km: np.ndarray
    indoor_rep: np.ndarray
    indoor_km: np.ndarray


def rng_stream(seed: int, index: int) -> np.random.Generator:
    """Independent reproducible stream for road realization `index`."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def expected_roads(gp: GeometryParams, cell_radius_km: float) -> float:
    """Mean number of roads hitting the cell disk: 2*pi*lambda*R."""
    return 2.0 * math.pi * gp.road_intensity * cell_radius_km


def sample_roads(gp: GeometryParams, cell_radius_km: float, sampler: str,
                 rng: np.random.Generator) -> RoadRealization:
    """Draw Y ~ Poisson(2*pi*lambda*R) roads and their chord distances.

    Sampler `paper` takes r = R*sqrt(U) (uniform in the disk, the law the
    closed-form mean load assumes); `standard` takes r = R*U (uniform on
    [0, R], the half-cylinder construction).
    """
    _check_disk(cell_radius_km, sampler)
    y = int(rng.poisson(expected_roads(gp, cell_radius_km)))
    return RoadRealization(chord_distances=_chord_law(cell_radius_km, sampler,
                                                      rng.uniform(size=y)))


def _check_disk(cell_radius_km: float, sampler: str) -> None:
    if cell_radius_km <= 0:
        raise DomainError("cell_radius_km must be positive")
    if sampler not in SAMPLERS:
        raise DomainError(f"unknown sampler {sampler!r}")


def _chord_law(cell_radius_km: float, sampler: str, u: np.ndarray) -> np.ndarray:
    return cell_radius_km * (np.sqrt(u) if sampler == PAPER else u)


def mean_users(gp: GeometryParams, cell_radius_km: float) -> float:
    """Average user count (lambda*delta + kappa) * pi * R^2.

    This is the printed intensity convention; the outdoor point process as
    sampled has a different measured mean, which `simulate` reports
    separately rather than reconciling.
    """
    lam_delta = gp.road_intensity * gp.user_intensity_linear
    return (lam_delta + gp.user_intensity_area) * math.pi * cell_radius_km ** 2


def sample_user_block(gp: GeometryParams, cell_radius_km: float, sampler: str,
                      rng: np.random.Generator, size: int,
                      road: RoadRealization | None = None) -> UserBlock:
    """Drop users for `size` independent replications from one generator.

    Each replication draws its own roads as :func:`sample_roads` does, or,
    given `road`, keeps that road set and redraws only the users. Outdoor:
    per chord at distance r, Poisson(2*delta*sqrt(R^2-r^2)) users uniform
    on the chord. Indoor: Poisson(kappa*pi*R^2) users uniform in the disk.
    The whole block is drawn as flat arrays in a fixed order: road counts,
    chord distances, users per chord, chord offsets, indoor counts, indoor
    radii.
    """
    _check_disk(cell_radius_km, sampler)
    reps = np.arange(size)
    if road is None:
        roads = rng.poisson(expected_roads(gp, cell_radius_km), size=size)
        r = _chord_law(cell_radius_km, sampler, rng.uniform(size=int(roads.sum())))
    else:
        roads = np.full(size, road.count)
        r = np.tile(np.minimum(road.chord_distances, cell_radius_km), size)
    r2 = r * r
    half2 = np.maximum(cell_radius_km ** 2 - r2, 0.0)
    counts = rng.poisson(2.0 * gp.user_intensity_linear * np.sqrt(half2))
    # A user at offset t*half from the chord's midpoint, t uniform on
    # [-1, 1], lies at distance sqrt(r^2 + t^2*half^2); only |t| matters.
    t2 = rng.random(int(counts.sum()))
    t2 *= t2
    outdoor = np.repeat(half2, counts)
    outdoor *= t2
    outdoor += np.repeat(r2, counts)
    np.sqrt(outdoor, out=outdoor)

    n_indoor = rng.poisson(gp.user_intensity_area * math.pi * cell_radius_km ** 2, size=size)
    indoor = rng.uniform(size=int(n_indoor.sum()))
    np.sqrt(indoor, out=indoor)
    indoor *= cell_radius_km
    return UserBlock(size=size, outdoor_rep=np.repeat(np.repeat(reps, roads), counts),
                     outdoor_km=outdoor, indoor_rep=np.repeat(reps, n_indoor),
                     indoor_km=indoor)
