"""Road geometry: PLP road realizations conditioned to the cell disk, the
chord law, user distances on chords, and the batched stream seeding of the
road and Monte-Carlo draws (SeedSequence's hash alone; numpy seeds PCG64).

Sampling is deterministic given an explicit generator.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, as_float, check_size, read_array, read_choice, read_count,
                     read_fields, read_real, reading)

PAPER = "paper"
STANDARD = "standard"
SAMPLERS = (PAPER, STANDARD)

# numpy's SeedSequence hash (pool of 4 uint32 words), for `stream_states`.
_MASK32 = 0xFFFF_FFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_XSHIFT = np.uint32(16)


@dataclass(frozen=True)
class GeometryParams:
    """Intensities: roads per km (PLP), users per km of road, users per km^2."""

    road_intensity: float = reading(read_real, "nonnegative")
    user_intensity_linear: float = reading(read_real, "nonnegative")
    user_intensity_area: float = reading(read_real, "nonnegative")
    __post_init__ = read_fields


@dataclass(frozen=True, eq=False)
class RoadSet:
    """R road realizations as flat arrays: realization i has `counts[i]`
    roads, whose chord distances follow those of realizations 0..i-1 in
    `chord_distances`. A fixed road is a one-realization road set."""

    counts: np.ndarray = reading(read_array, "nonnegative", True)
    chord_distances: np.ndarray = reading(read_array, "nonnegative")

    def __post_init__(self):
        read_fields(self)
        if self.counts.sum() != self.chord_distances.size:
            raise DomainError("road counts must sum to the chord count")

    def __len__(self) -> int:
        return int(self.counts.size)

    def __iter__(self) -> Iterator[RoadSet]:
        """The realizations one by one, each as a one-realization road set,
        for checks rather than hot paths."""
        stops = np.cumsum(self.counts)
        for stop, count in zip(stops.tolist(), self.counts.tolist()):
            yield RoadSet(counts=[count], chord_distances=self.chord_distances[stop - count:stop])

    def single(self) -> RoadSet:
        """This road set, checked to hold exactly one realization."""
        if len(self) != 1:
            raise DomainError(f"a fixed road is one road realization, not {len(self)}")
        return self


def chord_user_km(r2: np.ndarray, half2: np.ndarray, users: np.ndarray,
                  offsets: np.ndarray) -> np.ndarray:
    """Distances of the users on chords (r2, half2) holding `users` users
    at `offsets`: a user at offset t*half from the chord's midpoint lies
    at sqrt(r^2 + t^2*half^2), always computed in this operation order,
    so any subset of chords gives its users the same bits."""
    km = np.repeat(half2, users)
    km *= offsets * offsets
    km += np.repeat(r2, users)
    return np.sqrt(km, out=km)


def _words(value: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative integer."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays: xor with a running
    constant, advance the constant, multiply by it, fold the high half."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)
    return hashmix


def stream_states(prefix: tuple[int, ...], count: int) -> np.ndarray:
    """count x 4 array whose row i is
    ``SeedSequence(prefix + (i,)).generate_state(4, np.uint64)``.

    A port of SeedSequence's uint32 hash to numpy columns over i: every
    entropy word and pool word is a column, and the hash constants, which
    do not depend on the data, are Python integers.
    """
    if not 0 <= count <= _MASK32 + 1:
        raise DomainError(f"stream count {count} must lie in [0, 2^32]")
    entropy = [np.full(count, w, dtype=np.uint32) for v in prefix for w in _words(v)]
    entropy.append(np.arange(count, dtype=np.uint32))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    # word pairs are little-endian uint64s, as in generate_state
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(words[0::2], words[1::2])],
                    axis=1)


class _Words:
    """A row of `stream_states`, whose buffer PCG64 reads, as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"stream words are 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def streams(prefix: tuple[int, ...], count: int) -> Iterator[np.random.Generator]:
    """The generators ``default_rng(SeedSequence(prefix + (i,)))`` for i in
    range(count): numpy's PCG64 seeds each from row i of `stream_states`.
    Stream 0's words are checked against numpy's own SeedSequence, so a
    numpy that hashes differently raises rather than drawing other numbers.
    """
    states = stream_states(prefix, count)
    if not count:
        return
    reference = np.random.SeedSequence(prefix + (0,)).generate_state(4, np.uint64)
    if not np.array_equal(states[0], reference):
        raise RuntimeError(f"stream words disagree with numpy's SeedSequence at {prefix + (0,)}")
    # registered, not subclassed, so that importing this module imports no numpy.random
    np.random.bit_generator.ISeedSequence.register(_Words)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for words in states:
        yield generator(pcg64(_Words(words)))


def expected_roads(gp: GeometryParams, cell_radius_km: float) -> float:
    """Mean number of roads hitting the cell disk: 2*pi*lambda*R."""
    return 2.0 * math.pi * gp.road_intensity * cell_radius_km


def sample_road_set(gp: GeometryParams, cell_radius_km: float, sampler: str,
                    seed: int, count: int) -> RoadSet:
    """Realizations 0..count-1 of the PLP conditioned to the cell disk.

    Realization i draws from ``default_rng(SeedSequence((seed, i)))``:
    Y ~ Poisson(2*pi*lambda*R) roads, then Y uniforms U mapped to chord
    distances. Sampler `paper` takes r = R*sqrt(U) (uniform in the disk,
    the law the closed-form mean load assumes); `standard` takes r = R*U
    (uniform on [0, R], the half-cylinder construction).  More than
    MAX_POINTS expected draws (a count per realization, a uniform per chord) are refused.
    """
    read_real(cell_radius_km, "cell_radius_km", "positive")
    seed, count = read_count(seed, "seed", 0), read_count(count, "count", 0)
    read_choice(sampler, "sampler", SAMPLERS)
    mean = expected_roads(gp, cell_radius_km)
    check_size(as_float(count) * (1.0 + mean), "draws",
               f"road_intensity {gp.road_intensity:g} over {count} realizations")
    # rng.random(y) returns the bits of rng.uniform(size=y), which computes
    # 0 + 1*u from the same u, at half the call overhead
    uniforms = [rng.random(int(rng.poisson(mean))) for rng in streams((seed,), count)]
    counts = [u.size for u in uniforms]
    u = np.concatenate([np.empty(0)] + uniforms)
    del uniforms  # the flat copy replaces them before the road set copies it
    return RoadSet(counts=counts, chord_distances=chord_law(cell_radius_km, sampler, u))


def chord_law(cell_radius_km: float, sampler: str, u: np.ndarray) -> np.ndarray:
    """Chord distances from uniforms, computed in place in `u`: R*sqrt(U)
    for sampler `paper`, R*U for `standard`."""
    if sampler == PAPER:
        np.sqrt(u, out=u)
    u *= cell_radius_km
    return u


def mean_users(gp: GeometryParams, cell_radius_km: float) -> float:
    """Average user count (lambda*delta + kappa) * pi * R^2.

    This is the printed intensity convention; the outdoor point process as
    sampled has a different measured mean, which `simulate` reports
    separately rather than reconciling.
    """
    lam_delta = gp.road_intensity * gp.user_intensity_linear
    return (lam_delta + gp.user_intensity_area) * math.pi * cell_radius_km ** 2
