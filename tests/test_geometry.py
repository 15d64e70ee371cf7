import math
import tracemalloc

import numpy as np
import pytest
from conftest import (chord_mass, fixed_road, indoor_masses, outdoor_masses, per_user_drop,
                      reference_roads, road_stream)
from hypothesis import given, settings, strategies as st

from prbdim import (CompoundSpec, CongestionCurve, DomainError, EmpiricalCurve, GeometryParams,
                    RoadSet, Scenario, StepFunction, expected_roads, mean_users,
                    sample_road_set)
from prbdim.geometry import stream_states, streams

R = 0.7


def gp(lam=0.0, delta=0.0, kappa=0.0):
    return GeometryParams(road_intensity=lam, user_intensity_linear=delta,
                          user_intensity_area=kappa)


def single_level_profile():
    return StepFunction((), (1,), R)


class TestSampleRoads:
    """The road law, on sample_road_set or on the per-realization reference
    that it equals bit for bit (tests/test_streams.py)."""

    def test_zero_intensity_gives_empty(self):
        roads = sample_road_set(gp(lam=0.0), R, "paper", 0, 3)
        assert roads.counts.tolist() == [0, 0, 0]

    def test_poisson_road_count(self):
        # E(Y) = 2*pi*9*0.7 ~ 39.58; mean over many draws within 1%
        target = expected_roads(gp(lam=9.0), R)
        assert target == pytest.approx(39.584067435231395, rel=1e-12)
        rng = road_stream(42, 0)
        counts = [len(reference_roads(gp(lam=9.0), R, "paper", rng).chord_distances)
                  for _ in range(20_000)]
        assert np.mean(counts) == pytest.approx(target, rel=0.01)

    def test_radius_law_moments(self):
        # paper sampler: E[r] = 2R/3; standard: E[r] = R/2
        rng = road_stream(43, 0)
        r_paper = np.concatenate([
            reference_roads(gp(lam=20.0), R, "paper", rng).chord_distances
            for _ in range(2000)])
        rng = road_stream(43, 0)
        r_std = np.concatenate([
            reference_roads(gp(lam=20.0), R, "standard", rng).chord_distances
            for _ in range(2000)])
        assert r_paper.mean() == pytest.approx(2 * R / 3, rel=0.01)
        assert r_std.mean() == pytest.approx(R / 2, rel=0.01)

    def test_deterministic_given_stream(self):
        a = sample_road_set(gp(lam=5.0), R, "paper", 9, 4)
        b = sample_road_set(gp(lam=5.0), R, "paper", 9, 4)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.chord_distances, b.chord_distances)

    def test_unknown_sampler_rejected(self, link_budget, noise_limited, service_500k):
        with pytest.raises(DomainError):
            sample_road_set(gp(lam=1.0), R, "sobol", 0, 1)
        # the Monte-Carlo oracle draws roads for a scenario, which refuses it
        with pytest.raises(DomainError):
            Scenario(link_budget=link_budget, interference=noise_limited,
                     service=service_500k, geometry=gp(lam=1.0), sampler="sobol")


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda: sample_road_set(gp(lam=1.0), 0.0, "paper", 0, 3),
         "cell_radius_km 0 must be positive and finite"),
        (lambda: sample_road_set(gp(lam=1.0), -R, "standard", 0, 3),
         f"cell_radius_km {-R:g} must be positive and finite"),
        (lambda: stream_states((0,), -1), "stream count -1 must lie in [0, 2^32]"),
        (lambda: stream_states((0,), 2 ** 32 + 1),
         "stream count 4294967297 must lie in [0, 2^32]"),
    ])
    def test_out_of_range_inputs_are_named(self, call, message):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as exc:
                call()
            # refused before any per-stream array exists
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        assert str(exc.value) == message

    def test_no_streams_yield_nothing(self):
        assert list(streams((0,), 0)) == []
        assert stream_states((0,), 0).shape == (0, 4)


class TestChordMass:
    def test_diameter_road(self):
        road = fixed_road([0.0])
        assert chord_mass(road, (0.0, 0.5), delta=3.0) == pytest.approx(2 * 3.0 * 0.5)

    def test_road_outside_annulus(self):
        road = fixed_road([0.6])
        assert chord_mass(road, (0.0, 0.5), delta=3.0) == 0.0

    def test_reference_value(self):
        road = fixed_road([0.3])
        assert chord_mass(road, (0.4, 0.5), delta=6.0) == pytest.approx(
            1.6250984267224913, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_additive_over_adjacent_intervals(self, data):
        r = data.draw(st.lists(st.floats(0.0, R), min_size=0, max_size=6))
        cuts = sorted(data.draw(st.lists(st.floats(0.0, R), min_size=3, max_size=3,
                                         unique=True)))
        u, v, w = cuts
        road = fixed_road(r)
        whole = chord_mass(road, (u, w), delta=2.5)
        parts = chord_mass(road, (u, v), delta=2.5) + chord_mass(road, (v, w), delta=2.5)
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_bad_interval_rejected(self):
        road = fixed_road([0.1])
        with pytest.raises(DomainError):
            chord_mass(road, (0.5, 0.4), delta=1.0)


class TestMasses:
    def test_empty_realization(self):
        road = fixed_road([])
        w = outdoor_masses(road, single_level_profile(), delta=6.0)
        assert w.tolist() == [0.0]

    def test_total_equals_full_chord_mass(self):
        road = fixed_road([0.1, 0.25, 0.61])
        profile = StepFunction((0.2, 0.45), (1, 2, 3), R)
        w = outdoor_masses(road, profile, delta=6.0)
        assert w.sum() == pytest.approx(chord_mass(road, (0.0, R), 6.0), rel=1e-12)

    def test_partial_sums_telescope(self):
        # partial sums over levels equal the disk masses alpha_n directly
        road = fixed_road([0.05, 0.3, 0.5])
        bounds = [0.0, 0.2, 0.45, R]
        profile = StepFunction(bounds[1:-1], (1, 2, 3), R)
        w = outdoor_masses(road, profile, delta=4.0)
        for n in (1, 2, 3):
            alpha_n = chord_mass(road, (0.0, bounds[n]), 4.0)
            assert w[:n].sum() == pytest.approx(alpha_n, rel=1e-12)

    def test_diameter_road_split(self):
        road = fixed_road([0.0])
        profile = StepFunction((0.2,), (1, 2), R)
        w = outdoor_masses(road, profile, delta=6.0)
        assert w[0] == pytest.approx(2 * 6.0 * 0.2)
        assert w[1] == pytest.approx(2 * 6.0 * 0.5)

    def test_indoor_masses(self):
        w = indoor_masses(single_level_profile(), kappa=54.0)
        assert w[0] == pytest.approx(83.126541613985929, rel=1e-12)

    def test_indoor_area_ratio(self):
        profile = StepFunction((R / 2,), (1, 2), R)
        w = indoor_masses(profile, kappa=10.0)
        assert w[1] / w[0] == pytest.approx(3.0, rel=1e-12)
        assert w.sum() == pytest.approx(10.0 * math.pi * R * R, rel=1e-12)


class TestMeanUsers:
    def test_printed_formula(self):
        assert mean_users(gp(lam=9.0, delta=6.0), R) == pytest.approx(
            83.126541613985929, rel=1e-12)
        assert mean_users(gp(kappa=54.0), R) == pytest.approx(
            83.126541613985929, rel=1e-12)
        assert mean_users(gp(), R) == 0.0


class TestSampleUsers:
    """The law of the per-user drawer in conftest, the distributional
    reference that the Monte-Carlo oracle is checked against."""

    def test_empty_without_intensity(self):
        users = per_user_drop(gp(lam=9.0), R, "paper", road_stream(1, 1), 50)
        assert users.size == 50
        assert users.outdoor_km.size == users.indoor_km.size == 0
        assert users.outdoor_rep.size == users.indoor_rep.size == 0

    def test_diameter_road_distance_law(self):
        # distances on a through-center chord are |uniform(-R, R)|
        road = fixed_road([0.0])
        users = per_user_drop(gp(delta=40.0), R, "paper", road_stream(2, 0), 400, road)
        assert users.outdoor_km.mean() == pytest.approx(R / 2, rel=0.02)
        assert users.outdoor_km.max() <= R

    def test_indoor_mean_count(self):
        users = per_user_drop(gp(kappa=54.0), R, "paper", road_stream(3, 0), 10_000)
        counts = np.bincount(users.indoor_rep, minlength=10_000)
        assert np.mean(counts) == pytest.approx(54.0 * math.pi * R * R, rel=0.02)
        assert users.indoor_km.max() <= R

    def test_counts_match_chord_mass_in_annulus(self):
        # empirical user counts in an annulus converge to its chord mass
        road = fixed_road([0.1, 0.33, 0.52])
        interval = (0.2, 0.55)
        expected = chord_mass(road, interval, delta=8.0)
        users = per_user_drop(gp(delta=8.0), R, "paper", road_stream(4, 0), 20_000, road)
        d = users.outdoor_km
        hits = np.bincount(users.outdoor_rep[(d > interval[0]) & (d <= interval[1])],
                           minlength=20_000)
        assert np.mean(hits) == pytest.approx(expected, rel=0.02)

    def test_disk_mass_expectation_under_paper_law(self):
        # E[alpha_n] = (4 delta omega / 3) d_n^3 / R^2 for the disk of radius d_n
        lam, delta, d_n = 9.0, 6.0, 0.4
        omega = expected_roads(gp(lam=lam), R)
        expected = 4 * delta * omega / 3 * d_n ** 3 / R ** 2
        rng = road_stream(5, 0)
        masses = []
        for _ in range(20_000):
            road = reference_roads(gp(lam=lam), R, "paper", rng)
            masses.append(chord_mass(road, (0.0, d_n), delta))
        assert np.mean(masses) == pytest.approx(expected, rel=0.01)


# Records over numpy arrays compare by identity and hash: a generated
# __eq__ would ask an array for its truth value, and __hash__ would hash one.
@pytest.mark.parametrize("make", [
    lambda: RoadSet(counts=[2], chord_distances=[0.1, 0.2]),
    lambda: CompoundSpec([1.0, 2.0]),
    lambda: CongestionCurve(np.arange(2), np.array([1.0, 0.5]), np.zeros(2)),
    lambda: EmpiricalCurve(np.arange(2), np.array([1.0, 0.5]), np.zeros(2), np.ones(2),
                           1.0, 1.0, 0.0),
], ids=["RoadSet", "CompoundSpec", "CongestionCurve", "EmpiricalCurve"])
def test_array_records_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2
