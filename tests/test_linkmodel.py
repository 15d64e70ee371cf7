import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prbdim import (DemandProfile, DomainError, InterferenceModel, LinkBudget,
                    Service, max_prbs_per_user, prbs_required, ring_radii,
                    sinr_at, throughput_at)

# Frozen high-precision closed-form values (50-digit scalar evaluation).
SINR_LIN_AT_0_7 = 695.27539416255885
RATE_AT_0_7 = 3399665.1229241564
INDOOR_RADII_NO_MARGIN = [0.37051373228027658, 0.48779414544578975,
                          0.56126341582713988, 0.61669933994378786,
                          0.66199726588087856]
INDOOR_RADII_15DB = [0.13811246617384099, 0.18182983933701185,
                     0.20921619842797596, 0.22988045868968322,
                     0.24676568511632227, 0.26119054659318878]


class TestSinr:
    def test_reference_distance_is_pure_db_arithmetic(self, link_budget, noise_limited):
        # 60 - 130 - 0 + 93 = 23 dB at 1 km
        assert sinr_at(link_budget, noise_limited, 1.0 - 0.3, "outdoor") == pytest.approx(
            SINR_LIN_AT_0_7, rel=1e-12)
        lb_1km = LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0,
                            prop_const_db=130.0, prop_const_indoor_db=166.0,
                            path_loss_exp=3.5, tx_antennas=8, rx_antennas=2,
                            prb_bandwidth_hz=180e3, cell_radius_km=1.0)
        assert sinr_at(lb_1km, noise_limited, 1.0, "outdoor") == pytest.approx(
            10 ** 2.3, rel=1e-12)
        assert sinr_at(lb_1km, noise_limited, 1.0, "indoor") == pytest.approx(
            10 ** -1.3, rel=1e-12)

    def test_closer_means_stronger(self, link_budget, noise_limited):
        assert sinr_at(link_budget, noise_limited, 0.7, "outdoor") == pytest.approx(
            SINR_LIN_AT_0_7, rel=1e-12)

    def test_margin_subtracts_in_db(self, link_budget):
        im = InterferenceModel(margins_db=(10.0,))
        ratio = (sinr_at(link_budget, InterferenceModel.noise_limited(), 0.5, "outdoor")
                 / sinr_at(link_budget, im, 0.5, "outdoor"))
        assert ratio == pytest.approx(10.0, rel=1e-12)

    def test_domain_errors(self, link_budget, noise_limited):
        with pytest.raises(DomainError):
            sinr_at(link_budget, noise_limited, 0.0, "outdoor")
        with pytest.raises(DomainError):
            sinr_at(link_budget, noise_limited, 0.71, "outdoor")
        with pytest.raises(DomainError):
            sinr_at(link_budget, noise_limited, 0.5, "underwater")

    def test_three_region_margin_lookup(self, three_region):
        assert three_region.margin_db_at(0.1) == 1.0
        assert three_region.margin_db_at(0.7 / 3) == 1.0  # boundary stays inner
        assert three_region.margin_db_at(0.3) == 8.0
        assert three_region.margin_db_at(0.5) == 15.0
        assert three_region.margins_db[-1] == 15.0


class TestThroughput:
    def test_unit_sinr_gives_one_bit_per_hz_per_layer(self):
        lb = LinkBudget(tx_power_dbm=0.0, noise_power_dbm=0.0, prop_const_db=0.0,
                        prop_const_indoor_db=0.0, path_loss_exp=3.0,
                        tx_antennas=2, rx_antennas=4, prb_bandwidth_hz=180e3,
                        cell_radius_km=1.0)
        # SINR is exactly 1 at x = 1 km
        assert throughput_at(lb, InterferenceModel.noise_limited(), 1.0, "outdoor") \
            == pytest.approx(2 * 180e3, rel=1e-12)

    def test_reference_value(self, link_budget, noise_limited):
        assert throughput_at(link_budget, noise_limited, 0.7, "outdoor") == pytest.approx(
            RATE_AT_0_7, rel=1e-12)

    def test_strictly_decreasing_within_region(self, link_budget, three_region):
        xs = np.linspace(0.25, 0.46, 40)
        rates = [throughput_at(link_budget, three_region, float(x), "outdoor") for x in xs]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestPrbsRequired:
    def test_ceiling_cases(self, link_budget, noise_limited):
        svc_small = Service(rate_bps=0.147 * RATE_AT_0_7)
        assert prbs_required(link_budget, noise_limited, svc_small, 0.7, "outdoor") == 1

        svc_exact = Service(rate_bps=RATE_AT_0_7)
        assert prbs_required(link_budget, noise_limited, svc_exact, 0.7, "outdoor") == 1

        svc_417 = Service(rate_bps=RATE_AT_0_7 * 25 / 6)  # ratio 4.1666..
        assert prbs_required(link_budget, noise_limited, svc_417, 0.7, "outdoor") == 5

    @pytest.mark.parametrize("env", ["indoor", "outdoor"])
    def test_matches_profile_everywhere(self, link_budget, three_region,
                                        service_500k, env):
        profile = ring_radii(link_budget, three_region, service_500k, env)
        rng = np.random.default_rng(7)
        xs = rng.uniform(1e-9, 0.7, 10_000)
        levels = profile.steps()(xs)
        mismatches = sum(
            prbs_required(link_budget, three_region, service_500k, float(x), env)
            != int(level)
            for x, level in zip(xs, levels))
        assert mismatches == 0

    def test_cap_applies(self, link_budget, noise_limited, service_500k):
        lb_capped = LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0,
                               prop_const_db=130.0, prop_const_indoor_db=166.0,
                               path_loss_exp=3.5, tx_antennas=8, rx_antennas=2,
                               prb_bandwidth_hz=180e3, cell_radius_km=0.7,
                               max_user_prbs=3)
        assert max_prbs_per_user(lb_capped, noise_limited, service_500k, "indoor") == 3
        assert prbs_required(lb_capped, noise_limited, service_500k, 0.69, "indoor") == 3


class TestRingRadii:
    def test_whole_cell_single_level(self, link_budget, noise_limited, service_500k):
        profile = ring_radii(link_budget, noise_limited, service_500k, "outdoor")
        assert profile.n_levels == 1
        assert profile.rings == {1: ((0.0, 0.7),)}

    def test_unit_parameter_algebra(self):
        # a(I+s2)/P = 1, C*/(theta W) = 1, exponent 2 -> d_1 = 1
        lb = LinkBudget(tx_power_dbm=0.0, noise_power_dbm=0.0, prop_const_db=0.0,
                        prop_const_indoor_db=0.0, path_loss_exp=2.0 + 1e-9,
                        tx_antennas=1, rx_antennas=1, prb_bandwidth_hz=1.0,
                        cell_radius_km=2.0)
        profile = ring_radii(lb, InterferenceModel.noise_limited(), Service(rate_bps=1.0),
                             "outdoor")
        assert profile.rings[1][0][1] == pytest.approx(1.0, rel=1e-6)

    def test_indoor_radii_match_closed_form(self, link_budget, noise_limited, service_500k):
        profile = ring_radii(link_budget, noise_limited, service_500k, "indoor")
        assert profile.n_levels == 6
        for n, expected in enumerate(INDOOR_RADII_NO_MARGIN, start=1):
            assert profile.rings[n][0][1] == pytest.approx(expected, rel=1e-12)
        assert profile.rings[6][0][1] == 0.7  # clamped to the cell edge

    def test_uniform_edge_margin_radii(self, link_budget, service_500k):
        im = InterferenceModel(margins_db=(15.0,))
        profile = ring_radii(link_budget, im, service_500k, "indoor")
        assert profile.n_levels == 175
        for n, expected in enumerate(INDOOR_RADII_15DB, start=1):
            assert profile.rings[n][0][1] == pytest.approx(expected, rel=1e-12)

    def test_ring_consistency_with_rate(self, link_budget, noise_limited, service_500k):
        # at each boundary d_n the rate is exactly C*/n
        profile = ring_radii(link_budget, noise_limited, service_500k, "indoor")
        for n in range(1, profile.n_levels):
            d_n = profile.rings[n][0][1]
            rate = throughput_at(link_budget, noise_limited, d_n, "indoor")
            assert n == pytest.approx(service_500k.rate_bps / rate, rel=1e-9)

    def test_three_region_partition(self, link_budget, three_region, service_500k):
        profile = ring_radii(link_budget, three_region, service_500k, "indoor")
        flat = sorted(iv for ivs in profile.rings.values() for iv in ivs)
        assert flat[0][0] == 0.0
        assert flat[-1][1] == 0.7
        for (_, v), (u, _) in zip(flat, flat[1:]):
            assert u == v

    def test_monotone_within_each_region(self, link_budget, three_region, service_500k):
        profile = ring_radii(link_budget, three_region, service_500k, "indoor")
        for lo, hi, _ in three_region.regions(0.7):
            xs = np.linspace(lo + 1e-9, hi, 50)
            levels = profile.steps()(xs)
            assert np.all(np.diff(levels) >= 0)

    def test_boundary_point_belongs_to_inner_level(self, link_budget, noise_limited,
                                                   service_500k):
        profile = ring_radii(link_budget, noise_limited, service_500k, "indoor")
        for n in range(1, 6):
            assert profile.steps()(np.array([profile.rings[n][0][1]]))[0] == n


class TestMonotonicityProperties:
    @settings(max_examples=30, deadline=None)
    @given(margin=st.floats(0.0, 25.0), x=st.floats(0.01, 0.7))
    def test_margin_never_lowers_demand(self, margin, x):
        lb = LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                        prop_const_indoor_db=166.0, path_loss_exp=3.5,
                        tx_antennas=8, rx_antennas=2, prb_bandwidth_hz=180e3,
                        cell_radius_km=0.7)
        svc = Service(rate_bps=500e3)
        base = prbs_required(lb, InterferenceModel.noise_limited(), svc, x, "indoor")
        raised = prbs_required(lb, InterferenceModel(margins_db=(margin,)), svc, x, "indoor")
        assert raised >= base

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(1e4, 5e6))
    def test_rate_never_lowers_cap(self, rate):
        lb = LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                        prop_const_indoor_db=166.0, path_loss_exp=3.5,
                        tx_antennas=8, rx_antennas=2, prb_bandwidth_hz=180e3,
                        cell_radius_km=0.7, max_user_prbs=10_000)
        im = InterferenceModel.noise_limited()
        n_low = max_prbs_per_user(lb, im, Service(rate_bps=rate), "indoor")
        n_high = max_prbs_per_user(lb, im, Service(rate_bps=rate * 1.7), "indoor")
        assert n_high >= n_low

    def test_indoor_needs_at_least_outdoor(self, link_budget, noise_limited, service_500k):
        for x in np.linspace(0.05, 0.7, 25):
            n_out = prbs_required(link_budget, noise_limited, service_500k, float(x), "outdoor")
            n_in = prbs_required(link_budget, noise_limited, service_500k, float(x), "indoor")
            assert n_in >= n_out


class TestValidation:
    def test_link_budget_invariants(self):
        with pytest.raises(DomainError):
            LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                       prop_const_indoor_db=166.0, path_loss_exp=1.9,
                       tx_antennas=8, rx_antennas=2, prb_bandwidth_hz=180e3,
                       cell_radius_km=0.7)
        with pytest.raises(DomainError):
            LinkBudget(tx_power_dbm=math.inf, noise_power_dbm=-93.0, prop_const_db=130.0,
                       prop_const_indoor_db=166.0, path_loss_exp=3.5,
                       tx_antennas=8, rx_antennas=2, prb_bandwidth_hz=180e3,
                       cell_radius_km=0.7)

    def test_interference_invariants(self):
        with pytest.raises(DomainError):
            InterferenceModel(margins_db=(-1.0,))
        with pytest.raises(DomainError):
            InterferenceModel(margins_db=(1.0, 2.0), breakpoints_km=())
        with pytest.raises(DomainError):
            InterferenceModel(margins_db=(1.0, 2.0, 3.0), breakpoints_km=(0.4, 0.2))

    def test_profile_partition_enforced(self):
        with pytest.raises(DomainError):
            DemandProfile(n_levels=2, rings={1: ((0.0, 0.3),), 2: ((0.4, 0.7),)},
                          environment="outdoor", cell_radius_km=0.7)
        with pytest.raises(DomainError):
            DemandProfile(n_levels=1, rings={1: ((0.0, 0.6),)},
                          environment="outdoor", cell_radius_km=0.7)


def searchsorted_levels(profile, x):
    """The binary-search lookup: level of the first interval whose upper
    end is >= x, the outermost beyond R."""
    ivs = sorted((u, v, n) for n, lst in profile.rings.items() for u, v in lst)
    uppers = np.array([v for _, v, _ in ivs])
    levels = np.array([n for _, _, n in ivs])
    return levels[np.minimum(np.searchsorted(uppers, x), len(levels) - 1)]


def probe_points(profile):
    """Every interval end and its two float neighbours, 0, R and just past R."""
    ends = np.array([v for ivs in profile.rings.values() for _, v in ivs])
    r = profile.cell_radius_km
    return np.concatenate((ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
                           [0.0, r, np.nextafter(r, np.inf)]))


@st.composite
def tilings(draw):
    """A demand profile over (0, R] with up to 256 levels, where a level may
    own several intervals and interval ends may sit a few ulps apart."""
    r = draw(st.sampled_from([0.7, 1.0, 3.3]))
    n_levels = draw(st.integers(1, 256))
    ends = draw(st.lists(st.floats(0.0, r, exclude_min=True, exclude_max=True),
                         max_size=300, unique=True))
    if ends:
        ends += [np.nextafter(e, r) for e in draw(st.lists(st.sampled_from(ends), max_size=5))]
    ends = sorted(set(ends) - {r}) + [r]
    levels = draw(st.lists(st.integers(1, n_levels), min_size=len(ends), max_size=len(ends)))
    rings = {}
    for lo, hi, n in zip([0.0] + ends[:-1], ends, levels):
        rings.setdefault(n, []).append((lo, hi))
    return DemandProfile(n_levels=n_levels, rings={n: tuple(ivs) for n, ivs in rings.items()},
                         environment="outdoor", cell_radius_km=r)


class TestLevelLookup:
    """steps() reads a table of uniform cells; the binary search over the
    interval ends is the reference, at and around every end."""

    @settings(max_examples=200, deadline=None)
    @given(profile=tilings())
    def test_random_tilings(self, profile):
        x = probe_points(profile)
        np.testing.assert_array_equal(profile.steps()(x), searchsorted_levels(profile, x))

    @settings(max_examples=60, deadline=None)
    @given(margins=st.lists(st.floats(0.0, 25.0), min_size=1, max_size=4),
           cuts=st.lists(st.floats(0.01, 0.69), min_size=3, max_size=3, unique=True),
           cap=st.integers(1, 256), env=st.sampled_from(["indoor", "outdoor"]))
    def test_ring_radii_split_by_margins(self, margins, cuts, cap, env):
        im = InterferenceModel(margins_db=tuple(margins),
                               breakpoints_km=tuple(sorted(cuts)[:len(margins) - 1]))
        lb = LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                        prop_const_indoor_db=166.0, path_loss_exp=3.5, tx_antennas=8,
                        rx_antennas=2, prb_bandwidth_hz=180e3, cell_radius_km=0.7,
                        max_user_prbs=cap)
        profile = ring_radii(lb, im, Service(rate_bps=500e3), env)
        x = probe_points(profile)
        np.testing.assert_array_equal(profile.steps()(x), searchsorted_levels(profile, x))

    @settings(max_examples=100, deadline=None)
    @given(profile=tilings(), lo=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0,
                                                                    exclude_min=True))
    def test_region_steps(self, profile, lo, width):
        # inside (lo, hi] the level, outside 0, as a mask on distances gives it
        r = profile.cell_radius_km
        lo, hi = lo * r, min(lo * r + width * r, r)
        if not lo < hi:
            return
        x = np.concatenate((probe_points(profile), [lo, hi], np.nextafter([lo, hi], -np.inf),
                            np.nextafter([lo, hi], np.inf)))
        want = np.where((x > lo) & (x <= hi), searchsorted_levels(profile, x), 0)
        np.testing.assert_array_equal(profile.steps((lo, hi))(x), want)

    def test_region_beyond_the_cell_is_refused(self):
        profile = DemandProfile(n_levels=2, rings={1: ((0.0, 0.3),), 2: ((0.3, 0.7),)},
                                environment="outdoor", cell_radius_km=0.7)
        with pytest.raises(DomainError, match="step bounds"):
            profile.steps((0.2, 0.9))
