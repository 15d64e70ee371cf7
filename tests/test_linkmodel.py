import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prbdim import (DomainError, InterferenceModel, LinkBudget, Service, StepFunction,
                    dimension_prbs, max_prbs_per_user, prbs_required, ring_radii, sinr_at,
                    throughput_at)
from prbdim.scenario_io import bundled_scenario, bundled_scenario_path, parse_scenario

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
        levels = profile(xs)
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


# For every bundled scenario, with its margins and noise-limited, as written
# and with prop_const_db = 150 at max_user_prbs 256 and 2000, in both
# environments: the piece count of n(x) and the sha256 (first 32 hex digits)
# of its float64 bounds then its int64 values, recorded as the uppers[:-1]
# and levels of the DemandProfile that ring_radii returned before it returned
# the StepFunction itself.
PINNED_PIECES = json.loads((Path(__file__).parent / "ring_radii_pieces.json").read_text())


class TestRingRadii:
    @pytest.mark.parametrize("name", sorted({key.split("/")[0] for key in PINNED_PIECES}))
    def test_pieces_pinned_bit_for_bit(self, name):
        base = bundled_scenario(name)
        docs = {"file": base,
                **{f"pc150_n{n}": dataclasses.replace(base, prop_const_db=150.0, max_user_prbs=n)
                   for n in (256, 2000)}}
        keys = [key for key in PINNED_PIECES if key.startswith(f"{name}/")]
        assert len(keys) == 12
        for key in keys:
            _, variant, margins, env = key.split("/")
            doc = docs[variant]
            profile = ring_radii(doc.link_budget(), doc.interference(margins == "noise_limited"),
                                 doc.service(), env)
            data = profile.bounds.astype("<f8").tobytes() + profile.values.astype("<i8").tobytes()
            assert profile.span == doc.cell_radius_km
            assert [profile.values.size, hashlib.sha256(data).hexdigest()[:32]] \
                == PINNED_PIECES[key], key

    def test_whole_cell_single_level(self, link_budget, noise_limited, service_500k):
        profile = ring_radii(link_budget, noise_limited, service_500k, "outdoor")
        assert (profile.bounds.tolist(), profile.values.tolist(), profile.span) == ([], [1], 0.7)

    def test_unit_parameter_algebra(self):
        # a(I+s2)/P = 1, C*/(theta W) = 1, exponent 2 -> d_1 = 1
        lb = LinkBudget(tx_power_dbm=0.0, noise_power_dbm=0.0, prop_const_db=0.0,
                        prop_const_indoor_db=0.0, path_loss_exp=2.0 + 1e-9,
                        tx_antennas=1, rx_antennas=1, prb_bandwidth_hz=1.0,
                        cell_radius_km=2.0)
        profile = ring_radii(lb, InterferenceModel.noise_limited(), Service(rate_bps=1.0),
                             "outdoor")
        assert profile.bounds[0] == pytest.approx(1.0, rel=1e-6)

    def test_indoor_radii_match_closed_form(self, link_budget, noise_limited, service_500k):
        profile = ring_radii(link_budget, noise_limited, service_500k, "indoor")
        assert profile.values.tolist() == [1, 2, 3, 4, 5, 6]
        assert profile.bounds.size == len(INDOOR_RADII_NO_MARGIN)
        for d_n, expected in zip(profile.bounds, INDOOR_RADII_NO_MARGIN):
            assert d_n == pytest.approx(expected, rel=1e-12)
        assert profile.span == 0.7  # level 6 ends at the cell edge

    def test_uniform_edge_margin_radii(self, link_budget, service_500k):
        im = InterferenceModel(margins_db=(15.0,))
        profile = ring_radii(link_budget, im, service_500k, "indoor")
        assert max_prbs_per_user(link_budget, im, service_500k, "indoor") == 175
        assert profile.values.tolist() == list(range(1, 176))
        for d_n, expected in zip(profile.bounds, INDOOR_RADII_15DB):
            assert d_n == pytest.approx(expected, rel=1e-12)

    def test_ring_consistency_with_rate(self, link_budget, noise_limited, service_500k):
        # at each boundary d_n the rate is exactly C*/n
        profile = ring_radii(link_budget, noise_limited, service_500k, "indoor")
        for n, d_n in zip(profile.values, profile.bounds):
            rate = throughput_at(link_budget, noise_limited, d_n, "indoor")
            assert n == pytest.approx(service_500k.rate_bps / rate, rel=1e-9)

    def test_three_region_partition(self, link_budget, three_region, service_500k):
        profile = ring_radii(link_budget, three_region, service_500k, "indoor")
        assert profile.values.size == profile.bounds.size + 1 > 3
        ends = (0.0, *profile.bounds, profile.span)
        assert all(u < v for u, v in zip(ends, ends[1:]))
        assert profile.span == 0.7

    def test_monotone_within_each_region(self, link_budget, three_region, service_500k):
        profile = ring_radii(link_budget, three_region, service_500k, "indoor")
        for lo, hi, _ in three_region.regions(0.7):
            xs = np.linspace(lo + 1e-9, hi, 50)
            levels = profile(xs)
            assert np.all(np.diff(levels) >= 0)

    def test_boundary_point_belongs_to_inner_level(self, link_budget, noise_limited,
                                                   service_500k):
        profile = ring_radii(link_budget, noise_limited, service_500k, "indoor")
        for n, d_n in zip(profile.values, (*profile.bounds, profile.span)):
            assert profile(np.array([d_n]))[0] == n


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

    @pytest.mark.parametrize("make, message", [
        (lambda lb: dataclasses.replace(lb, tx_antennas=0), "tx_antennas 0 must be at least 1"),
        (lambda lb: dataclasses.replace(lb, rx_antennas=0), "rx_antennas 0 must be at least 1"),
        (lambda lb: dataclasses.replace(lb, prb_bandwidth_hz=0.0),
         "prb_bandwidth_hz 0 must be positive and finite"),
        (lambda lb: dataclasses.replace(lb, cell_radius_km=-0.7),
         "cell_radius_km -0.7 must be positive and finite"),
        (lambda lb: dataclasses.replace(lb, max_user_prbs=0), "max_user_prbs 0 must be at least 1"),
        (lambda lb: Service(rate_bps=0), "rate_bps 0 must be positive and finite"),
    ])
    def test_radio_ranges_are_named(self, link_budget, make, message):
        with pytest.raises(DomainError) as exc:
            make(link_budget)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field", ["tx_antennas", "rx_antennas", "max_user_prbs"])
    @pytest.mark.parametrize("value", [1.5, 6.5, 2.0, True, np.float64(4.0)])
    def test_counts_must_be_integers(self, link_budget, field, value):
        # the Shannon rate takes min(tx, rx) as a whole number of spatial layers
        with pytest.raises(DomainError) as exc:
            dataclasses.replace(link_budget, **{field: value})
        assert str(exc.value) == f"{field} {value!r} must be an integer"

    def test_numpy_integer_counts_are_accepted(self, link_budget):
        lb = dataclasses.replace(link_budget, tx_antennas=np.int64(4), max_user_prbs=np.int32(6))
        assert lb.spatial_layers == 2

    def test_interference_invariants(self):
        with pytest.raises(DomainError):
            InterferenceModel(margins_db=(-1.0,))
        with pytest.raises(DomainError):
            InterferenceModel(margins_db=(1.0, 2.0), breakpoints_km=())
        with pytest.raises(DomainError):
            InterferenceModel(margins_db=(1.0, 2.0, 3.0), breakpoints_km=(0.4, 0.2))

    def test_profile_partition_enforced(self):
        # n(x) as a step function over (0, 0.7]: its inner piece ends rise
        # strictly, and each piece has one value
        for bounds, values, message in [
            ((0.3, 0.3), (1, 2, 1), "strictly increasing"),  # a repeated end
            ((0.4, 0.3), (1, 2, 1), "strictly increasing"),  # a falling end
            ((), (), "one step value more than bounds"),  # no pieces
            ((0.3,), (1,), "one step value more than bounds"),
            ((), (1, 2), "one step value more than bounds"),
            ((0.3, 0.8), (1, 2, 3), "must lie in"),
        ]:
            with pytest.raises(DomainError, match=message):
                StepFunction(bounds, values, 0.7)
        # a region clip starting at 0 makes a bound there, outside (0, R]
        clipped = StepFunction((0.0, 0.3), (0, 1, 2), 0.7)
        assert clipped(np.array([0.0, 0.3, 0.7])).tolist() == [0, 1, 2]


def searchsorted_levels(profile, x):
    """The binary-search lookup: level of the first piece whose upper
    end is >= x, the outermost beyond R."""
    return profile.values[np.searchsorted(profile.bounds, x)]


def probe_points(profile):
    """Every piece end and its two float neighbours, 0, R and just past R."""
    r = profile.span
    ends = np.append(profile.bounds, r)
    return np.concatenate((ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
                           [0.0, r, np.nextafter(r, np.inf)]))


@st.composite
def tilings(draw):
    """A demand profile over (0, R] with up to 256 levels, where a level may
    own several pieces, neighbours included, and piece ends may sit a few
    ulps apart."""
    r = draw(st.sampled_from([0.7, 1.0, 3.3]))
    n_levels = draw(st.integers(1, 256))
    ends = draw(st.lists(st.floats(0.0, r, exclude_min=True, exclude_max=True),
                         max_size=300, unique=True))
    if ends:
        ends += [np.nextafter(e, r) for e in draw(st.lists(st.sampled_from(ends), max_size=5))]
    bounds = sorted(set(ends) - {r})
    levels = draw(st.lists(st.integers(1, n_levels), min_size=len(bounds) + 1,
                           max_size=len(bounds) + 1))
    return StepFunction(bounds, levels, r)


class TestLevelLookup:
    """A StepFunction reads a table of uniform cells; the binary search
    over the piece ends is the reference, at and around every end."""

    @settings(max_examples=200, deadline=None)
    @given(profile=tilings())
    def test_random_tilings(self, profile):
        x = probe_points(profile)
        np.testing.assert_array_equal(profile(x), searchsorted_levels(profile, x))
        assert profile.clip(None) is profile

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
        svc = Service(rate_bps=500e3)
        profile = ring_radii(lb, im, svc, env)
        levels = profile.values.tolist()
        # a level that goes on across a region boundary extends its piece
        assert all(n != m for n, m in zip(levels, levels[1:]))
        assert 1 <= min(levels) and max(levels) <= max_prbs_per_user(lb, im, svc, env)
        x = probe_points(profile)
        np.testing.assert_array_equal(profile(x), searchsorted_levels(profile, x))

    @settings(max_examples=100, deadline=None)
    @given(profile=tilings(), lo=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0,
                                                                    exclude_min=True))
    def test_region_steps(self, profile, lo, width):
        # inside (lo, hi] the level, outside 0, as a mask on distances gives it
        r = profile.span
        lo, hi = lo * r, min(lo * r + width * r, r)
        if not lo < hi:
            return
        x = np.concatenate((probe_points(profile), [lo, hi], np.nextafter([lo, hi], -np.inf),
                            np.nextafter([lo, hi], np.inf)))
        want = np.where((x > lo) & (x <= hi), searchsorted_levels(profile, x), 0)
        np.testing.assert_array_equal(profile.clip((lo, hi))(x), want)

    def test_region_beyond_the_cell_is_refused(self):
        profile = StepFunction((0.3,), (1, 2), 0.7)
        with pytest.raises(DomainError, match="step bounds"):
            profile.clip((0.2, 0.9))


SINR_KEYS = "path_loss_exp, the distance, noise_power_dbm and margins_db"


# one key of a bundled file edited: each once ended in a ZeroDivisionError
# (an edge SINR whose 1 + SINR rounds to 1) or an OverflowError traceback
@pytest.mark.parametrize("name, key, value, message", [
    ("fig3", "prop_const_db", "400", "outdoor SINR -241.578 dB at the cell edge"),
    ("fig3", "noise_power_dbm", "300", "outdoor SINR -364.578 dB at the cell edge"),
    ("fig3", "cell_radius_km", "1e6", "outdoor SINR -187 dB at the cell edge"),
    ("fig3", "tx_power_dbm", "3200", "outdoor SINR 3168.42 dB at the cell edge"),
    ("fig3", "path_loss_exp", "1e6", "outdoor SINR 1.54904e+06 dB at the cell edge"),
    ("fig3", "prop_const_indoor_db", "1e6", "indoor SINR -999842 dB at the cell edge"),
    ("fig3", "rate_kbps", "1e6", "outdoor level 1: rate exponent 2777.78 or noise factor -23 dB"),
    ("fig8_regions", "margins_db", "1e6, 8.0, 15.0",
     "indoor level 1: rate exponent 1.38889 or noise factor 1.00001e+06 dB"),
])
def test_link_budget_arithmetic_beyond_double_range_is_named(name, key, value, message):
    text = bundled_scenario_path(name).read_text()
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in text.splitlines()]
    query = parse_scenario("\n".join(lines)).to_query(target=0.05)
    with pytest.raises(DomainError) as exc:
        dimension_prbs(dataclasses.replace(
            query, scenario=dataclasses.replace(query.scenario, mc_realizations=20)))
    env = message.split()[0]
    prop = "prop_const_db" if env == "outdoor" else "prop_const_indoor_db"
    if "SINR" in message:
        keys = f"it is made of tx_power_dbm, {prop}, {SINR_KEYS}"
    else:
        keys = ("they are made of rate_kbps, prb_bandwidth_khz, the antennas, "
                f"tx_power_dbm, {prop}, noise_power_dbm and margins_db")
    assert str(exc.value) == f"{message} is beyond double precision; {keys}"


# the edge rate of a subnormal bandwidth, 9.39e-323 bit/s outdoors, once ended
# in an OverflowError from the ceiling of rate / edge rate, and 0 indoors in
# a ZeroDivisionError
def test_a_bandwidth_too_narrow_for_the_service_rate_is_named():
    cell = bundled_scenario("fig3").to_scenario()
    narrow = dataclasses.replace(cell, link_budget=dataclasses.replace(
        cell.link_budget, prb_bandwidth_hz=5e-324))
    keys = ("is beyond double precision; it is made of rate_kbps, prb_bandwidth_khz, the "
            "antennas and the SINR")
    with pytest.raises(DomainError) as exc:
        narrow.n_levels
    assert str(exc.value) == f"outdoor PRB need 500000 / 9.38725e-323 bit/s {keys}"
    with pytest.raises(DomainError) as exc:
        max_prbs_per_user(narrow.link_budget, narrow.interference, narrow.service, "indoor")
    assert str(exc.value) == f"indoor PRB need 500000 / 0 bit/s {keys}"


def test_sinr_refuses_a_distance_where_it_overflows(link_budget, noise_limited):
    with pytest.raises(DomainError, match=r"^outdoor SINR 10523 dB at 1e-300 km is beyond"):
        sinr_at(link_budget, noise_limited, 1e-300, "outdoor")
