import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prbdim import (AccuracyError, CompoundSpec, DomainError, GeometryParams,
                    InterferenceModel, LinkBudget, RoadRealization, Scenario,
                    Service, averaged_congestion, ccdf_bell, chord_mass,
                    conditional_congestion, expected_load, indoor_masses,
                    outdoor_masses, pmf, ppp_equivalent)
from prbdim.congestion import (batched_curve, conditional_spec, road_set,
                               weight_matrix)
from prbdim.simulate import gamma_samples

EXPECTED_LOAD_OUTDOOR = 221.67077763729581  # lambda=9, delta=6, R=0.7, one level


def make_scenario(lam=0.0, delta=0.0, kappa=0.0, margins=None, seed=0, mc=10,
                  n_max=256, region=None):
    lb = LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                    prop_const_indoor_db=166.0, path_loss_exp=3.5, tx_antennas=8,
                    rx_antennas=2, prb_bandwidth_hz=180e3, cell_radius_km=0.7,
                    max_user_prbs=n_max)
    im = (InterferenceModel.noise_limited() if margins is None
          else InterferenceModel.three_region(*margins, cell_radius_km=0.7))
    gp = GeometryParams(road_intensity=lam, user_intensity_linear=delta,
                        user_intensity_area=kappa)
    return Scenario(link_budget=lb, interference=im, service=Service(rate_bps=500e3),
                    geometry=gp, seed=seed, mc_realizations=mc, region_km=region)


class TestConditional:
    def test_empty_cell(self):
        scn = make_scenario(lam=9.0, delta=6.0)
        empty = RoadRealization(chord_distances=np.array([]))
        assert conditional_congestion(scn, empty, 0) == 1.0
        assert conditional_congestion(scn, empty, 1) == 0.0
        assert conditional_congestion(scn, empty, 5) == 0.0

    def test_single_diameter_road_is_poisson(self):
        scn = make_scenario(lam=1.0, delta=6.0)
        road = RoadRealization(chord_distances=np.array([0.0]))
        lam = 2 * 6.0 * 0.7  # full chord mass, single demand level
        from scipy.stats import poisson
        for m in (1, 5, 12):
            assert conditional_congestion(scn, road, m) == pytest.approx(
                poisson.sf(m - 1, lam), rel=1e-10)

    def test_indoor_only_road_independent(self):
        scn = make_scenario(kappa=20.0)
        a = RoadRealization(chord_distances=np.array([]))
        b = RoadRealization(chord_distances=np.array([0.1, 0.5]))
        spec = conditional_spec(scn, a)
        for m in (0, 3, 17):
            assert conditional_congestion(scn, a, m) == conditional_congestion(scn, b, m)
            assert conditional_congestion(scn, a, m) == ccdf_bell(spec, m)

    def test_levels_align_by_prb_count(self):
        scn = make_scenario(lam=9.0, delta=6.0, kappa=20.0)
        road = RoadRealization(chord_distances=np.array([0.2]))
        spec = conditional_spec(scn, road)
        prof_out, prof_in = scn.profiles
        assert spec.n_levels == max(prof_out.n_levels, prof_in.n_levels) == 6
        w_in = indoor_masses(prof_in, 20.0)
        assert spec.weights[0] == pytest.approx(
            w_in[0] + chord_mass(road, prof_out.rings[1][0], 6.0), rel=1e-12)
        np.testing.assert_allclose(spec.weights[1:], w_in[1:], rtol=1e-12)


class TestAveraged:
    def test_indoor_only_zero_stderr(self):
        scn = make_scenario(kappa=20.0, mc=7)
        curve = averaged_congestion(scn, np.arange(0, 40))
        single = conditional_spec(scn, RoadRealization(np.array([])))
        expected = [ccdf_bell(single, int(m)) for m in range(40)]
        np.testing.assert_allclose(curve.pi, expected, atol=1e-13)
        assert curve.stderr.max() == 0.0
        assert curve.pi[0] == 1.0

    def test_monotone_nonincreasing(self):
        scn = make_scenario(lam=9.0, delta=2.0, kappa=10.0, mc=25, seed=3)
        curve = averaged_congestion(scn, np.arange(0, 200))
        assert np.all(np.diff(curve.pi) <= 0)

    def test_seed_prefix_stability(self):
        # growing the realization count keeps the earlier road draws
        short = make_scenario(lam=5.0, delta=3.0, mc=6, seed=11)
        long = make_scenario(lam=5.0, delta=3.0, mc=12, seed=11)
        roads_short = road_set(short)
        roads_long = road_set(long)
        for a, b in zip(roads_short, roads_long):
            np.testing.assert_array_equal(a.chord_distances, b.chord_distances)

    def test_deterministic_across_batch_sizes(self):
        # replication i always uses stream (seed, i), and each weight row
        # depends on its own road only
        scn = make_scenario(lam=7.0, delta=2.5, kappa=5.0, mc=16, seed=4)
        gammas, n_out, n_in = gamma_samples(scn, 40)
        for got, want in zip(gamma_samples(scn, 13), (gammas, n_out, n_in)):
            np.testing.assert_array_equal(got, want[:13])
        roads = road_set(scn)
        w = weight_matrix(scn, roads)
        for row, road in zip(w, roads):
            np.testing.assert_array_equal(row, weight_matrix(scn, [road])[0])

    def test_stochastic_monotonicity_in_intensities(self):
        ms = np.arange(0, 150)
        base = averaged_congestion(make_scenario(lam=9.0, delta=2.0, kappa=5.0,
                                                 mc=40, seed=9), ms)
        more_delta = averaged_congestion(make_scenario(lam=9.0, delta=3.0, kappa=5.0,
                                                       mc=40, seed=9), ms)
        more_kappa = averaged_congestion(make_scenario(lam=9.0, delta=2.0, kappa=9.0,
                                                       mc=40, seed=9), ms)
        assert np.all(more_delta.pi >= base.pi - 1e-12)
        assert np.all(more_kappa.pi >= base.pi - 1e-12)

    def test_margins_raise_congestion(self):
        ms = np.arange(0, 260)
        base = averaged_congestion(make_scenario(kappa=20.0, mc=1, n_max=6), ms)
        with_im = averaged_congestion(make_scenario(kappa=20.0, mc=1, n_max=6,
                                                    margins=(1.0, 8.0, 15.0)), ms)
        assert np.all(with_im.pi >= base.pi - 1e-12)

    def test_rejects_empty_thresholds(self):
        with pytest.raises(DomainError):
            averaged_congestion(make_scenario(kappa=1.0), np.array([], dtype=int))


def per_row_reference(weights, m_values):
    """Per-realization pmf tails, averaged: the loop the batched core replaces."""
    m = np.asarray(m_values, dtype=np.int64)
    k_max = max(int(m.max()) - 1, 0)
    rows = np.array([pmf(CompoundSpec(weights=w), k_max).ccdf_curve(m)
                     for w in weights])
    stderr = (rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
              if rows.shape[0] > 1 else np.zeros(m.size))
    return rows.mean(axis=0), stderr


class TestBatchedCurve:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_pmf(self, data):
        r = data.draw(st.integers(1, 30))
        n = data.draw(st.integers(1, 8))
        k_max = data.draw(st.integers(0, 80))
        weights = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, 12.0), min_size=n, max_size=n),
            min_size=r, max_size=r)))
        zero_rows = data.draw(st.lists(st.booleans(), min_size=r, max_size=r))
        weights[np.array(zero_rows)] = 0.0
        # unsorted, repeated thresholds come back in input order
        m = np.array(data.draw(st.lists(st.integers(0, k_max), min_size=1,
                                        max_size=12)) + [k_max])
        curve = batched_curve(weights, m)
        pi, stderr = per_row_reference(weights, m)
        np.testing.assert_array_equal(curve.m_values, m)
        np.testing.assert_allclose(curve.pi, pi, rtol=0, atol=1e-14)
        np.testing.assert_allclose(curve.stderr, stderr, rtol=0, atol=1e-14)
        assert curve.realizations == r

    def test_weight_matrix_rows_match_per_road_masses(self):
        # a weak transmitter and a margin that drops outward put each outdoor
        # level on two separate rings
        lb = LinkBudget(tx_power_dbm=30.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                        prop_const_indoor_db=166.0, path_loss_exp=3.5, tx_antennas=8,
                        rx_antennas=2, prb_bandwidth_hz=180e3, cell_radius_km=0.7,
                        max_user_prbs=6)
        scn = Scenario(link_budget=lb,
                       interference=InterferenceModel((15.0, 1.0), (0.5,)),
                       service=Service(rate_bps=500e3),
                       geometry=GeometryParams(9.0, 2.0, 10.0), seed=5, mc_realizations=12)
        prof_out, prof_in = scn.profiles
        assert any(len(ivs) > 1 for ivs in prof_out.rings.values())
        roads = road_set(scn) + [RoadRealization(chord_distances=np.array([]))]
        w = weight_matrix(scn, roads)
        assert w.shape == (13, 6)
        for row, road in zip(w, roads):
            expected = np.zeros(6)
            expected[: prof_in.n_levels] += indoor_masses(prof_in, 10.0)
            expected[: prof_out.n_levels] += outdoor_masses(road, prof_out, 2.0)
            np.testing.assert_allclose(row, expected, rtol=1e-12)

    def test_identical_rows_have_zero_stderr(self):
        w = np.array([[3.0, 1.5, 0.25]])
        ms = np.arange(0, 40)
        assert batched_curve(w, ms).stderr.max() == 0.0
        assert batched_curve(np.repeat(w, 7, axis=0), ms).stderr.max() == 0.0
        ppp = ppp_equivalent(make_scenario(lam=9.0, delta=2.0, kappa=5.0, mc=9,
                                           margins=(1.0, 8.0, 15.0), n_max=6))
        curve = averaged_congestion(ppp, np.arange(0, 120))
        assert curve.pi[60] > 0.0
        assert curve.stderr.max() == 0.0

    def test_underflow_is_loud(self):
        # total weight 800: exp(-800) underflows, so the recursion would
        # return an all-ones tail
        with pytest.raises(AccuracyError, match=r"1 of 3 road realizations: total weight up to 800"):
            batched_curve(np.array([[1.0, 2.0], [400.0, 400.0], [0.0, 5.0]]),
                          np.arange(0, 10))
        # the scalar path refuses the same load: indoor weight 800 on one level
        scn = make_scenario(kappa=800.0 / (math.pi * 0.7 ** 2), n_max=1)
        road = RoadRealization(chord_distances=np.array([]))
        assert conditional_spec(scn, road).total_weight == pytest.approx(800.0)
        with pytest.raises(AccuracyError, match=r"1 of 1 road realizations: total weight up to 800"):
            conditional_congestion(scn, road, 800)

    def test_rejects_malformed_weights(self):
        for bad in (np.zeros(3), np.zeros((0, 2)), np.array([[1.0, -1.0]]),
                    np.array([[np.inf]])):
            with pytest.raises(DomainError):
                batched_curve(bad, np.arange(3))
        with pytest.raises(DomainError):
            batched_curve(np.ones((2, 2)), np.array([-1, 2]))


class TestExpectedLoad:
    def test_indoor_only_reduces_to_area_sum(self):
        scn = make_scenario(kappa=20.0)
        prof_in = scn.profiles[1]
        w = indoor_masses(prof_in, 20.0)
        expected = sum(n * w[n - 1] for n in range(1, 7))
        assert expected_load(scn) == pytest.approx(expected, rel=1e-12)

    def test_single_level_outdoor_closed_form(self):
        scn = make_scenario(lam=9.0, delta=6.0)
        assert expected_load(scn) == pytest.approx(EXPECTED_LOAD_OUTDOOR, rel=1e-12)

    def test_equals_mean_of_average_spec(self):
        scn = make_scenario(lam=6.0, delta=2.0, kappa=8.0, mc=4000, seed=13)
        specs = [conditional_spec(scn, road) for road in road_set(scn)]
        mc_mean = float(np.mean([s.mean for s in specs]))
        assert expected_load(scn) == pytest.approx(mc_mean, rel=0.01)

    def test_matches_simulation(self):
        scn = make_scenario(lam=9.0, delta=6.0, seed=21)
        gammas, _, _ = gamma_samples(scn, 30_000)
        assert float(gammas.mean()) == pytest.approx(expected_load(scn), rel=0.01)

    def test_equals_ccdf_sum(self):
        # mean equals the summed tail probabilities
        scn = make_scenario(kappa=15.0, mc=1)
        curve = averaged_congestion(scn, np.arange(1, 400))
        assert curve.pi.sum() == pytest.approx(expected_load(scn), rel=1e-9)

    def test_region_split_adds_up(self):
        whole = make_scenario(lam=9.0, delta=2.0, kappa=10.0, margins=(1.0, 8.0, 15.0),
                              n_max=6)
        parts = [make_scenario(lam=9.0, delta=2.0, kappa=10.0, margins=(1.0, 8.0, 15.0),
                               n_max=6, region=reg)
                 for reg in ((0.0, 0.7 / 3), (0.7 / 3, 1.4 / 3), (1.4 / 3, 0.7))]
        assert sum(expected_load(p) for p in parts) == pytest.approx(
            expected_load(whole), rel=1e-12)


class TestPppEquivalent:
    def test_swaps_road_process_for_area_process(self):
        cox = make_scenario(lam=9.0, delta=6.0)
        ppp = ppp_equivalent(cox)
        assert ppp.geometry.road_intensity == 0.0
        assert ppp.geometry.user_intensity_area == pytest.approx(54.0)
        # outdoor propagation drives the profile
        assert ppp.link_budget.prop_const_indoor_db == cox.link_budget.prop_const_db
        assert ppp.mean_users == pytest.approx(cox.mean_users, rel=1e-12)
        # no roads are left, so the outdoor share is recomputed as 0
        assert cox.outdoor_fraction == 1.0 and ppp.outdoor_fraction == 0.0

    def test_single_level_ppp_tail_is_poisson(self):
        ppp = ppp_equivalent(make_scenario(lam=9.0, delta=6.0))
        curve = averaged_congestion(ppp, np.arange(0, 3))
        from scipy.stats import poisson
        lam = 54.0 * math.pi * 0.49
        assert curve.pi[1] == pytest.approx(poisson.sf(0, lam), rel=1e-9)
        assert curve.stderr.max() == 0.0


class TestScenarioValidation:
    def test_mix_must_be_fraction(self):
        with pytest.raises(DomainError):
            Scenario(link_budget=make_scenario().link_budget,
                     interference=InterferenceModel.noise_limited(),
                     service=Service(rate_bps=1e5),
                     geometry=GeometryParams(1.0, 1.0, 1.0),
                     outdoor_fraction=1.2)

    def test_region_inside_cell(self):
        with pytest.raises(DomainError):
            make_scenario(kappa=1.0, region=(0.5, 0.9))

    def test_derived_mix(self):
        scn = make_scenario(lam=9.0, delta=6.0, kappa=54.0)
        assert scn.outdoor_fraction == pytest.approx(0.5)
        assert make_scenario(kappa=5.0).outdoor_fraction == 0.0
