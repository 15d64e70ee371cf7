import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (chord_mass, fixed_road, indoor_masses, outdoor_masses,
                      reference_indoor_weights, reference_outdoor_table, rings, scalar_ccdf)
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from prbdim import (CompoundSpec, DomainError, GeometryParams,
                    InterferenceModel, LinkBudget, RoadSet, Scenario,
                    Service, averaged_congestion, ccdf_bell, ccdf_integral,
                    conditional_congestion, expected_load, ppp_equivalent)
from prbdim.compound import default_cutoff, recursion_steps
from prbdim.congestion import block_curves, road_set, weight_matrix
from prbdim.scenario_io import REGION_NAMES, bundled_scenario
from prbdim.simulate import empirical_ccdf, gamma_samples

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
        empty = fixed_road([])
        assert conditional_congestion(scn, empty, 0) == 1.0
        assert conditional_congestion(scn, empty, 1) == 0.0
        assert conditional_congestion(scn, empty, 5) == 0.0

    def test_single_diameter_road_is_poisson(self):
        scn = make_scenario(lam=1.0, delta=6.0)
        road = fixed_road([0.0])
        lam = 2 * 6.0 * 0.7  # full chord mass, single demand level
        from scipy.stats import poisson
        for m in (1, 5, 12):
            assert conditional_congestion(scn, road, m) == pytest.approx(
                poisson.sf(m - 1, lam), rel=1e-10)

    def test_indoor_only_road_independent(self):
        scn = make_scenario(kappa=20.0)
        a = fixed_road([])
        b = fixed_road([0.1, 0.5])
        spec = CompoundSpec(weight_matrix(scn, a)[0])
        for m in (0, 3, 17):
            assert conditional_congestion(scn, a, m) == conditional_congestion(scn, b, m)
            assert conditional_congestion(scn, a, m) == ccdf_bell(spec, m)

    def test_levels_align_by_prb_count(self):
        scn = make_scenario(lam=9.0, delta=6.0, kappa=20.0)
        road = fixed_road([0.2])
        spec = CompoundSpec(weight_matrix(scn, road)[0])
        prof_out, prof_in = scn.demand_steps
        assert spec.n_levels == scn.n_levels == max(*rings(prof_out), *rings(prof_in)) == 6
        w_in = indoor_masses(prof_in, 20.0)
        assert spec.weights[0] == pytest.approx(
            w_in[0] + chord_mass(road, rings(prof_out)[1][0], 6.0), rel=1e-12)
        np.testing.assert_allclose(spec.weights[1:], w_in[1:], rtol=1e-12)


class TestAveraged:
    def test_indoor_only_zero_stderr(self):
        scn = make_scenario(kappa=20.0, mc=7)
        curve = averaged_congestion(scn, np.arange(0, 40))
        single = CompoundSpec(weight_matrix(scn, fixed_road([]))[0])
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
        # MC blocks are drawn whole and cut, so a short run is a prefix of
        # a long one, and each weight row depends on its own road only
        scn = make_scenario(lam=7.0, delta=2.5, kappa=5.0, mc=16, seed=4)
        gammas, n_out, n_in = gamma_samples(scn, 40)
        for got, want in zip(gamma_samples(scn, 13), (gammas, n_out, n_in)):
            np.testing.assert_array_equal(got, want[:13])
        roads = road_set(scn)
        w = weight_matrix(scn, roads)
        for row, road in zip(w, roads):
            np.testing.assert_array_equal(row, weight_matrix(scn, road)[0])

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
        with pytest.raises(DomainError):
            averaged_congestion(make_scenario(kappa=1.0), np.array([-1, 2]))

    def test_thresholds_come_back_in_input_order(self):
        scn = make_scenario(lam=9.0, delta=2.0, kappa=5.0, mc=9)
        whole = averaged_congestion(scn, np.arange(0, 60))
        m = np.array([41, 0, 7, 41, 59, 3])
        curve = averaged_congestion(scn, m)
        np.testing.assert_array_equal(curve.m_values, m)
        np.testing.assert_array_equal(curve.pi, whole.pi[m])
        np.testing.assert_array_equal(curve.stderr, whole.stderr[m])


def per_row_reference(weights, m_values):
    """Per-realization scalar-recursion tails, averaged."""
    m = np.asarray(m_values, dtype=np.int64)
    rows = np.array([scalar_ccdf(w, m) for w in weights])
    stderr = (rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
              if rows.shape[0] > 1 else np.zeros(m.size))
    return rows.mean(axis=0), stderr


def kernel_tails(weights, k_max):
    """(k_max + 1) x R matrix of the kernel's tails P(Gamma >= m), m = 1..k_max + 1."""
    return np.array([tail for _, tail in recursion_steps(weights, k_max)])


class TestBatchedCurve:
    """block_curves: averaged curves of stacked weight matrices in one pass."""

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
        [curve] = block_curves([weights], [k_max])
        pi, stderr = per_row_reference(weights, np.arange(k_max + 1))
        np.testing.assert_array_equal(curve.m_values, np.arange(k_max + 1))
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
        prof_out, prof_in = scn.demand_steps
        assert len(set(prof_out.values.tolist())) < prof_out.values.size
        sampled = road_set(scn)
        roads = RoadSet(counts=[*sampled.counts, 0], chord_distances=sampled.chord_distances)
        w = weight_matrix(scn, roads)
        assert w.shape == (13, 6)
        for row, road in zip(w, roads):
            expected = np.zeros(6)
            for masses in (indoor_masses(prof_in, 10.0), outdoor_masses(road, prof_out, 2.0)):
                expected[: masses.size] += masses
            np.testing.assert_allclose(row, expected, rtol=1e-12)

    def test_identical_rows_have_zero_stderr(self):
        w = np.array([[3.0, 1.5, 0.25]])
        for rows in (w, np.repeat(w, 7, axis=0)):
            assert block_curves([rows], [39])[0].stderr.max() == 0.0
        ppp = ppp_equivalent(make_scenario(lam=9.0, delta=2.0, kappa=5.0, mc=9,
                                           margins=(1.0, 8.0, 15.0), n_max=6))
        curve = averaged_congestion(ppp, np.arange(0, 120))
        assert curve.pi[60] > 0.0
        assert curve.stderr.max() == 0.0

    def test_heavy_rows_match_the_fourier_route(self):
        # rows 1 and 3 have total weight 800 and 2300, where exp(-total
        # weight) underflows; they share the pass with light rows
        mixed = np.array([[1.0, 2.0], [400.0, 400.0], [0.0, 5.0],
                          [2000.0, 300.0], [0.5, 0.0]])
        heavy, light = [1, 3], [0, 2, 4]
        k = default_cutoff(mixed)
        ms = np.arange(1, k + 2)
        tails = kernel_tails(mixed, k)
        for i in heavy:
            fourier = ccdf_integral(CompoundSpec(weights=mixed[i]), ms)
            np.testing.assert_allclose(tails[:, i], fourier, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(tails[:, light], kernel_tails(mixed[light], k))
        reference = np.column_stack([scalar_ccdf(w, ms) if i in light else
                                     ccdf_integral(CompoundSpec(weights=w), ms)
                                     for i, w in enumerate(mixed)])
        np.testing.assert_allclose(block_curves([mixed], [k + 1])[0].pi[ms],
                                   reference.mean(axis=1), rtol=0, atol=1e-12)
        # the scalar path: indoor weight 800 on one level is Poisson(800)
        scn = make_scenario(kappa=800.0 / (math.pi * 0.7 ** 2), n_max=1)
        road = fixed_road([])
        total = float(weight_matrix(scn, road)[0].sum())
        assert total == pytest.approx(800.0)
        assert conditional_congestion(scn, road, 800) == pytest.approx(
            poisson.sf(799, total), abs=1e-12)


def fig7_at(tau_bps):
    return bundled_scenario("fig7").to_query(target=0.05, throughput_bps=tau_bps).build_scenario()


class TestHeavyLoad:
    # at 180 Mbit/s 196 of fig7's 800 road realizations have total weight
    # above 708, where exp(-total weight) underflows; at 300 Mbit/s all do
    @pytest.mark.parametrize("tau", [180e6, 300e6])
    def test_rows_match_the_fourier_route(self, tau):
        scn = fig7_at(tau)
        w = weight_matrix(scn, road_set(scn))
        rows = w[np.r_[0:800:100, np.argmax(w.sum(axis=1))]]
        assert rows.sum(axis=1).max() > 708
        k = default_cutoff(rows)
        ms = np.arange(1, k + 2)
        tails = kernel_tails(rows, k)
        for i, row in enumerate(rows):
            fourier = ccdf_integral(CompoundSpec(weights=row), ms)
            np.testing.assert_allclose(tails[:, i], fourier, rtol=0, atol=1e-12)

    # m is the dimensioned PRB count at a 5% target
    @pytest.mark.parametrize("tau, m", [(180e6, 1542), (300e6, 2539)])
    def test_averaged_matches_simulation(self, tau, m):
        # validate's averaged_vs_empirical rule: gap <= 4*stderr + Wilson width
        scn = fig7_at(tau)
        curve = averaged_congestion(scn, np.array([m]))
        emp = empirical_ccdf(scn, np.array([m]), 10_000)
        gap = abs(curve.pi[0] - emp.ccdf[0])
        assert gap <= 4.0 * curve.stderr[0] + (emp.ci_high[0] - emp.ci_low[0])


class TestExpectedLoad:
    def test_indoor_only_reduces_to_area_sum(self):
        scn = make_scenario(kappa=20.0)
        w = indoor_masses(scn.demand_steps[1], 20.0)
        expected = sum(n * w[n - 1] for n in range(1, 7))
        assert expected_load(scn) == pytest.approx(expected, rel=1e-12)

    def test_single_level_outdoor_closed_form(self):
        scn = make_scenario(lam=9.0, delta=6.0)
        assert expected_load(scn) == pytest.approx(EXPECTED_LOAD_OUTDOOR, rel=1e-12)

    def test_equals_mean_of_average_spec(self):
        scn = make_scenario(lam=6.0, delta=2.0, kappa=8.0, mc=4000, seed=13)
        specs = [CompoundSpec(w) for w in weight_matrix(scn, road_set(scn))]
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


def ring_table_cases():
    """(id, scenario) pairs: every bundled scenario with its margins and
    noise-limited, in no region and in each named one; margins that fall
    and rise again across the cell; a region ending just past R; and many
    levels that fall at a region boundary."""
    for name in ["fig2_tau14", "fig2_tau30", "fig3", "fig4", "fig6_mixed", "fig7",
                 "fig8_regions"]:
        doc = bundled_scenario(name).with_overrides(realizations=20)
        for noise_limited in (False, True):
            for region in (None, *REGION_NAMES):
                yield (f"{name}-{'noise' if noise_limited else 'margins'}-{region}",
                       doc.to_scenario(noise_limited, region))
    doc = bundled_scenario("fig8_regions").with_overrides(realizations=20)
    scn = doc.to_scenario()
    r = scn.cell_radius_km
    for margins in ((0.0, 10.0, 0.0), (15.0, 1.0, 8.0), (3.0, 0.0, 12.0, 1.0)):
        k = len(margins)
        im = InterferenceModel(margins, tuple(r * i / k for i in range(1, k)))
        for region in (None, *REGION_NAMES):
            yield (f"margins{'/'.join(f'{m:g}' for m in margins)}-{region}",
                   replace(scn, interference=im, region_km=doc.region_bounds(region)))
    yield "region-past-R", replace(scn, region_km=(r / 2, r * (1 + 1e-12)))
    lb = replace(scn.link_budget, prop_const_db=160.0, prop_const_indoor_db=170.0,
                 max_user_prbs=256)
    im = InterferenceModel.three_region(25.0, 0.0, 20.0, r)
    for label, region in (("None", None), ("inner", (r / 5, 0.9 * r))):
        yield f"falling-levels-{label}", replace(scn, link_budget=lb, interference=im,
                                                 region_km=region)


RING_TABLE_CASES = dict(ring_table_cases())


class TestRingTables:
    @pytest.mark.parametrize("case", list(RING_TABLE_CASES))
    def test_bit_equal_to_the_clipped_intervals(self, case):
        scn = RING_TABLE_CASES[case]
        ref = replace(scn)  # the same scenario with the reference tables cached
        ref.__dict__.update(_outdoor_table=reference_outdoor_table(scn),
                            _indoor_weights=reference_indoor_weights(scn))
        roads = road_set(scn)
        assert np.array_equal(scn._indoor_weights, ref._indoor_weights)
        assert np.array_equal(weight_matrix(scn, roads), weight_matrix(ref, roads))
        assert expected_load(scn) == expected_load(ref)


class TestPppEquivalent:
    def test_swaps_road_process_for_area_process(self):
        cox = make_scenario(lam=9.0, delta=6.0)
        ppp = ppp_equivalent(cox)
        assert ppp.geometry.road_intensity == 0.0
        assert ppp.geometry.user_intensity_area == pytest.approx(54.0)
        # outdoor propagation drives the profile
        assert ppp.link_budget.prop_const_indoor_db == cox.link_budget.prop_const_db
        assert ppp.mean_users == pytest.approx(cox.mean_users, rel=1e-12)

    def test_single_level_ppp_tail_is_poisson(self):
        ppp = ppp_equivalent(make_scenario(lam=9.0, delta=6.0))
        curve = averaged_congestion(ppp, np.arange(0, 3))
        from scipy.stats import poisson
        lam = 54.0 * math.pi * 0.49
        assert curve.pi[1] == pytest.approx(poisson.sf(0, lam), rel=1e-9)
        assert curve.stderr.max() == 0.0


class TestScenarioValidation:
    def test_region_inside_cell(self):
        with pytest.raises(DomainError):
            make_scenario(kappa=1.0, region=(0.5, 0.9))
