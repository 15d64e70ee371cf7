import math

import numpy as np
import pytest

from prbdim import (CeilingError, DimensionQuery, DomainError,
                    InfeasibleSplitError, InterferenceModel, LinkBudget,
                    Service, dimension_prbs, dimension_scenario,
                    intensities_from_throughput, mean_users, pmf, sweep)
from prbdim.compound import default_cutoff
from prbdim.congestion import conditional_spec, road_set, weight_matrix
from prbdim.geometry import GeometryParams

R = 0.7


def budget(n_max=6):
    return LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                      prop_const_indoor_db=166.0, path_loss_exp=3.5, tx_antennas=8,
                      rx_antennas=2, prb_bandwidth_hz=180e3, cell_radius_km=R,
                      max_user_prbs=n_max)


def query(target=0.05, tau=25e6, lam=9.0, f=1.0, mc=200, seed=0, **kw):
    return DimensionQuery(target_congestion=target, throughput_bps=tau,
                          link_budget=budget(), interference=InterferenceModel.noise_limited(),
                          service=Service(rate_bps=500e3), road_intensity=lam,
                          outdoor_fraction=f, seed=seed, mc_realizations=mc, **kw)


class TestIntensities:
    def test_division(self):
        delta, kappa = intensities_from_throughput(30e6, 500e3, R, 9.0, 1.0)
        assert delta == pytest.approx(4.3307467507998731, rel=1e-12)
        assert kappa == 0.0

    def test_indoor_only(self):
        delta, kappa = intensities_from_throughput(30e6, 500e3, R, 9.0, 0.0)
        assert delta == 0.0
        assert kappa == pytest.approx(60.0 / (math.pi * R * R), rel=1e-12)

    def test_round_trip_through_mean_users(self):
        for f in (0.0, 0.3, 1.0):
            delta, kappa = intensities_from_throughput(20e6, 500e3, R, 4.0, f)
            gp = GeometryParams(road_intensity=4.0, user_intensity_linear=delta,
                                user_intensity_area=kappa)
            assert mean_users(gp, R) == pytest.approx(40.0, rel=1e-12)

    def test_infeasible_split(self):
        with pytest.raises(InfeasibleSplitError):
            intensities_from_throughput(10e6, 500e3, R, 0.0, 0.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            intensities_from_throughput(-1.0, 500e3, R, 1.0, 0.5)
        with pytest.raises(DomainError):
            intensities_from_throughput(1e6, 500e3, R, 1.0, 1.5)
        with pytest.raises(DomainError):
            query(target=1.5)


class TestDimension:
    def test_tiny_load_needs_one(self):
        report = dimension_prbs(query(target=0.999, tau=2e3, f=0.0, mc=5))
        assert report.required_m == 1
        assert report.pi_before == 1.0

    def test_poisson_tail_inversion(self):
        # indoor-only with mean 2 on a single level: tails 0.0527 / 0.0166
        # around the 5% target put the answer at 6
        report = dimension_prbs(DimensionQuery(
            target_congestion=0.05, throughput_bps=2e3, link_budget=budget(),
            interference=InterferenceModel.noise_limited(),
            service=Service(rate_bps=1e3), road_intensity=0.0,
            outdoor_fraction=0.0, mc_realizations=3))
        assert report.required_m == 6
        assert report.pi_before == pytest.approx(0.052653017343711157, rel=1e-9)
        assert report.pi_at_m == pytest.approx(0.016563608480614439, rel=1e-9)

    def test_bracket_is_exact_on_curve(self):
        report = dimension_prbs(query(mc=100, seed=5))
        m = report.required_m
        assert report.pi_at_m <= 0.05 < report.pi_before
        assert report.curve.pi[m] == report.pi_at_m
        assert report.curve.pi[m - 1] == report.pi_before

    def test_tighter_target_needs_no_fewer(self):
        loose = dimension_prbs(query(target=0.1, mc=100, seed=5))
        tight = dimension_prbs(query(target=0.01, mc=100, seed=5))
        assert tight.required_m >= loose.required_m

    def test_ceiling_error_carries_achieved(self):
        q = query(target=0.0001, tau=40e6, mc=20, m_ceiling=32)
        with pytest.raises(CeilingError) as err:
            dimension_prbs(q)
        assert err.value.ceiling == 32
        assert 0.0 <= err.value.achieved_pi <= 1.0

    def test_region_restriction_orders_required(self):
        im = InterferenceModel.three_region(1.0, 8.0, 15.0, R)
        regions = {"center": (0.0, R / 3), "middle": (R / 3, 2 * R / 3),
                   "edge": (2 * R / 3, R)}
        req = {}
        for name, bounds in regions.items():
            q = DimensionQuery(target_congestion=0.05, throughput_bps=26e6,
                               link_budget=budget(), interference=im,
                               service=Service(rate_bps=500e3), road_intensity=9.0,
                               outdoor_fraction=0.5, seed=1, mc_realizations=200,
                               region_km=bounds)
            req[name] = dimension_prbs(q).required_m
        assert req["edge"] >= req["middle"] >= req["center"]


def brute_force_curve(scn, m_ceiling):
    """Per-realization pmf to m_ceiling, averaged over the road set."""
    m = np.arange(0, m_ceiling + 1)
    rows = np.array([pmf(conditional_spec(scn, road), m_ceiling - 1).ccdf_curve(m)
                     for road in road_set(scn)])
    return rows.mean(axis=0)


class TestAgainstBruteForce:
    # 100 Mbit/s needs 652 PRBs, beyond the old fourth doubling pass (512)
    @pytest.mark.parametrize("tau, f, target", [
        (25e6, 1.0, 0.05), (25e6, 1.0, 0.001), (8e6, 0.3, 0.2), (100e6, 0.5, 0.05)])
    def test_required_m_and_bracket(self, tau, f, target):
        q = query(target=target, tau=tau, f=f, mc=12, seed=3, m_ceiling=1024)
        report = dimension_prbs(q)
        pi = brute_force_curve(q.build_scenario(), 1024)
        required = int(np.nonzero(pi <= target)[0][0])
        assert report.required_m == required
        assert abs(report.pi_at_m - pi[required]) <= 1e-14
        assert abs(report.pi_before - pi[required - 1]) <= 1e-14

    def test_one_pass_to_the_cutoff_or_the_ceiling(self):
        for m_ceiling in (1024, 200):
            q = query(target=0.05, tau=25e6, mc=12, seed=3, m_ceiling=m_ceiling)
            scn = q.build_scenario()
            report = dimension_prbs(q)
            cutoff = default_cutoff(weight_matrix(scn, road_set(scn)))
            assert report.curve.m_values[-1] == min(m_ceiling, cutoff)

    def test_ceiling_below_the_answer_reports_brute_force_pi(self):
        # a 1e-8 target needs 237 PRBs here, above the 200 ceiling
        q = query(target=1e-8, tau=25e6, mc=12, seed=3, m_ceiling=200)
        with pytest.raises(CeilingError) as err:
            dimension_prbs(q)
        pi = brute_force_curve(q.build_scenario(), 200)
        assert err.value.ceiling == 200
        assert pi[200] > 1e-8
        assert abs(err.value.achieved_pi - pi[200]) <= 1e-14

    def test_target_below_the_floor_is_refused(self):
        with pytest.raises(DomainError, match="floor 1e-08"):
            query(target=1e-9)
        scn = query().build_scenario()
        with pytest.raises(DomainError, match="floor 1e-08"):
            dimension_scenario(scn, 9.9e-9)
        assert dimension_scenario(scn, 1e-8).pi_at_m <= 1e-8


class TestSweep:
    def test_single_point_equals_direct(self):
        q = query(mc=60, seed=2)
        direct = dimension_prbs(q)
        points = sweep(q)
        assert len(points) == 1
        assert points[0].report.required_m == direct.required_m

    def test_grid_shape_and_monotonicity(self):
        q = query(mc=60, seed=2)
        points = sweep(q, throughput_grid_bps=[10e6, 18e6, 25e6])
        assert [p.throughput_bps for p in points] == [10e6, 18e6, 25e6]
        required = [p.report.required_m for p in points]
        assert required == sorted(required)

    def test_failures_do_not_abort(self):
        q = query(mc=10, m_ceiling=8)
        points = sweep(q, throughput_grid_bps=[1e5, 25e6])
        assert points[0].report is not None
        assert points[1].report is None
        assert "ceiling" in points[1].error

    def test_underflow_is_an_error_point(self):
        # 600 Mbit/s puts every realization's total weight far beyond 708
        q = query(mc=10)
        points = sweep(q, throughput_grid_bps=[25e6, 600e6])
        assert points[0].report is not None
        assert points[1].report is None
        assert "underflows on 10 of 10" in points[1].error

    def test_same_lambda_reuses_roads(self):
        q = query(mc=40, seed=6)
        a = dimension_prbs(q)
        b = dimension_prbs(q)
        np.testing.assert_array_equal(a.curve.pi, b.curve.pi)

    def test_road_model_needs_at_least_ppp_equivalent(self):
        from prbdim import ppp_equivalent
        from prbdim.congestion import Scenario
        q = query(tau=25e6, lam=9.0, mc=400, seed=14)
        cox = dimension_scenario(q.build_scenario(), q.target_congestion)
        ppp = dimension_scenario(ppp_equivalent(q.build_scenario()),
                                 q.target_congestion)
        assert cox.required_m >= ppp.required_m

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            sweep(query(), throughput_grid_bps=[])
