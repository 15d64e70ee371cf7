import math
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import scalar_ccdf

from prbdim import (CeilingError, CompoundSpec, DimensionQuery, DomainError,
                    InfeasibleSplitError, InterferenceModel, LinkBudget,
                    Service, ccdf_integral, dimension_prbs, dimension_scenario,
                    intensities_from_throughput, mean_users, sweep)
from prbdim.compound import default_cutoff
from prbdim import congestion
from prbdim.congestion import Scenario, road_set, weight_matrix
from prbdim.geometry import GeometryParams
from prbdim.linkmodel import ring_radii
from prbdim.scenario_io import bundled_scenario

R = 0.7


def budget(n_max=6):
    return LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                      prop_const_indoor_db=166.0, path_loss_exp=3.5, tx_antennas=8,
                      rx_antennas=2, prb_bandwidth_hz=180e3, cell_radius_km=R,
                      max_user_prbs=n_max)


def cell(lam=9.0, im=None, rate_bps=500e3, mc=200, seed=0, region=None):
    """A noise-limited cell (unless `im` is given) whose user intensities a
    query replaces."""
    return Scenario(link_budget=budget(), interference=im or InterferenceModel.noise_limited(),
                    service=Service(rate_bps=rate_bps),
                    geometry=GeometryParams(road_intensity=lam, user_intensity_linear=0.0,
                                            user_intensity_area=0.0),
                    seed=seed, mc_realizations=mc, region_km=region)


def query(target=0.05, tau=25e6, lam=9.0, f=1.0, mc=200, seed=0, **kw):
    return DimensionQuery(scenario=cell(lam, mc=mc, seed=seed), target_congestion=target,
                          throughput_bps=tau, outdoor_fraction=f, **kw)


def at_lambda(q, lam, **kw):
    """The query `q` at road intensity `lam`, with the fields in `kw` replaced."""
    scn = q.scenario
    return replace(q, scenario=scn.with_geometry(replace(scn.geometry, road_intensity=lam)), **kw)


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

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -2e6, 0.0])
    def test_throughput_must_be_positive_and_finite(self, tau):
        # nan once returned (nan, nan) and inf (inf, nan) without an error
        message = re.escape(f"throughput_bps {tau:g} must be positive and finite")
        with pytest.raises(DomainError, match=message):
            intensities_from_throughput(tau, 500e3, R, 9.0, 0.5)

    @pytest.mark.parametrize("f", [math.nan, -0.25, 1.5])
    def test_outdoor_fraction_names_itself(self, f):
        with pytest.raises(DomainError, match=f"outdoor_fraction {f:g} must lie in"):
            intensities_from_throughput(20e6, 500e3, R, 9.0, f)


class TestDimension:
    def test_tiny_load_needs_one(self):
        report = dimension_prbs(query(target=0.999, tau=2e3, f=0.0, mc=5))
        assert report.required_m == 1
        assert report.pi_before == 1.0

    def test_poisson_tail_inversion(self):
        # indoor-only with mean 2 on a single level: tails 0.0527 / 0.0166
        # around the 5% target put the answer at 6
        report = dimension_prbs(DimensionQuery(
            scenario=cell(lam=0.0, rate_bps=1e3, mc=3), target_congestion=0.05,
            throughput_bps=2e3, outdoor_fraction=0.0))
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

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0, 0.0])
    def test_throughput_must_be_positive_and_finite(self, tau):
        with pytest.raises(DomainError, match=f"throughput_bps {tau:g} must be positive"):
            query(tau=tau)

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
            q = DimensionQuery(scenario=cell(im=im, seed=1, region=bounds),
                               target_congestion=0.05, throughput_bps=26e6,
                               outdoor_fraction=0.5)
            req[name] = dimension_prbs(q).required_m
        assert req["edge"] >= req["middle"] >= req["center"]


def brute_force_curve(scn, m_ceiling):
    """Per-realization scalar-recursion tails to m_ceiling, averaged over the road set."""
    m = np.arange(0, m_ceiling + 1)
    rows = np.array([scalar_ccdf(weight_matrix(scn, road)[0], m)
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

    def test_heavy_load_point_is_dimensioned_below_its_ceiling(self):
        # 600 Mbit/s puts every realization's total weight far beyond 708,
        # where exp(-total weight) underflows; it needs more than 4096 PRBs
        q = query(mc=10)
        points = sweep(q, throughput_grid_bps=[25e6, 600e6])
        assert points[0].report is not None
        assert points[1].report is None
        assert "ceiling 4096" in points[1].error
        report = sweep(replace(q, m_ceiling=8192), throughput_grid_bps=[600e6])[0].report
        assert report.required_m == 4138
        scn = replace(q, throughput_bps=600e6).build_scenario()
        m = np.array([4137, 4138])
        fourier = np.mean([ccdf_integral(CompoundSpec(weights=w), m)
                           for w in weight_matrix(scn, road_set(scn))], axis=0)
        assert abs(report.pi_before - fourier[0]) <= 1e-12
        assert abs(report.pi_at_m - fourier[1]) <= 1e-12

    def test_one_road_set_per_distinct_lambda(self, monkeypatch):
        draws = []

        def counting_road_set(scn):
            draws.append(scn.geometry.road_intensity)
            return road_set(scn)

        monkeypatch.setattr(congestion, "road_set", counting_road_set)
        points = sweep(query(mc=20, seed=6), throughput_grid_bps=[10e6, 18e6, 25e6],
                       road_intensity_grid=[4.0, 9.0])
        assert len(points) == 6
        assert all(p.report is not None for p in points)
        assert draws == [4.0, 9.0]

    @pytest.mark.parametrize("grids, value", [
        ({"road_intensity_grid": [4.0, -1.0]}, "road_intensity -1"),
        ({"throughput_grid_bps": [10e6, math.nan]}, "throughput_bps nan")])
    def test_grid_value_outside_its_domain_raises_before_any_road_set(self, grids, value,
                                                                      monkeypatch):
        draws = []
        monkeypatch.setattr(congestion, "road_set", lambda scn: draws.append(scn))
        with pytest.raises(DomainError, match=value):
            sweep(query(mc=10), **grids)
        assert draws == []

    def test_one_demand_profile_pair_for_the_grid(self, monkeypatch):
        calls = []

        def counting_ring_radii(*args):
            calls.append(args[-1])
            return ring_radii(*args)

        monkeypatch.setattr(congestion, "ring_radii", counting_ring_radii)
        # lambda = 0 cannot carry outdoor traffic, so the first feasible
        # point's profiles are the ones shared
        points = sweep(query(mc=20, seed=6), throughput_grid_bps=[10e6, 18e6, 25e6],
                       road_intensity_grid=[0.0, 4.0, 9.0])
        assert [p.report is not None for p in points] == [False, True, True] * 3
        assert sorted(calls) == ["indoor", "outdoor"]

    def test_heavy_and_light_points_equal_standalone_dimensioning(self):
        # fig7 at 150 and 300 Mbit/s stacks rescaled heavy rows with light
        # ones in one recursion pass
        q = bundled_scenario("fig7").with_overrides(realizations=200).to_query(target=0.05)
        points = sweep(q, throughput_grid_bps=[10e6, 150e6, 300e6],
                       road_intensity_grid=[5.0, 9.0])
        assert [(p.throughput_bps, p.road_intensity) for p in points] == [
            (tau, lam) for tau in (10e6, 150e6, 300e6) for lam in (5.0, 9.0)]
        for p in points:
            alone = dimension_prbs(at_lambda(q, p.road_intensity,
                                             throughput_bps=p.throughput_bps))
            assert p.error is None
            assert p.report.required_m == alone.required_m
            assert np.array_equal(p.report.curve.pi, alone.curve.pi)
            assert np.array_equal(p.report.curve.stderr, alone.curve.stderr)
            # every other field, the bracket included, equal too
            assert p.report == replace(alone, curve=p.report.curve)

    def test_error_points_keep_grid_order_and_spare_the_others(self):
        # lambda = 0 with outdoor traffic is an infeasible split; 25 Mbit/s
        # needs more than the 8-PRB ceiling
        q = query(mc=10, m_ceiling=8)
        points = sweep(q, throughput_grid_bps=[1e5, 25e6], road_intensity_grid=[0.0, 9.0])
        assert [(p.throughput_bps, p.road_intensity) for p in points] == [
            (1e5, 0.0), (1e5, 9.0), (25e6, 0.0), (25e6, 9.0)]
        infeasible, ok, infeasible_too, ceiling = points
        for p in (infeasible, infeasible_too):
            assert p.report is None
            with pytest.raises(InfeasibleSplitError) as err:
                dimension_prbs(at_lambda(q, 0.0, throughput_bps=p.throughput_bps))
            assert p.error == str(err.value)
        with pytest.raises(CeilingError) as err:
            dimension_prbs(replace(q, throughput_bps=25e6))
        assert ceiling.report is None and ceiling.error == str(err.value)
        alone = dimension_prbs(replace(q, throughput_bps=1e5))
        assert ok.error is None
        assert ok.report.required_m == alone.required_m
        assert np.array_equal(ok.report.curve.pi, alone.curve.pi)
        assert np.array_equal(ok.report.curve.stderr, alone.curve.stderr)

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
