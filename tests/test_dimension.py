import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import full_curve_answers, report_answer, scalar_ccdf

from prbdim import (CeilingError, CompoundSpec, DimensionQuery, DimensionReport, DomainError,
                    InfeasibleSplitError, InterferenceModel, LinkBudget,
                    Service, ccdf_integral, dimension_prbs, dimension_scenario,
                    intensities_from_throughput, mean_users, sweep)
from prbdim.compound import default_cutoff
from prbdim import congestion, linkmodel
from prbdim.congestion import _STATS_STEPS, averaged_congestion, road_set, weight_matrices
from prbdim.geometry import GeometryParams
from prbdim.linkmodel import Scenario, ring_radii
from prbdim.scenario_io import bundled_scenario, bundled_scenario_path

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


def counting_kernel(monkeypatch):
    """Count the steps of each recursion pass the curve core runs: one list
    entry per pass."""
    steps = []
    kernel = congestion.recursion_steps

    def counting(w, k_max):
        steps.append(0)
        for step in kernel(w, k_max):
            steps[-1] += 1
            yield step

    monkeypatch.setattr(congestion, "recursion_steps", counting)
    return steps


def at_lambda(q, lam, **kw):
    """The query `q` at road intensity `lam`, with the fields in `kw` replaced."""
    scn = q.scenario
    return replace(q, scenario=scn.with_geometry(replace(scn.geometry, road_intensity=lam)), **kw)


class TestIntensities:
    def test_division(self):
        gp = intensities_from_throughput(30e6, 500e3, R, 9.0, 1.0)
        assert gp.road_intensity == 9.0
        assert gp.user_intensity_linear == pytest.approx(4.3307467507998731, rel=1e-12)
        assert gp.user_intensity_area == 0.0

    def test_indoor_only(self):
        gp = intensities_from_throughput(30e6, 500e3, R, 9.0, 0.0)
        assert gp.user_intensity_linear == 0.0
        assert gp.user_intensity_area == pytest.approx(60.0 / (math.pi * R * R), rel=1e-12)

    def test_round_trip_through_mean_users(self):
        for f in (0.0, 0.3, 1.0):
            gp = intensities_from_throughput(20e6, 500e3, R, 4.0, f)
            assert mean_users(gp, R) == pytest.approx(40.0, rel=1e-12)

    def test_infeasible_split(self):
        with pytest.raises(InfeasibleSplitError):
            intensities_from_throughput(10e6, 500e3, R, 0.0, 0.5)

    @pytest.mark.parametrize("lam, f", [(math.nan, 0.75), (math.inf, 0.75), (-1.0, 0.75),
                                        (-1.0, 0.0)])
    def test_road_intensity_must_be_nonnegative_and_finite(self, lam, f):
        # refused whatever the split, by GeometryParams' own check
        message = re.escape(f"road_intensity {lam:g} must be nonnegative and finite")
        with pytest.raises(DomainError, match=message):
            intensities_from_throughput(25e6, 5e5, 0.7, lam, f)

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
        rule = "lie in" if f > 1 else "be nonnegative and finite"
        with pytest.raises(DomainError, match=f"outdoor_fraction {f:g} must {rule}"):
            intensities_from_throughput(20e6, 500e3, R, 9.0, f)

    @pytest.mark.parametrize("radius, lam", [(1e-200, 2.0), (0.1, 5e-324), (1e200, 2.0)])
    def test_an_area_beyond_double_precision_is_refused(self, radius, lam):
        # pi R^2 or lambda pi R^2 under- or overflows; the underflow once divided by zero
        message = f"cell_radius_km {radius:g} squared, or times road_intensity {lam:g}, is beyond"
        with pytest.raises(DomainError, match=re.escape(message)):
            intensities_from_throughput(25e6, 5e5, radius, lam, 0.75)

    def test_a_query_refuses_an_outdoor_fraction_above_one_when_built(self):
        # the rule of intensities_from_throughput, not first met when the query is answered
        with pytest.raises(DomainError, match=re.escape("outdoor_fraction 1.5 must lie in")):
            query(f=1.5)
        above = re.escape("outdoor_fraction 2 must lie in [0, 1]")
        with pytest.raises(DomainError, match=above):
            replace(query(), outdoor_fraction=2.0)
        with pytest.raises(DomainError, match=above):
            bundled_scenario("fig3").to_query(target=0.05, outdoor_fraction=2.0)


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
        # the bracket is the curve at its two thresholds, as averaged_congestion gives them
        alone = averaged_congestion(query(mc=100, seed=5).build_scenario(), [m - 1, m])
        assert alone.pi.tolist() == [report.pi_before, report.pi_at_m]
        assert alone.stderr.tolist() == [report.stderr_before, report.stderr_at_m]
        assert report.realizations == 100

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
    rows = np.array([scalar_ccdf(weight_matrices([scn], road)[0][0], m)
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

    def test_one_pass_to_the_cutoff_or_the_ceiling(self, monkeypatch):
        # one pass, which ends with the group of thresholds holding the
        # answer, or at K = min(m_ceiling, cutoff) when the answer lies beyond
        q = query(target=0.05, tau=25e6, mc=12, seed=3)
        scn = q.build_scenario()
        cutoff = default_cutoff(weight_matrices([scn], road_set(scn))[0])
        steps = counting_kernel(monkeypatch)
        m = dimension_prbs(replace(q, m_ceiling=1024)).required_m
        for m_ceiling in (1024, 200, m):
            steps.clear()
            assert dimension_prbs(replace(q, m_ceiling=m_ceiling)).required_m == m
            assert len(steps) == 1 and m <= steps[0] < m + _STATS_STEPS
        for m_ceiling in (m - 1, 60):
            steps.clear()
            with pytest.raises(CeilingError):
                dimension_prbs(replace(q, m_ceiling=m_ceiling))
            assert steps == [min(m_ceiling, cutoff)]

    def test_ceiling_below_the_answer_reports_brute_force_pi(self):
        # a 1e-8 target needs 237 PRBs here, above the 200 ceiling
        q = query(target=1e-8, tau=25e6, mc=12, seed=3, m_ceiling=200)
        with pytest.raises(CeilingError) as err:
            dimension_prbs(q)
        pi = brute_force_curve(q.build_scenario(), 200)
        assert err.value.ceiling == 200
        assert pi[200] > 1e-8
        assert abs(err.value.achieved_pi - pi[200]) <= 1e-14

    # dimension_scenario once returned None at these ceilings
    @pytest.mark.parametrize("m_ceiling", [0, -5])
    def test_ceiling_below_one_is_refused(self, m_ceiling):
        message = f"m_ceiling {m_ceiling} must be at least 1"
        with pytest.raises(DomainError, match=message):
            query(m_ceiling=m_ceiling)
        with pytest.raises(DomainError, match=message):
            dimension_scenario(query().build_scenario(), 0.05, m_ceiling)

    # a float ceiling once passed the check and failed inside the pass; a
    # bool one passed it and searched only to M = 1
    @pytest.mark.parametrize("m_ceiling", [300.5, 300.0, True])
    def test_ceiling_that_is_not_an_integer_is_refused(self, m_ceiling):
        message = f"m_ceiling {m_ceiling} must be an integer"
        with pytest.raises(DomainError, match=message):
            query(m_ceiling=m_ceiling)
        with pytest.raises(DomainError, match=message):
            dimension_scenario(query().build_scenario(), 0.05, m_ceiling)
        assert dimension_prbs(query(mc=10, m_ceiling=np.int64(300))).required_m <= 300

    # read by DimensionQuery's field readers, in field order; with both bad,
    # dimension_scenario once named the target and the query its M ceiling
    @pytest.mark.parametrize("target, m_ceiling, message", [
        (9.9e-9, 4096, "target congestion 9.9e-09 must lie in [floor 1e-08, 1)"),
        (1.0, 4096, "target congestion 1 must lie in [floor 1e-08, 1)"),
        (1e-9, 0, "target congestion 1e-09 must lie in [floor 1e-08, 1)")])
    @pytest.mark.parametrize("entry", ["DimensionQuery", "dimension_scenario"])
    def test_search_inputs_are_refused_with_the_query_texts(self, entry, target, m_ceiling,
                                                            message):
        with pytest.raises(DomainError) as exc:
            if entry == "DimensionQuery":
                query(target=target, m_ceiling=m_ceiling)
            else:
                dimension_scenario(query().build_scenario(), target, m_ceiling)
        assert str(exc.value) == message

    def test_target_below_the_floor_is_refused(self):
        with pytest.raises(DomainError, match="floor 1e-08"):
            query(target=1e-9)
        scn = query().build_scenario()
        with pytest.raises(DomainError, match="floor 1e-08"):
            dimension_scenario(scn, 9.9e-9)
        assert dimension_scenario(scn, 1e-8).pi_at_m <= 1e-8


# the bundled scenarios that state a throughput forecast
FORECASTS = [path.stem for path in sorted(bundled_scenario_path("fig3").parent.glob("*.scenario"))
             if bundled_scenario(path.stem).throughput_mbps is not None]


def assert_raises_like(q, error):
    """dimension_prbs(q) raises `error`'s type with its message."""
    with pytest.raises(type(error)) as err:
        dimension_prbs(q)
    assert type(err.value) is type(error) and str(err.value) == str(error)


class TestSweep:
    def test_single_point_equals_direct(self):
        q = query(mc=60, seed=2)
        assert sweep(q) == [dimension_prbs(q)]

    @pytest.mark.parametrize("name, region", [*((name, None) for name in FORECASTS),
                                              ("fig8_regions", "middle")])
    def test_dimension_is_the_one_point_sweep_at_file_settings(self, name, region):
        q = bundled_scenario(name).to_query(target=0.05, region=region)
        [point] = sweep(q)
        assert isinstance(point, DimensionReport)
        assert dimension_prbs(q) == point

    def test_dimension_raises_the_one_point_sweep_error(self):
        ceiling = query(mc=10, m_ceiling=8)
        infeasible = at_lambda(query(mc=10), 0.0)
        for q, kind in ((ceiling, CeilingError), (infeasible, InfeasibleSplitError)):
            [error] = sweep(q)
            assert isinstance(error, kind)
            assert_raises_like(q, error)

    def test_grid_shape_and_monotonicity(self):
        q = query(mc=60, seed=2)
        taus = [10e6, 18e6, 25e6]
        points = sweep(q, throughput_grid_bps=taus)
        assert len(points) == len(taus)
        # each point is its throughput's standalone report
        for tau, p in zip(taus, points):
            assert p == dimension_prbs(replace(q, throughput_bps=tau))
        required = [p.required_m for p in points]
        assert required == sorted(required)

    def test_failures_do_not_abort(self):
        q = query(mc=10, m_ceiling=8)
        points = sweep(q, throughput_grid_bps=[1e5, 25e6])
        assert isinstance(points[0], DimensionReport)
        assert isinstance(points[1], CeilingError)
        assert "ceiling" in str(points[1])

    def test_heavy_load_point_is_dimensioned_below_its_ceiling(self):
        # 600 Mbit/s puts every realization's total weight far beyond 708,
        # where exp(-total weight) underflows; it needs more than 4096 PRBs
        q = query(mc=10)
        points = sweep(q, throughput_grid_bps=[25e6, 600e6])
        assert isinstance(points[0], DimensionReport)
        assert isinstance(points[1], CeilingError)
        assert "ceiling 4096" in str(points[1])
        [report] = sweep(replace(q, m_ceiling=8192), throughput_grid_bps=[600e6])
        assert report.required_m == 4138
        scn = replace(q, throughput_bps=600e6).build_scenario()
        m = np.array([4137, 4138])
        fourier = np.mean([ccdf_integral(CompoundSpec(weights=w), m)
                           for w in weight_matrices([scn], road_set(scn))[0]], axis=0)
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
        assert all(isinstance(p, DimensionReport) for p in points)
        assert draws == [4.0, 9.0]

    def test_each_entry_draws_one_road_set_per_distinct_feasible_lambda(self, monkeypatch):
        draws = []

        def counting_road_set(scn):
            draws.append(scn.geometry.road_intensity)
            return road_set(scn)

        monkeypatch.setattr(congestion, "road_set", counting_road_set)
        # all traffic rides the roads, so lambda = 0 is an infeasible split
        points = sweep(query(mc=20, seed=6), throughput_grid_bps=[10e6, 25e6, 10e6],
                       road_intensity_grid=[4.0, 0.0, 9.0, 4.0])
        assert [type(p) for p in points[:4]] == [DimensionReport, InfeasibleSplitError,
                                                  DimensionReport, DimensionReport]
        assert draws == [4.0, 9.0]
        scn = query(mc=20, seed=6).build_scenario()
        averaged_congestion(scn, [0, 5])
        assert draws == [4.0, 9.0, 9.0]
        dimension_scenario(scn, 0.05)
        assert draws == [4.0, 9.0, 9.0, 9.0]

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

        monkeypatch.setattr(linkmodel, "ring_radii", counting_ring_radii)
        # lambda = 0 cannot carry outdoor traffic, so the first feasible
        # point's profiles are the ones shared
        points = sweep(query(mc=20, seed=6), throughput_grid_bps=[10e6, 18e6, 25e6],
                       road_intensity_grid=[0.0, 4.0, 9.0])
        assert [isinstance(p, DimensionReport) for p in points] == [False, True, True] * 3
        assert sorted(calls) == ["indoor", "outdoor"]

    def test_heavy_and_light_points_equal_standalone_dimensioning(self):
        # fig7 at 150 and 300 Mbit/s stacks rescaled heavy rows with light
        # ones in one recursion pass
        q = replace(bundled_scenario("fig7"), realizations=200).to_query(target=0.05)
        points = sweep(q, throughput_grid_bps=[10e6, 150e6, 300e6],
                       road_intensity_grid=[5.0, 9.0])
        grid = [(tau, lam) for tau in (10e6, 150e6, 300e6) for lam in (5.0, 9.0)]
        assert len(points) == len(grid)
        for (tau, lam), p in zip(grid, points):
            alone = dimension_prbs(at_lambda(q, lam, throughput_bps=tau))
            assert p.required_m == alone.required_m
            # every field, the bracket and its standard errors included
            assert p == alone

    def test_error_points_keep_grid_order_and_spare_the_others(self):
        # lambda = 0 with outdoor traffic is an infeasible split; 25 Mbit/s
        # needs more than the 8-PRB ceiling
        q = query(mc=10, m_ceiling=8)
        points = sweep(q, throughput_grid_bps=[1e5, 25e6], road_intensity_grid=[0.0, 9.0])
        assert [type(p) for p in points] == [
            InfeasibleSplitError, DimensionReport, InfeasibleSplitError, CeilingError]
        infeasible, ok, infeasible_too, ceiling = points
        for p, tau in ((infeasible, 1e5), (infeasible_too, 25e6)):
            assert_raises_like(at_lambda(q, 0.0, throughput_bps=tau), p)
        assert_raises_like(replace(q, throughput_bps=25e6), ceiling)
        # the report at grid position 1 is the point (1e5, 9.0)
        alone = dimension_prbs(at_lambda(q, 9.0, throughput_bps=1e5))
        assert ok.required_m == alone.required_m
        assert ok == alone

    def test_road_model_needs_at_least_ppp_equivalent(self):
        from prbdim import ppp_equivalent
        q = query(tau=25e6, lam=9.0, mc=400, seed=14)
        cox = dimension_scenario(q.build_scenario(), q.target_congestion)
        ppp = dimension_scenario(ppp_equivalent(q.build_scenario()),
                                 q.target_congestion)
        assert cox.required_m >= ppp.required_m

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            sweep(query(), throughput_grid_bps=[])


def bundled_query(name, tau_mbps=None, realizations=100):
    doc = replace(bundled_scenario(name), realizations=realizations)
    return doc.to_query(target=0.05, throughput_bps=tau_mbps and tau_mbps * 1e6)


# at 1e108 Mbit/s a value once reached inf within one step, and the
# CeilingError carried Pi(4096) = nan
def test_no_ceiling_error_carries_a_nan():
    q = bundled_query("fig3", realizations=20)
    answers = sweep(q, throughput_grid_bps=[1e100 * 1e6, 1e106 * 1e6])
    assert [type(a) for a in answers] == [CeilingError, CeilingError]
    assert [a.achieved_pi for a in answers] == [1.0, 1.0]
    with pytest.raises(DomainError, match="mean demand 6.69e\\+108 PRBs"):
        sweep(q, throughput_grid_bps=[1e106 * 1e6, 1e108 * 1e6])


def assert_answers(q, expected):
    """dimension_prbs(q) gives `expected`, a `full_curve_answer` tuple."""
    if expected[0] is None:
        with pytest.raises(CeilingError) as err:
            dimension_prbs(q)
        assert err.value.achieved_pi == expected[1]
    else:
        assert report_answer(dimension_prbs(q)) == expected


class TestStopAtTheAnswer:
    """dimension and sweep stop the recursion at the answer; the full curve
    to K, inverted by binary search (tests/conftest.py), is the reference,
    and every field must equal it bit for bit."""

    # fig7 at 300 Mbit/s rescales every heavy row's recursion
    @pytest.mark.parametrize("name, tau_mbps", [
        ("fig3", None), ("fig6_mixed", None), ("fig7", 300)])
    def test_bundled_scenarios_at_three_targets(self, name, tau_mbps):
        q = bundled_query(name, tau_mbps)
        scn = q.build_scenario()
        for target in (0.05, 1e-4, 1e-8):
            [expected] = full_curve_answers([scn], target, q.m_ceiling)
            assert expected[0] is not None
            assert_answers(replace(q, target_congestion=target), expected)

    @pytest.mark.parametrize("tau, target", [(1e5, 0.5), (1e5, 0.05), (5e5, 0.5)])
    def test_crossing_in_the_first_group(self, tau, target):
        q = query(target=target, tau=tau, mc=30, seed=4)
        [expected] = full_curve_answers([q.build_scenario()], target, q.m_ceiling)
        assert 1 <= expected[0] <= _STATS_STEPS
        assert_answers(q, expected)

    def test_ceilings_around_the_answer(self):
        # K just below, at and just above the answer, inside its group
        q = query(target=1e-4, tau=4e6, mc=30, seed=4)
        scn = q.build_scenario()
        [(m, *_)] = full_curve_answers([scn], 1e-4, q.m_ceiling)
        for m_ceiling in range(m - _STATS_STEPS, m + _STATS_STEPS + 1):
            [expected] = full_curve_answers([scn], 1e-4, m_ceiling)
            assert (expected[0] is None) == (m_ceiling < m)
            assert_answers(replace(q, m_ceiling=m_ceiling), expected)

    @pytest.mark.parametrize("m_ceiling", [37, 38, 40, 41])
    def test_sweep_mixes_crossed_and_ceiling_points(self, m_ceiling):
        # the answers are 11, 18, 33, 40 and 61 at the default ceiling, so
        # the stacked pass settles points in different groups, some at a K
        # that ends inside a group
        taus = [1e6, 2e6, 4e6, 5e6, 8e6]
        q = query(target=0.05, mc=30, seed=4, m_ceiling=m_ceiling)
        scns = [replace(q, throughput_bps=tau).build_scenario() for tau in taus]
        expected = full_curve_answers(scns, 0.05, m_ceiling)
        assert {a[0] is None for a in expected} == {False, True}
        for p, answer in zip(sweep(q, throughput_grid_bps=taus), expected):
            if answer[0] is None:
                assert isinstance(p, CeilingError)
                assert str(p).startswith(f"congestion {answer[1]:.6g} still above")
            else:
                assert report_answer(p) == answer

    def test_kernel_steps_end_with_the_answer_group(self, monkeypatch):
        steps = counting_kernel(monkeypatch)
        report = dimension_prbs(bundled_query("fig6_mixed"))
        assert len(steps) == 1 and steps[0] <= report.required_m + _STATS_STEPS
        steps.clear()
        q = bundled_query("fig3", realizations=50)
        points = sweep(q, throughput_grid_bps=[10e6, 20e6, 30e6],
                       road_intensity_grid=[2.0, 10.0])
        # one pass for the whole grid, ending with the largest answer's group
        top = max(p.required_m for p in points)
        assert len(steps) == 1 and top <= steps[0] <= top + _STATS_STEPS

    def test_a_grid_with_an_infeasible_lambda_makes_one_pass(self, monkeypatch):
        steps = counting_kernel(monkeypatch)
        q = bundled_query("fig6_mixed", realizations=50)
        points = sweep(q, throughput_grid_bps=[20e6, 30e6],
                       road_intensity_grid=[0.0, 9.0, 5.0])
        assert [type(p) for p in points] == [
            InfeasibleSplitError, DimensionReport, DimensionReport] * 2
        top = max(p.required_m for p in points if isinstance(p, DimensionReport))
        assert len(steps) == 1 and top <= steps[0] <= top + _STATS_STEPS

    def test_a_grid_of_infeasible_lambdas_makes_no_pass(self, monkeypatch):
        steps = counting_kernel(monkeypatch)
        q = bundled_query("fig6_mixed", realizations=50)
        points = sweep(q, throughput_grid_bps=[20e6, 30e6], road_intensity_grid=[0.0])
        assert [type(p) for p in points] == [InfeasibleSplitError] * 2
        for p, tau in zip(points, (20e6, 30e6)):
            assert_raises_like(at_lambda(q, 0.0, throughput_bps=tau), p)
        assert steps == []


def test_readme_python_example_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    required_m, pi_at_m, pi_before = capsys.readouterr().out.split()
    assert int(required_m) == 291
    assert float(pi_at_m) <= 0.05 < float(pi_before)
