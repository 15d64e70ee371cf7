import numpy as np
import pytest

from prbdim import (DomainError, GeometryParams, InterferenceModel,
                    LinkBudget, RoadRealization, Scenario, Service,
                    conditional_congestion, empirical_ccdf, rng_stream,
                    sample_roads, sample_users)
from prbdim.congestion import conditional_spec
from prbdim.simulate import demand_of_drop, gamma_samples, wilson_interval


def make_scenario(lam=0.0, delta=0.0, kappa=0.0, seed=0, n_max=6):
    lb = LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                    prop_const_indoor_db=166.0, path_loss_exp=3.5, tx_antennas=8,
                    rx_antennas=2, prb_bandwidth_hz=180e3, cell_radius_km=0.7,
                    max_user_prbs=n_max)
    gp = GeometryParams(road_intensity=lam, user_intensity_linear=delta,
                        user_intensity_area=kappa)
    return Scenario(link_budget=lb, interference=InterferenceModel.noise_limited(),
                    service=Service(rate_bps=500e3), geometry=gp, seed=seed,
                    mc_realizations=10)


class TestSimulateOnce:
    """One Monte-Carlo draw: roads, users, then per-user lookup."""

    def test_empty_cell_is_zero(self):
        scn = make_scenario()
        gammas, n_out, n_in = gamma_samples(scn, 1)
        assert gammas[0] == n_out[0] == n_in[0] == 0

    def test_single_user_demand(self):
        # a user pinned at a known distance contributes exactly its level
        scn = make_scenario(kappa=1.0)
        profile = scn.profiles[1]
        from prbdim.geometry import UserDrop
        x = 0.55  # inside level 3 for this budget
        drop = UserDrop(outdoor_km=np.array([]), indoor_km=np.array([x]))
        assert demand_of_drop(scn, drop) == profile.levels_at(np.array([x]))[0] == 3

    def test_deterministic_per_stream(self):
        # replication i is drawn from stream (seed, i) alone
        scn = make_scenario(lam=9.0, delta=6.0, kappa=10.0, seed=5)
        rng = rng_stream(5, 1)
        road = sample_roads(scn.geometry, 0.7, scn.sampler, rng)
        drop = sample_users(scn.geometry, 0.7, road, rng)
        a = gamma_samples(scn, 2)[0][1]
        b = gamma_samples(scn, 2)[0][1]
        assert a == b == demand_of_drop(scn, drop)


class TestEmpiricalCcdf:
    def test_degenerate_curve_is_indicator(self):
        scn = make_scenario()
        curve = empirical_ccdf(scn, np.array([0, 1, 2]), 200)
        np.testing.assert_array_equal(curve.ccdf, [1.0, 0.0, 0.0])

    def test_requires_replications(self):
        with pytest.raises(DomainError):
            empirical_ccdf(make_scenario(), np.array([0]), 50)

    def test_indoor_within_3sigma_of_analytic(self):
        scn = make_scenario(kappa=20.0, seed=31)
        ms = np.arange(0, 120)
        curve = empirical_ccdf(scn, ms, 10_000)
        spec = conditional_spec(scn, RoadRealization(np.array([])))
        from prbdim import pmf
        analytic = pmf(spec, 119).ccdf_curve(ms)
        sigma = np.sqrt(np.maximum(analytic * (1 - analytic), 1e-12) / 10_000)
        assert np.all(np.abs(curve.ccdf - analytic) <= 3.5 * sigma + 1e-9)

    def test_conditional_check_fixed_roads(self):
        # empirical conditional tail matches the compound reduction
        scn = make_scenario(lam=9.0, delta=6.0, kappa=5.0, seed=8)
        road = RoadRealization(chord_distances=np.array([0.05, 0.2, 0.44, 0.6]))
        m_star = 30
        analytic = conditional_congestion(scn, road, m_star)
        hits = 0
        reps = 4000
        for i in range(reps):
            drop = sample_users(scn.geometry, 0.7, road, rng_stream(77, i))
            hits += demand_of_drop(scn, drop) >= m_star
        lo, hi = wilson_interval(hits, reps)
        assert lo - 0.01 <= analytic <= hi + 0.01

    def test_reports_measured_vs_printed_mean(self):
        scn = make_scenario(lam=9.0, delta=6.0, seed=2)
        curve = empirical_ccdf(scn, np.array([0]), 2000)
        assert curve.eq1_mean_users == pytest.approx(83.126541613985929, rel=1e-12)
        # the sampled road process carries substantially more users than
        # the printed formula; both numbers are surfaced, not reconciled
        assert curve.mean_outdoor_users > 2.0 * curve.eq1_mean_users

    def test_per_level_counts_are_poisson_dispersed(self):
        scn = make_scenario(kappa=20.0, seed=12)
        profile = scn.profiles[1]
        reps = 10_000
        counts = np.zeros((reps, profile.n_levels), dtype=np.int64)
        for i in range(reps):
            drop = sample_users(scn.geometry, 0.7, RoadRealization(np.array([])),
                                rng_stream(scn.seed, i))
            levels = profile.levels_at(drop.indoor_km)
            counts[i] = np.bincount(levels, minlength=profile.n_levels + 1)[1:]
        dispersion = counts.var(axis=0, ddof=1) / counts.mean(axis=0)
        assert np.all(dispersion > 0.9) and np.all(dispersion < 1.1)


class TestWilson:
    def test_known_interval(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.4038315, abs=1e-6)
        assert hi == pytest.approx(0.5961685, abs=1e-6)

    def test_edge_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo > 0.95
