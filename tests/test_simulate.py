import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import fixed_road, reference_block, rings

from prbdim import (CompoundSpec, DomainError, GeometryParams, InterferenceModel,
                    LinkBudget, Scenario, Service, conditional_congestion,
                    empirical_ccdf, expected_load)
from prbdim.congestion import weight_matrix
from prbdim.scenario_io import bundled_scenario
from prbdim.simulate import BLOCK, MC_TAG, gamma_samples, wilson_interval


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
    """One Monte-Carlo replication: roads, users, then per-user lookup."""

    def test_empty_cell_is_zero(self):
        # lambda = kappa = 0: no roads, no users, zero demand in every block
        for out in gamma_samples(make_scenario(delta=6.0), 2 * BLOCK + 3):
            np.testing.assert_array_equal(out, 0)

    def test_single_user_demand(self):
        # each user inside one ring contributes exactly its level, to its
        # own replication only
        scn = make_scenario(kappa=1.0)
        ((lo, hi),) = rings(scn.demand_steps[1])[3]
        gamma, n_out, n_in = gamma_samples(replace(scn, region_km=(lo, hi)), 2 * BLOCK)
        np.testing.assert_array_equal(gamma, 3 * n_in)
        np.testing.assert_array_equal(n_out, 0)
        assert n_in.min() == 0 and n_in.max() > 1

    def test_deterministic_per_stream(self):
        # replications 0..BLOCK-1 are block 0, drawn from (seed, MC_TAG, 0) alone
        scn = make_scenario(lam=9.0, delta=6.0, kappa=10.0, seed=5)
        rng = np.random.default_rng(np.random.SeedSequence((5, MC_TAG, 0)))
        by_hand = reference_block(scn, rng, BLOCK)
        for got, want in zip(gamma_samples(scn, 2), by_hand):
            np.testing.assert_array_equal(got, want[:2])
        assert by_hand[0].sum() > 0


class TestBlocks:
    """Replications are drawn BLOCK at a time, one generator per block."""

    # cuts inside the first block, and next to the block edges
    @pytest.mark.parametrize("n", [31, 32, 33, 67, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_prefix_across_block_edges(self, n):
        scn = make_scenario(lam=7.0, delta=2.5, kappa=5.0, seed=4)
        long = gamma_samples(scn, 5 * BLOCK)
        for got, want in zip(gamma_samples(scn, n), long):
            assert got.shape == (n,)
            np.testing.assert_array_equal(got, want[:n])

    @pytest.mark.parametrize("region", [(0.0, 0.3), (0.3, 0.7)])
    def test_region_mean_matches_closed_form(self, region):
        # only users in (lo, hi] count; the mean then tracks expected_load
        reps = 20_000
        scn = replace(bundled_scenario("fig2_tau30").to_scenario(), region_km=region)
        gammas, _, _ = gamma_samples(scn, reps)
        se = float(gammas.std(ddof=1)) / math.sqrt(reps)
        assert abs(float(gammas.mean()) - expected_load(scn)) <= 5.0 * se

    def test_standard_sampler(self):
        # E[outdoor users] = E[Y] * 2*delta * E[sqrt(R^2 - r^2)]: with r = R*U
        # that is pi^2*lambda*delta*R^2, with r = R*sqrt(U) (8*pi/3)*lambda*delta*R^2
        reps = 4000
        for sampler, factor in (("standard", math.pi ** 2), ("paper", 8 * math.pi / 3)):
            scn = replace(make_scenario(lam=9.0, delta=6.0, seed=3), sampler=sampler)
            _, n_out, _ = gamma_samples(scn, reps)
            se = float(n_out.std(ddof=1)) / math.sqrt(reps)
            assert abs(float(n_out.mean()) - factor * 9.0 * 6.0 * 0.7 ** 2) <= 5.0 * se

    def test_fixed_road_keeps_the_road(self):
        # with a road given, no replication draws roads of its own
        scn = make_scenario(lam=9.0, delta=6.0, seed=6)
        _, n_out, _ = gamma_samples(scn, BLOCK + 1, fixed_road([]))
        np.testing.assert_array_equal(n_out, 0)


class TestEmpiricalCcdf:
    def test_degenerate_curve_is_indicator(self):
        scn = make_scenario()
        curve = empirical_ccdf(scn, np.array([0, 1, 2]), 200)
        np.testing.assert_array_equal(curve.ccdf, [1.0, 0.0, 0.0])

    def test_requires_replications(self):
        with pytest.raises(DomainError):
            empirical_ccdf(make_scenario(), np.array([0]), 50)

    # fractional thresholds were once floored: [2.9, 40.5] answered at [2, 40]
    @pytest.mark.parametrize("m, message", [([2.9, 40.5], "thresholds: 2.9 is not a whole number"),
                                            ([-3], "thresholds must be nonnegative")],
                             ids=["fractional", "negative"])
    def test_refuses_thresholds_the_analytic_readers_refuse(self, m, message):
        scn = bundled_scenario("fig4").to_scenario()
        with pytest.raises(DomainError) as exc:
            empirical_ccdf(scn, m, 200)
        assert str(exc.value) == message

    def test_whole_thresholds_given_as_floats_are_read(self):
        scn = bundled_scenario("fig4").to_scenario()
        curve = empirical_ccdf(scn, [3.0, 40.0], 200)
        assert curve.m_values.dtype == np.int64 and curve.m_values.tolist() == [3, 40]
        np.testing.assert_array_equal(curve.ccdf, empirical_ccdf(scn, [3, 40], 200).ccdf)

    def test_indoor_within_3sigma_of_analytic(self):
        # Exact two-sided binomial test of each hit count at the 3.5-sigma
        # normal level per side. A normal band would score a single hit
        # where the analytic tail is ~1e-6 as about 10 sigma.
        from scipy.stats import binom, norm
        scn = make_scenario(kappa=20.0, seed=31)
        reps = 10_000
        ms = np.arange(0, 120)
        curve = empirical_ccdf(scn, ms, reps)
        spec = CompoundSpec(weight_matrix(scn, fixed_road([]))[0])
        from prbdim import ccdf_bell
        analytic = np.clip(ccdf_bell(spec, ms), 0.0, 1.0)
        hits = np.rint(curve.ccdf * reps)
        tail = np.minimum(binom.cdf(hits, reps, analytic),
                          binom.sf(hits - 1, reps, analytic))
        assert np.all(tail >= norm.sf(3.5))

    def test_conditional_check_fixed_roads(self):
        # empirical conditional tail matches the compound reduction
        scn = make_scenario(lam=9.0, delta=6.0, kappa=5.0, seed=8)
        road = fixed_road([0.05, 0.2, 0.44, 0.6])
        m_star = 30
        analytic = conditional_congestion(scn, road, m_star)
        reps = 4000
        gammas, _, _ = gamma_samples(replace(scn, seed=77), reps, road)
        hits = int(np.count_nonzero(gammas >= m_star))
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
        # the indoor users of each level's ring, counted as a region
        scn = make_scenario(kappa=20.0, seed=12)
        reps = 10_000
        for (lo, hi), in rings(scn.demand_steps[1]).values():
            _, _, counts = gamma_samples(replace(scn, region_km=(lo, hi)), reps)
            dispersion = counts.var(ddof=1) / counts.mean()
            assert 0.9 < dispersion < 1.1


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

    def test_no_trials_is_refused(self):
        with pytest.raises(DomainError) as exc:
            wilson_interval(0, 0)
        assert str(exc.value) == "trials must be positive"
