"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in failure
output) and asserts the same condition.
"""

import itertools
import math
import time

import numpy as np

from prbdim import (CompoundSpec, GeometryParams, InterferenceModel,
                    LinkBudget, Scenario, Service, averaged_congestion,
                    bell_complete, bell_determinant, ccdf_bell, ccdf_integral,
                    dimension_prbs, expected_load, pmf, ppp_equivalent)
from prbdim.cli import main as cli_main
from prbdim.congestion import road_set, weight_matrices
from prbdim.scenario_io import bundled_scenario, bundled_scenario_path
from prbdim.simulate import empirical_ccdf, gamma_samples
from prbdim.validate import convolved_pmf, fig3_lambda_delta, interference_delta


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_route_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20250811)
    ms = np.arange(0, 151)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        spec = CompoundSpec(weights=rng.uniform(0.0, 2.0, n))
        by_integral = ccdf_integral(spec, ms)
        by_recursion = ccdf_bell(spec, ms)
        worst = max(worst, float(np.max(np.abs(by_integral - by_recursion))))
    elapsed = time.perf_counter() - start
    _report(1, "route equivalence", worst <= 1e-6 and elapsed < 30.0,
            f"max |delta| = {worst:.3e} (tol 1e-6), {elapsed:.1f}s (limit 30s)")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        w = rng.uniform(0.0, 2.0, n)
        worst = max(worst, float(np.max(np.abs(
            pmf(CompoundSpec(weights=w), 50) - convolved_pmf(w, 50)))))
    _report(2, "pmf vs brute force", worst <= 1e-10,
            f"max |delta| = {worst:.3e} (tol 1e-10), N<=5, K<=50")


def test_criterion_03_bell_identities():
    rng = np.random.default_rng(13)
    listed = (bell_complete([]) == 1 and bell_complete([5]) == 5
              and bell_complete([3, 4]) == 13
              and bell_complete([1, 1, 1]) == 5
              and bell_complete([1, 1, 1, 1]) == 15)
    det_ok = True
    for _ in range(200):
        p = int(rng.integers(0, 11))
        xs = [int(v) for v in rng.integers(-5, 6, p)]
        det_ok &= bell_complete(xs) == bell_determinant(xs)
    binom_ok = True
    for _ in range(120):
        p = int(rng.integers(0, 9))
        xs = [int(v) for v in rng.integers(-4, 5, p)]
        ys = [int(v) for v in rng.integers(-4, 5, p)]
        lhs = bell_complete([a + b for a, b in zip(xs, ys)])
        rhs = sum(math.comb(p, i) * bell_complete(xs[: p - i]) * bell_complete(ys[:i])
                  for i in range(p + 1))
        binom_ok &= lhs == rhs
    _report(3, "Bell identities", listed and det_ok and binom_ok,
            f"listed values {listed}, determinant==recurrence {det_ok} (p<=10), "
            f"binomial relation {binom_ok} (p<=8), all exact")


def test_criterion_04_mean_load():
    start = time.perf_counter()
    lb = LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                    prop_const_indoor_db=166.0, path_loss_exp=3.5, tx_antennas=8,
                    rx_antennas=2, prb_bandwidth_hz=180e3, cell_radius_km=0.7)
    scn = Scenario(link_budget=lb, interference=InterferenceModel.noise_limited(),
                   service=Service(rate_bps=500e3),
                   geometry=GeometryParams(road_intensity=9.0,
                                           user_intensity_linear=6.0,
                                           user_intensity_area=0.0),
                   sampler="paper", seed=404, mc_realizations=1)
    closed_form = expected_load(scn)
    gammas, _, _ = gamma_samples(scn, 100_000)
    rel = abs(float(gammas.mean()) - closed_form) / closed_form
    elapsed = time.perf_counter() - start
    _report(4, "mean load closed form", rel <= 0.01 and elapsed < 120.0,
            f"analytic {closed_form:.3f} vs simulated {gammas.mean():.3f}, "
            f"rel {rel:.4%} (tol 1%), {elapsed:.1f}s (limit 120s)")


def test_criterion_05_congestion_curve_reproduction():
    start = time.perf_counter()
    worst = 0.0
    details = []
    for name in ("fig2_tau14", "fig2_tau30"):
        scn = bundled_scenario(name).to_scenario()
        ms = np.arange(0, 321)
        analytic = averaged_congestion(scn, ms)
        empirical = empirical_ccdf(scn, ms, 10_000)
        gap = float(np.max(np.abs(analytic.pi - empirical.ccdf)))
        worst = max(worst, gap)
        details.append(f"{name}: {gap:.4f}")
    elapsed = time.perf_counter() - start
    _report(5, "analytic vs Monte-Carlo curves", worst <= 0.02 and elapsed < 300.0,
            f"max |delta| {'; '.join(details)} (tol 0.02 at 10^4 replications), "
            f"{elapsed:.1f}s (limit 300s)")


def test_criterion_06_road_intensity_delta():
    check = fig3_lambda_delta()
    _report(6, "sparse vs dense roads", check.passed, check.detail)


def test_criterion_07_interference_delta_tau30():
    check = interference_delta("fig6_mixed")
    _report(7, "interference impact at tau=30M", check.passed, check.detail)


def test_criterion_08_interference_delta_tau26():
    check = interference_delta("fig7")
    _report(8, "interference impact at tau=26M", check.passed, check.detail)


def test_criterion_09_orderings():
    # road-bound users vs the equal-intensity spatial process
    cox = bundled_scenario("fig4").to_scenario()
    ms = np.arange(0, 401)
    cox_curve = averaged_congestion(cox, ms)
    ppp_curve = averaged_congestion(ppp_equivalent(cox), ms)
    assert ppp_curve.stderr.max() == 0.0  # deterministic baseline
    resolvable = np.abs(cox_curve.pi - ppp_curve.pi) > 3.0 * cox_curve.stderr
    ordered = cox_curve.pi >= ppp_curve.pi
    cox_ok = bool(np.all(ordered[resolvable]) and np.any(resolvable)
                  and np.all(cox_curve.pi >= ppp_curve.pi - 3.0 * cox_curve.stderr))

    # indoor vs outdoor spatial process at equal area intensity (deterministic)
    lb = cox.link_budget
    indoor = Scenario(link_budget=lb, interference=cox.interference,
                      service=cox.service,
                      geometry=GeometryParams(0.0, 0.0, 54.0), mc_realizations=1)
    outdoor = ppp_equivalent(Scenario(link_budget=lb, interference=cox.interference,
                                      service=cox.service,
                                      geometry=GeometryParams(9.0, 6.0, 0.0),
                                      mc_realizations=1))
    pi_in = averaged_congestion(indoor, ms).pi
    pi_out = averaged_congestion(outdoor, ms).pi
    indoor_ok = bool(np.all(pi_in >= pi_out) and np.any(pi_in > pi_out))

    # per-region dimensioning under the three-region margins
    doc = bundled_scenario("fig8_regions")
    required = {region: dimension_prbs(doc.to_query(target=0.05, region=region)).required_m
                for region in ("center", "middle", "edge")}
    regions_ok = required["edge"] >= required["middle"] >= required["center"]

    _report(9, "stochastic orderings", cox_ok and indoor_ok and regions_ok,
            f"cox>=ppp at {int(resolvable.sum())} resolvable points; "
            f"indoor>=outdoor everywhere; regions {required['edge']} >= "
            f"{required['middle']} >= {required['center']}")


def test_criterion_10_structural_invariants(tmp_path):
    lb = LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0, prop_const_db=130.0,
                    prop_const_indoor_db=166.0, path_loss_exp=3.5, tx_antennas=8,
                    rx_antennas=2, prb_bandwidth_hz=180e3, cell_radius_km=0.7,
                    max_user_prbs=6)
    im3 = InterferenceModel.three_region(1.0, 8.0, 15.0, 0.7)
    svc = Service(rate_bps=500e3)

    # profile pieces rise from 0 to exactly R, neighbours on different levels
    from prbdim import ring_radii
    partition_ok = True
    for env, im in itertools.product(("outdoor", "indoor"),
                                     (InterferenceModel.noise_limited(), im3)):
        profile = ring_radii(lb, im, svc, env)
        ends = (0.0, *profile.bounds, profile.span)
        partition_ok &= ends[-1] == 0.7 and all(u < v for u, v in zip(ends, ends[1:]))
        levels = profile.values.tolist()
        partition_ok &= all(n != m for n, m in zip(levels, levels[1:]))

    # averaged curve nonincreasing; congestion monotone in every intensity
    def scenario(delta, kappa, margins, seed=33):
        return Scenario(link_budget=lb, interference=margins, service=svc,
                        geometry=GeometryParams(9.0, delta, kappa),
                        seed=seed, mc_realizations=60)

    ms = np.arange(0, 260)
    base = averaged_congestion(scenario(2.0, 8.0, InterferenceModel.noise_limited()), ms)
    monotone_ok = bool(np.all(np.diff(base.pi) <= 0))
    ladders = (
        averaged_congestion(scenario(3.0, 8.0, InterferenceModel.noise_limited()), ms),
        averaged_congestion(scenario(2.0, 12.0, InterferenceModel.noise_limited()), ms),
        averaged_congestion(scenario(2.0, 8.0, im3), ms),
    )
    dominance_ok = all(bool(np.all(curve.pi >= base.pi - 1e-12)) for curve in ladders)

    # identical command + seed -> byte-identical CLI output
    fig4 = str(bundled_scenario_path("fig4"))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["congestion", "--scenario", fig4, "--m-max", "30",
            "--realizations", "50", "--seed", "11"]
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    determinism_ok = out_a.read_bytes() == out_b.read_bytes()

    # batch size cannot change results: MC blocks are drawn whole and cut,
    # so a short run is a prefix of a long one, and each weight row depends
    # on its own road only
    scn = scenario(2.0, 8.0, InterferenceModel.noise_limited())
    long_draw, short_draw = gamma_samples(scn, 50), gamma_samples(scn, 20)
    roads = road_set(scn)
    w = weight_matrices([scn], roads)[0]
    batch_ok = (all(np.array_equal(s, l[:20]) for s, l in zip(short_draw, long_draw))
                and all(np.array_equal(row, weight_matrices([scn], road)[0][0])
                        for row, road in zip(w, roads)))

    _report(10, "structural invariants",
            partition_ok and monotone_ok and dominance_ok and determinism_ok and batch_ok,
            f"partition {partition_ok}, monotone CCDF {monotone_ok}, "
            f"intensity/margin dominance {dominance_ok}, byte determinism "
            f"{determinism_ok}, batch invariance {batch_ok}")
