"""Self-check suites behind `prbdim validate`: cross-route identities,
Monte-Carlo consistency (CI-based, so small replication counts still give
an honest verdict), and the headline figure-level deltas.  The identities
need only `compound`; the other suites import the engine when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .compound import (CompoundSpec, bell_complete, bell_determinant, bell_sequence,
                       ccdf_bell_literal, ccdf_integral, recursion_steps)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def convolved_pmf(weights, k_max: int) -> np.ndarray:
    """Brute-force reference: convolve per-level PMFs, Poisson terms in log space."""
    out = np.zeros(k_max + 1)
    out[0] = 1.0
    for n, w in enumerate(weights, start=1):
        level = np.zeros(k_max + 1)
        level[0] = math.exp(-w)
        if w > 0:
            # counts beyond k_max // n only feed indices beyond the table
            for c in range(1, k_max // n + 1):
                level[n * c] = math.exp(c * math.log(w) - w - math.lgamma(c + 1))
        out = np.convolve(out, level)[: k_max + 1]
    return out


def kernel_rows(weights, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows p_0..p_k_max and P(Lambda >= 0..k_max+1) of each weight vector,
    from one `recursion_steps` pass over the vectors, zero-padded."""
    n = max(len(v) for v in weights)
    steps = list(recursion_steps(np.array([np.pad(v, (0, n - len(v))) for v in weights]), k_max))
    tails = [np.ones(len(weights)), *(tail for _, tail in steps)]
    return np.array([p for p, _ in steps]).T, np.array(tails).T


def identities_suite(seed: int = 0, replications: int = 0) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []

    listed = [
        (bell_complete([]) == 1, "B_0 = 1"),
        (bell_complete([7]) == 7, "B_1(x1) = x1"),
        (bell_complete([3, 4]) == 13, "B_2 = x1^2+x2"),
        (bell_complete([1, 1, 1]) == 5, "B_3(1,1,1) = 5"),
        (bell_complete([1, 1, 1, 1]) == 15, "B_4(1,1,1,1) = 15"),
    ]
    checks.append(Check("bell_listed_values", all(ok for ok, _ in listed),
                        "; ".join(d for _, d in listed)))

    agree = True
    for _ in range(30):
        p = int(rng.integers(0, 11))
        xs = [int(v) for v in rng.integers(-4, 5, p)]
        if bell_complete(xs) != bell_determinant(xs):
            agree = False
            break
    checks.append(Check("bell_recurrence_vs_determinant", agree,
                        "exact integer agreement, p <= 10"))

    binom_ok = True
    for _ in range(20):
        p = int(rng.integers(0, 9))
        xs = [int(v) for v in rng.integers(-3, 4, p)]
        ys = [int(v) for v in rng.integers(-3, 4, p)]
        lhs = bell_complete([a + b for a, b in zip(xs, ys)])
        bx, by = bell_sequence(xs), bell_sequence(ys)
        rhs = sum(math.comb(p, i) * bx[p - i] * by[i] for i in range(p + 1))
        if lhs != rhs:
            binom_ok = False
            break
    checks.append(Check("bell_binomial_relation", binom_ok,
                        "binomial-type identity exact, p <= 8"))

    # each check draws its weights first, then reads every spec's p_k or
    # tails off one kernel pass over their stacked rows
    weights = [rng.uniform(0, 1.5, int(rng.integers(1, 5))) for _ in range(20)]
    pmfs, _ = kernel_rows(weights, 40)
    worst = max(float(np.max(np.abs(p - convolved_pmf(w, 40)))) for p, w in zip(pmfs, weights))
    checks.append(Check("pmf_vs_convolution", worst <= 1e-10,
                        f"max |delta| = {worst:.3e} (tol 1e-10)"))

    weights = [rng.uniform(0, 2, int(rng.integers(1, 11))) for _ in range(20)]
    _, tails = kernel_rows(weights, 79)
    ms = np.arange(0, 81)
    worst = max(float(np.max(np.abs(ccdf_integral(CompoundSpec(weights=w), ms) - t)))
                for t, w in zip(tails, weights))
    checks.append(Check("inversion_vs_bell_sum", worst <= 1e-6,
                        f"max |delta| = {worst:.3e} (tol 1e-6)"))

    weights = [rng.uniform(0, 1.0, int(rng.integers(1, 5))) for _ in range(10)]
    _, tails = kernel_rows(weights, 19)
    ms = np.array([0, 1, 5, 12, 20])
    worst = max(float(np.max(np.abs(ccdf_bell_literal(CompoundSpec(weights=w), ms) - t[ms])))
                for t, w in zip(tails, weights))
    checks.append(Check("literal_bell_path", worst <= 1e-10,
                        f"max |delta| = {worst:.3e} (tol 1e-10)"))
    return checks


def mc_suite(seed: int = 0, replications: int = 2000) -> list[Check]:
    from .congestion import averaged_congestion, conditional_congestion, expected_load, road_set
    from .scenario_io import bundled_scenario
    from .simulate import empirical_ccdf, gamma_samples, wilson_interval
    doc = bundled_scenario("fig2_tau30").with_overrides(seed=seed, realizations=200)
    scn = doc.to_scenario()
    checks = []

    # conditional law: one fixed road set, empirical tail inside a wide CI
    road = road_set(replace(scn, mc_realizations=1))
    m_star = max(1, int(round(expected_load(scn))))
    analytic = conditional_congestion(scn, road, m_star)
    fixed, _, _ = gamma_samples(replace(scn, seed=seed + 1), replications, road)
    hits = int(np.count_nonzero(fixed >= m_star))
    lo, hi = wilson_interval(hits, replications, z=4.0)
    checks.append(Check("conditional_tail_in_ci", lo <= analytic <= hi,
                        f"analytic {analytic:.4f} in [{lo:.4f}, {hi:.4f}] "
                        f"({replications} replications)"))

    gammas, _, _ = gamma_samples(scn, replications)
    sample_se = float(gammas.std(ddof=1)) / math.sqrt(replications)
    load = expected_load(scn)
    diff = abs(float(gammas.mean()) - load)
    checks.append(Check("mean_load_vs_simulation", diff <= 5.0 * sample_se + 1e-9,
                        f"|{gammas.mean():.3f} - {load:.3f}| = {diff:.3f} "
                        f"<= 5*SE = {5 * sample_se:.3f}"))

    emp = empirical_ccdf(scn, np.array([m_star]), replications)
    curve = averaged_congestion(scn, np.array([m_star]))
    slack = (curve.stderr[0] * 4.0
             + (emp.ci_high[0] - emp.ci_low[0]))
    gap = abs(float(curve.pi[0]) - float(emp.ccdf[0]))
    checks.append(Check("averaged_vs_empirical", gap <= slack,
                        f"|analytic - empirical| = {gap:.4f} <= slack {slack:.4f}"))
    return checks


# The figure-level checks at a 5% target back both `validate --suite figures`
# and acceptance criteria 6-8.  Interference deltas: scenario -> (forecast
# label, bounds on required_m with margins minus noise-limited).
INTERFERENCE_DELTAS = {"fig6_mixed": ("tau=30M", 55, 105), "fig7": ("tau=26M", 35, 70)}


def fig3_lambda_delta() -> Check:
    from .dimension import sweep
    from .scenario_io import bundled_scenario
    points = sweep(bundled_scenario("fig3").to_query(target=0.05),
                   road_intensity_grid=[2.0, 10.0])
    required = {p.road_intensity: p.report.required_m for p in points}
    d3 = required[2.0] - required[10.0]
    return Check("fig3_lambda_delta", 20 <= d3 <= 45,
                 f"required_m({2.0}) - required_m({10.0}) = {d3} in [20, 45]")


def interference_delta(name: str) -> Check:
    from .dimension import dimension_prbs
    from .scenario_io import bundled_scenario
    tau_label, lo, hi = INTERFERENCE_DELTAS[name]
    doc = bundled_scenario(name)
    with_im = dimension_prbs(doc.to_query(target=0.05)).required_m
    without = dimension_prbs(doc.to_query(target=0.05, noise_limited=True)).required_m
    d = with_im - without
    return Check(f"{name}_interference_delta", lo <= d <= hi,
                 f"{tau_label}: {with_im} - {without} = {d} in [{lo}, {hi}]")


def figures_suite(seed: int = 0, replications: int = 2000) -> list[Check]:
    from .congestion import averaged_congestion
    from .scenario_io import bundled_scenario
    from .simulate import empirical_ccdf
    checks = [fig3_lambda_delta()]
    checks += [interference_delta(name) for name in INTERFERENCE_DELTAS]

    doc = bundled_scenario("fig2_tau30").with_overrides(realizations=1000)
    scn = doc.to_scenario()
    ms = np.arange(0, 261)
    analytic = averaged_congestion(scn, ms)
    emp = empirical_ccdf(scn, ms, replications)
    gap = float(np.max(np.abs(analytic.pi - emp.ccdf)))
    tol = 0.02 + 3.0 * math.sqrt(0.25 / replications)
    checks.append(Check("fig2_agreement", gap <= tol,
                        f"max |analytic - empirical| = {gap:.4f} <= {tol:.4f} "
                        f"({replications} replications)"))
    return checks
