"""Command-line front end: congestion curves, dimensioning, sweeps,
Monte-Carlo simulation and self-validation, with CSV output.

Exit codes: 0 success, 2 usage, 3 scenario/validation error (including a
target below the 1e-8 floor), 4 infeasibility (target unreachable,
impossible traffic split), 5 accuracy (Fourier grid beyond its 2^26-point
limit).  Each command imports the engine names it calls when it runs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import DEFAULT_M_CEILING, REGION_NAMES, __version__
from .errors import (AccuracyError, CeilingError, DomainError,
                     InfeasibleSplitError, ScenarioError)

if TYPE_CHECKING:
    from .dimension import DimensionQuery, DimensionReport
    from .scenario_io import ScenarioFile
    from .simulate import EmpiricalCurve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_ACCURACY = 5

# argparse reads a value such as -inf, -nan, -1e3 or the grid -1,2 as an
# option of its own, so main() binds one that follows a float or grid option
# to it as --option=value; the subcommands refuse abbreviated options, so
# only full names need it
_SIGNED_OPTIONS = ("--target", "--tau-mbps", "--outdoor-fraction", "--tau-grid-mbps",
                   "--lambda-grid-per-km")
_SIGNED_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _fmt(value) -> str:
    """CSV cell: floats as shortest round-trip repr, ints plain."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, meta: dict, header: list[str], rows) -> None:
    lines = [f"# {key} = {value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _base_meta(args, doc: ScenarioFile) -> dict:
    return {
        "tool": f"prbdim {__version__}",
        "command": args.command,
        "scenario": args.scenario,
        "seed": doc.seed,
        "realizations": doc.realizations,
        "sampler": doc.sampler,
    }


def _load(args) -> ScenarioFile:
    from .scenario_io import load_scenario
    doc = load_scenario(args.scenario)
    return doc.with_overrides(seed=getattr(args, "seed", None),
                              realizations=getattr(args, "realizations", None))


def _user_means(meta: dict, emp: EmpiricalCurve) -> None:
    """Record the Monte-Carlo run's measured and Eq. (1) mean user counts."""
    meta["measured_mean_outdoor_users"] = repr(emp.mean_outdoor_users)
    meta["measured_mean_indoor_users"] = repr(emp.mean_indoor_users)
    meta["eq1_mean_users"] = repr(emp.eq1_mean_users)


def _curve_csv(args, meta: dict, header: list[str], curve_rows, rule: str,
               replications: int | None) -> int:
    """Write a curve command's CSV: `curve_rows(args, scn, meta, ms)` gives
    the rows at thresholds ms = 0..m_max-1, or at ms = None to the extent
    that `rule` names. `replications` is the Monte-Carlo replication count
    the rows would use, if any; it is checked even when --m-max 0 writes
    the header alone."""
    if args.m_max is not None and args.m_max < 0:
        raise DomainError(f"--m-max {args.m_max} must be a non-negative integer")
    if replications is not None:
        from .simulate import check_replications
        check_replications(replications)
    from .congestion import ppp_equivalent
    doc = _load(args)
    scn = doc.to_scenario(noise_limited=args.noise_limited, region=args.region)
    scn = ppp_equivalent(scn) if args.ppp_equivalent else scn
    meta = {**_base_meta(args, doc), **meta}
    if args.m_max is None:
        rows = curve_rows(args, scn, meta, None)
        meta["m_max_rule"] = rule
    else:
        rows = curve_rows(args, scn, meta, np.arange(0, args.m_max)) if args.m_max > 0 else []
    write_csv(args.out, meta, header, rows)
    return EXIT_OK


def _congestion_rows(args, scn, meta: dict, ms):
    from .congestion import averaged_congestion
    curve = averaged_congestion(scn, ms)
    rows = [list(t) for t in zip(curve.m_values, curve.pi, curve.stderr)]
    if args.with_mc:
        from .simulate import empirical_ccdf
        emp = empirical_ccdf(scn, curve.m_values, args.mc_replications)
        meta["mc_replications"] = args.mc_replications
        for row, p, lo, hi in zip(rows, emp.ccdf, emp.ci_low, emp.ci_high):
            row += [p, lo, hi]
        _user_means(meta, emp)
    return rows


def cmd_congestion(args) -> int:
    mc = ["pi_mc", "mc_low", "mc_high"] if args.with_mc else []
    return _curve_csv(args, {}, ["m", "pi_analytic", "stderr", *mc], _congestion_rows, "chernoff",
                      args.mc_replications if args.with_mc else None)


def _print_report(report: DimensionReport, target: float) -> None:
    m = report.required_m
    print(f"required_m = {m}")
    print(f"target congestion = {_fmt(target)}")
    print(f"bracket: Pi({m - 1}) = {report.pi_before:.6g} > {target:g} >= "
          f"Pi({m}) = {report.pi_at_m:.6g}")
    print(f"stderr: Pi({m - 1}) +/- {report.stderr_before:.3g}, "
          f"Pi({m}) +/- {report.stderr_at_m:.3g}")
    print(f"realizations = {report.curve.realizations}")


def _query(args, doc: ScenarioFile, throughput_bps: float | None) -> DimensionQuery:
    return doc.to_query(target=args.target, throughput_bps=throughput_bps,
                        outdoor_fraction=args.outdoor_fraction,
                        m_ceiling=args.m_ceiling,
                        noise_limited=args.noise_limited, region=args.region)


def _bps(mbps: float) -> float:
    """Mbit/s to bit/s; a non-positive value is named as typed, nan and inf by the query."""
    if mbps <= 0:
        raise DomainError(f"throughput {mbps:g} Mbit/s must be positive and finite")
    return mbps * 1e6


def cmd_dimension(args) -> int:
    from .dimension import dimension_prbs
    doc = _load(args)
    query = _query(args, doc, _bps(args.tau_mbps) if args.tau_mbps is not None else None)
    report = dimension_prbs(query)
    _print_report(report, args.target)
    if args.out:
        meta = _base_meta(args, doc)
        meta["target"] = _fmt(args.target)
        write_csv(args.out, meta,
                  ["tau_mbps", "lambda_per_km", "target", "required_m",
                   "pi_at_m", "pi_before", "stderr_at_m"],
                  [[query.throughput_bps / 1e6, report.road_intensity,
                    args.target, report.required_m, report.pi_at_m,
                    report.pi_before, report.stderr_at_m]])
    return EXIT_OK


def _grid(raw: str | None) -> list[float] | None:
    if raw is None:
        return None
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise DomainError(f"bad grid {raw!r}: expected comma-separated numbers") from None
    if not values:
        raise DomainError("grid must be nonempty")
    return values


def cmd_sweep(args) -> int:
    from .dimension import sweep
    doc = _load(args)
    tau_grid = _grid(args.tau_grid_mbps)
    lam_grid = _grid(args.lambda_grid_per_km)
    taus_bps = [_bps(t) for t in tau_grid] if tau_grid else None
    query = _query(args, doc, taus_bps[0] if taus_bps else None)
    points = sweep(query, throughput_grid_bps=taus_bps, road_intensity_grid=lam_grid)
    meta = _base_meta(args, doc)
    meta["target"] = _fmt(args.target)
    rows = []
    for pt in points:
        if pt.report is not None:
            rows.append([pt.throughput_bps / 1e6, pt.road_intensity, pt.target,
                         pt.report.required_m, pt.report.pi_at_m,
                         pt.report.pi_before, pt.report.stderr_at_m, "ok"])
        else:
            rows.append([pt.throughput_bps / 1e6, pt.road_intensity, pt.target,
                         -1, math.nan, math.nan, math.nan, "error"])
            print(f"point tau={pt.throughput_bps / 1e6:g} lambda={pt.road_intensity:g}: "
                  f"{pt.error}", file=sys.stderr)
    write_csv(args.out, meta,
              ["tau_mbps", "lambda_per_km", "target", "required_m",
               "pi_at_m", "pi_before", "stderr_at_m", "status"], rows)
    return EXIT_OK


def _simulate_rows(args, scn, meta: dict, ms):
    from .simulate import empirical_ccdf
    emp = empirical_ccdf(scn, ms, args.replications)
    _user_means(meta, emp)
    meta["mean_gamma"] = repr(emp.mean_gamma)
    return zip(emp.m_values, emp.ccdf, emp.ci_low, emp.ci_high)


def cmd_simulate(args) -> int:
    return _curve_csv(args, {"replications": args.replications},
                      ["m", "pi_mc", "wilson_low", "wilson_high"], _simulate_rows, "sample_max",
                      args.replications)


def cmd_validate(args) -> int:
    import json
    from . import validate as validate_suites
    if args.seed < 0:
        raise DomainError(f"seed {args.seed} must be a non-negative integer")
    if args.suite != "identities":
        from .simulate import check_replications
        check_replications(args.replications)
    suites = {
        "identities": validate_suites.identities_suite,
        "mc": validate_suites.mc_suite,
        "figures": validate_suites.figures_suite,
    }
    checks = suites[args.suite](seed=args.seed, replications=args.replications)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: {c.detail}")
    summary = {"suite": args.suite, "checks": len(checks),
               "failed": len(failed), "passed": len(checks) - len(failed)}
    print(json.dumps(summary))
    return EXIT_OK if not failed else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prbdim",
        description="Dimension OFDM radio resources against a congestion target.")
    parser.add_argument("--version", action="version", version=f"prbdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_opts(p):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--seed", type=int, default=None, help="override the file seed")
        p.add_argument("--realizations", type=int, default=None,
                       help="override the road-realization count")
        p.add_argument("--noise-limited", action="store_true",
                       help="drop all interference margins")
        p.add_argument("--region", choices=REGION_NAMES, default=None,
                       help="restrict the population to one cell region")

    p = sub.add_parser("congestion", allow_abbrev=False, help="averaged congestion curve as CSV")
    scenario_opts(p)
    p.add_argument("--m-max", type=int, default=None,
                   help="evaluate thresholds below this M (default: until every tail is below 1e-12)")
    p.add_argument("--with-mc", action="store_true",
                   help="add empirical Monte-Carlo columns")
    p.add_argument("--mc-replications", type=int, default=1000)
    p.add_argument("--ppp-equivalent", action="store_true",
                   help="replace the road process by the equal-intensity spatial PPP")
    p.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    p.set_defaults(func=cmd_congestion)

    p = sub.add_parser("dimension", allow_abbrev=False, help="minimum PRBs for a congestion target")
    scenario_opts(p)
    p.add_argument("--target", type=float, required=True,
                   help="target congestion probability in (0, 1)")
    p.add_argument("--tau-mbps", type=float, default=None,
                   help="forecast cell throughput (overrides the file)")
    p.add_argument("--outdoor-fraction", type=float, default=None)
    p.add_argument("--m-ceiling", type=int, default=DEFAULT_M_CEILING)
    p.add_argument("--out", default=None, help="also write a one-row CSV")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("sweep", allow_abbrev=False, help="dimension over a tau and/or lambda grid")
    scenario_opts(p)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--tau-grid-mbps", default=None,
                   help="comma-separated throughput grid, Mbit/s")
    p.add_argument("--lambda-grid-per-km", default=None,
                   help="comma-separated road intensity grid")
    p.add_argument("--outdoor-fraction", type=float, default=None)
    p.add_argument("--m-ceiling", type=int, default=DEFAULT_M_CEILING)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", allow_abbrev=False, help="empirical congestion curve as CSV")
    scenario_opts(p)
    p.add_argument("--replications", type=int, required=True)
    p.add_argument("--m-max", type=int, default=None,
                   help="evaluate thresholds below this M (default: to max sampled demand + 1)")
    p.add_argument("--ppp-equivalent", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", allow_abbrev=False, help="run the self-check suites")
    p.add_argument("--suite", choices=("identities", "mc", "figures"), required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="identities and mc suites; figures keeps its scenario-file seeds")
    p.add_argument("--replications", type=int, default=2000)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CeilingError, InfeasibleSplitError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (DomainError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
