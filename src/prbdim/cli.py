"""Command-line front end: congestion curves, dimensioning, sweeps,
Monte-Carlo simulation and self-validation, with CSV output.

Exit codes: 0 success, 2 usage, and a prbdim error's own `exit_code` (see `errors`);
any other exception is a traceback.  Commands import the engine names they call.

`main(argv)` returns the exit code to in-process callers.  The `prbdim`
console script and `python -m prbdim.cli` enter through `run()`, which ends
the process right after stdout and stderr are flushed, without interpreter
teardown: no atexit handler runs and no other file object is flushed.  So
every file a command writes, the planned --trace file included, must be
closed inside `main()`.  Usage errors, --help, --version
and tracebacks still leave through the normal exit path.  Both entries run
with the cyclic collector off (`python -m` from before numpy is imported):
the commands make little cyclic garbage, and a process this short need not
pause to collect it.  `import prbdim.cli` leaves it on.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
from itertools import product
from typing import TYPE_CHECKING

if __name__ == "__main__":
    gc.disable()  # as run() does, from before numpy's import

import numpy as np

from . import DEFAULT_M_CEILING, REGION_NAMES, __version__
from .errors import DomainError, PrbdimError, check_size, read_count, read_si

if TYPE_CHECKING:
    from .dimension import DimensionReport
    from .linkmodel import Scenario
    from .scenario_io import ScenarioFile
    from .simulate import EmpiricalCurve

EXIT_OK = 0
EXIT_VALIDATION = 3

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
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def _base_meta(args, doc: ScenarioFile) -> dict:
    """The first metadata lines: the file's road-realization count where the
    command draws roads from it, and each population option given."""
    meta = {"tool": f"prbdim {__version__}", "command": args.command,
            "scenario": args.scenario, "seed": doc.seed}
    if "realizations" in args:
        meta["realizations"] = doc.realizations
    meta["sampler"] = doc.sampler
    meta.update({key: getattr(args, key) for key in ("region", "noise_limited", "ppp_equivalent")
                 if getattr(args, key, None)})
    return meta


def _load(args) -> ScenarioFile:
    from dataclasses import replace
    from .scenario_io import load_scenario
    given = {key: value for key in ("seed", "realizations")
             if (value := getattr(args, key, None)) is not None}
    return replace(load_scenario(args.scenario), **given)


def _user_means(meta: dict, scn: Scenario, emp: EmpiricalCurve) -> None:
    """Record the Monte-Carlo run's measured and Eq. (1) mean user counts."""
    meta["measured_mean_outdoor_users"] = repr(emp.mean_outdoor_users)
    meta["measured_mean_indoor_users"] = repr(emp.mean_indoor_users)
    meta["eq1_mean_users"] = repr(scn.mean_users)


def _curve_csv(args, meta: dict, header: list[str], curve_rows, rule: str,
               replications: int | None) -> int:
    """Write a curve command's CSV: `curve_rows(args, scn, meta, ms)` gives
    the rows at thresholds ms = 0..m_max-1, or at ms = None to the extent
    that `rule` names. `replications` is the Monte-Carlo replication count
    the rows would use, if any; it is checked even when --m-max 0 writes
    the header alone."""
    if args.m_max is not None:
        check_size(read_count(args.m_max, "--m-max", 0), "thresholds", f"--m-max {args.m_max}")
    if replications is not None:
        from .simulate import check_replications
        check_replications(replications)
    from .linkmodel import ppp_equivalent
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
        _user_means(meta, scn, emp)
    return rows


def cmd_congestion(args) -> int:
    if not args.with_mc and args.mc_replications is not None:
        raise DomainError("--mc-replications needs --with-mc")
    if args.with_mc and args.mc_replications is None:
        args.mc_replications = 1000
    mc = ["pi_mc", "mc_low", "mc_high"] if args.with_mc else []
    return _curve_csv(args, {}, ["m", "pi_analytic", "stderr", *mc], _congestion_rows, "chernoff",
                      args.mc_replications)


def _print_report(report: DimensionReport, target: float) -> None:
    m = report.required_m
    print(f"required_m = {m}")
    print(f"target congestion = {_fmt(target)}")
    print(f"bracket: Pi({m - 1}) = {report.pi_before:.6g} > {target:g} >= "
          f"Pi({m}) = {report.pi_at_m:.6g}")
    print(f"stderr: Pi({m - 1}) +/- {report.stderr_before:.3g}, "
          f"Pi({m}) +/- {report.stderr_at_m:.3g}")
    print(f"realizations = {report.realizations}")


_DIMENSION_COLUMNS = ["tau_mbps", "lambda_per_km", "target", "required_m",
                      "pi_at_m", "pi_before", "stderr_at_m", "status"]


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


def _dimension_rows(args) -> tuple[dict, list[list], list]:
    """Load the document, build the query and answer the command's grid by one
    `sweep`: dimension's one point, or sweep's grids, where an absent grid is
    the query's own value.  Returns the CSV metadata, then per point,
    tau-major, its row (tau in Mbit/s as given; -1 and NaNs for an error;
    the sweep's status last) and its report or error."""
    from .dimension import sweep
    doc = _load(args)
    one_tau = getattr(args, "tau_mbps", None)  # dimension's one point
    taus = [one_tau] if one_tau is not None else _grid(getattr(args, "tau_grid_mbps", None))
    lams = _grid(getattr(args, "lambda_grid_per_km", None))
    taus_bps = taus and [read_si(tau, "throughput_mbps") for tau in taus]
    query = doc.to_query(target=args.target, throughput_bps=taus_bps[0] if taus else None,
                         outdoor_fraction=args.outdoor_fraction, m_ceiling=args.m_ceiling,
                         noise_limited=args.noise_limited, region=args.region)
    taus = taus or [doc.throughput_mbps]
    lams = lams or [query.scenario.geometry.road_intensity]
    answers = sweep(query, throughput_grid_bps=taus_bps, road_intensity_grid=lams)
    rows = [[tau, lam, args.target, -1, math.nan, math.nan, math.nan, "error"]
            if isinstance(a, Exception) else
            [tau, lam, args.target, a.required_m, a.pi_at_m, a.pi_before, a.stderr_at_m, "ok"]
            for (tau, lam), a in zip(product(taus, lams), answers)]
    return {**_base_meta(args, doc), "target": _fmt(args.target)}, rows, answers


def cmd_dimension(args) -> int:
    meta, [row], [answer] = _dimension_rows(args)
    if isinstance(answer, Exception):
        raise answer
    _print_report(answer, args.target)
    if args.out:
        write_csv(args.out, meta, _DIMENSION_COLUMNS[:-1], [row[:-1]])
    return EXIT_OK


def cmd_sweep(args) -> int:
    meta, rows, answers = _dimension_rows(args)
    for (tau, lam, *_), answer in zip(rows, answers):
        if isinstance(answer, Exception):
            print(f"point tau={tau:g} lambda={lam:g}: {answer}", file=sys.stderr)
    write_csv(args.out, meta, _DIMENSION_COLUMNS, rows)
    return EXIT_OK


def _simulate_rows(args, scn, meta: dict, ms):
    from .simulate import empirical_ccdf
    emp = empirical_ccdf(scn, ms, args.replications)
    _user_means(meta, scn, emp)
    meta["mean_gamma"] = repr(emp.mean_gamma)
    return zip(emp.m_values, emp.ccdf, emp.ci_low, emp.ci_high)


def cmd_simulate(args) -> int:
    return _curve_csv(args, {"replications": args.replications},
                      ["m", "pi_mc", "wilson_low", "wilson_high"], _simulate_rows, "sample_max",
                      args.replications)


def cmd_validate(args) -> int:
    import json
    from . import validate as validate_suites
    read_count(args.seed, "seed", 0)
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

    def scenario_opts(p, draws_roads=True):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--seed", type=int, default=None, help="override the file seed")
        if draws_roads:
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
    p.add_argument("--mc-replications", type=int, default=None,
                   help="replications of the --with-mc columns (default 1000)")
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
    p.add_argument("--m-ceiling", type=int, default=DEFAULT_M_CEILING,
                   help="largest M searched; a target still not met there exits 4")
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
    p.add_argument("--m-ceiling", type=int, default=DEFAULT_M_CEILING,
                   help="largest M searched; a point still above the target there is an error row")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    # each replication draws its own roads, so no road-realization count
    p = sub.add_parser("simulate", allow_abbrev=False, help="empirical congestion curve as CSV")
    scenario_opts(p, draws_roads=False)
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
    except PrbdimError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    """Run `main()` on sys.argv with the cyclic collector off, flush stdout and
    stderr, and end the process with main's exit code, skipping interpreter
    teardown.  A failed flush raises, and the process exits non-zero through
    the normal path."""
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
