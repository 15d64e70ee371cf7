"""Closed-loop benchmark of the prbdim command line.

    python3 perfbench/run.py --workload dimension --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client sends one command at a time, each as a fresh
``python -m prbdim.cli`` process, until the time is up; every output is
checked.  Times are rescaled to the box's nominal speed by a calibration
loop timed between commands.  ``--trace 1`` alternates untraced commands
with commands run under ``tracer.py`` and reports per-layer counts and self
times instead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Run it from the root of a prbdim source tree; see README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import tracer

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
SRC_DIR = ROOT / "src"
SCENARIOS = "src/prbdim/scenarios"
REFERENCE = BENCH_DIR / "reference.json"

TARGET = 0.05
PROB_TOL = 1e-12
SIM_REPLICATIONS = 10000
SWEEP_TAUS = (10.0, 15.0, 20.0, 25.0, 30.0)
SWEEP_LAMBDAS = (2.0, 10.0)

# One harness process plus one single-threaded child on a small box.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1"}
SETUP_PROBES = 7          # fresh set-up processes per run; the first warms caches
RUN_LIMIT_S = 150.0       # a run kills what is still running after this

# The CPU speed of a shared box drifts by +-20% over minutes, which no run
# length within the time budget averages out.  Times are therefore rescaled
# by a fixed pure-Python loop timed in the harness between commands:
# scaled = wall * NOMINAL_CALIBRATION_S / (median loop time of the run).
CALIBRATION_ITERATIONS = 300_000
CALIBRATION_LOOPS = 4     # loops timed before each command
NOMINAL_CALIBRATION_S = 0.017   # median loop time on a shared 2-CPU Xeon VM


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cli_args: tuple[str, ...]
    scenario: str | None          # scenario file the set-up probe loads
    writes_csv: bool
    check: Callable


@dataclass
class Outcome:
    """One finished command: exit code, wall time, peak RSS and outputs."""

    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    csv: bytes | None


# ---------------------------------------------------------------- checks

def parse_csv(data: bytes) -> tuple[dict, list[dict]]:
    """(`#` metadata, rows as dicts) of a prbdim CSV."""
    meta, body = {}, []
    for line in data.decode().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _bracket_problems(label: str, row: dict) -> list[str]:
    pi_at, pi_before = float(row["pi_at_m"]), float(row["pi_before"])
    if not pi_before > TARGET >= pi_at:
        return [f"{label}: bracket fails: pi_before={pi_before!r} "
                f"target={TARGET} pi_at_m={pi_at!r}"]
    return []


def _reference_problems(label: str, row: dict, ref: dict) -> list[str]:
    problems = []
    if int(row["required_m"]) != ref["required_m"]:
        problems.append(f"{label}: required_m {row['required_m']} != "
                        f"reference {ref['required_m']}")
    for key in ("pi_at_m", "pi_before", "stderr_at_m"):
        if abs(float(row[key]) - ref[key]) > PROB_TOL:
            problems.append(f"{label}: {key} {row[key]} differs from "
                            f"reference {ref[key]!r} by more than {PROB_TOL}")
    return problems


def check_dimension(seed: int, out: Outcome, refs: dict) -> list[str]:
    _, rows = parse_csv(out.csv)
    if len(rows) != 1:
        return [f"expected one CSV row, got {len(rows)}"]
    row = rows[0]
    first = out.stdout.decode().splitlines()[0]
    problems = _bracket_problems("dimension", row)
    if first != f"required_m = {row['required_m']}":
        problems.append(f"stdout {first!r} disagrees with the CSV")
    ref = refs["dimension"].get(str(seed))
    if ref is not None:
        problems += _reference_problems("dimension", row, ref)
    return problems


def check_sweep(seed: int, out: Outcome, refs: dict) -> list[str]:
    _, rows = parse_csv(out.csv)
    grid = [(t, lam) for t in SWEEP_TAUS for lam in SWEEP_LAMBDAS]
    got = [(float(r["tau_mbps"]), float(r["lambda_per_km"])) for r in rows]
    if got != grid:
        return [f"sweep grid {got} != {grid}"]
    problems = []
    ref_rows = refs["sweep"].get(str(seed))
    for i, row in enumerate(rows):
        label = f"sweep tau={row['tau_mbps']} lambda={row['lambda_per_km']}"
        if row["status"] != "ok":
            problems.append(f"{label}: status {row['status']}")
            continue
        problems += _bracket_problems(label, row)
        if ref_rows is not None:
            problems += _reference_problems(label, row, ref_rows[i])
    return problems


def check_simulate(seed: int, out: Outcome, refs: dict) -> list[str]:
    """The empirical curve lies near the analytic fig4 curve.

    Holds for any seed and any random-stream layout: the analytic curve
    was recorded once with many road realizations.
    """
    meta, rows = parse_csv(out.csv)
    if meta.get("replications") != str(SIM_REPLICATIONS):
        return [f"replications {meta.get('replications')} != {SIM_REPLICATIONS}"]
    if not rows:
        return ["empty curve"]
    analytic = refs["fig4_analytic"]["pi"]
    tol = 0.02 + 3.0 * math.sqrt(0.25 / SIM_REPLICATIONS)
    problems, worst, previous = [], 0.0, 1.0
    for i, row in enumerate(rows):
        m, pi = int(row["m"]), float(row["pi_mc"])
        if m != i:
            return [f"row {i} has m={m}"]
        if pi > previous:
            problems.append(f"curve rises at m={m}")
        previous = pi
        worst = max(worst, abs(pi - (analytic[m] if m < len(analytic) else 0.0)))
    if worst > tol:
        problems.append(f"max |pi_mc - analytic| = {worst:.4f} > {tol:.4f}")
    return problems


def check_identities(seed: int, out: Outcome, refs: dict) -> list[str]:
    summary = json.loads(out.stdout.decode().splitlines()[-1])
    if summary["failed"] != 0 or summary["checks"] < 1 \
            or summary["passed"] != summary["checks"]:
        return [f"identities summary {summary}"]
    return []


def scenario_path(name: str) -> str:
    return f"{SCENARIOS}/{name}.scenario"


WORKLOADS = {w.name: w for w in (
    Workload("dimension",
             "one planner query, R=800 x N=6, 3200 pmf calls over 4 doubling "
             "passes: where a batched evaluation core shows",
             ("dimension", "--scenario", scenario_path("fig6_mixed"), "--target", str(TARGET)),
             scenario_path("fig6_mixed"), True, check_dimension),
    Workload("sweep",
             "10 grid points sharing 2 road sets: the only workload whose "
             "inputs share work (roads, chord-segment matrix)",
             ("sweep", "--scenario", scenario_path("fig3"), "--target", str(TARGET),
              "--tau-grid-mbps", ",".join(f"{t:g}" for t in SWEEP_TAUS),
              "--lambda-grid-per-km", ",".join(f"{x:g}" for x in SWEEP_LAMBDAS),
              "--realizations", "400"),
             scenario_path("fig3"), True, check_sweep),
    Workload("simulate",
             "the Monte-Carlo oracle, no pmf calls: control for analytic-path "
             "changes, target for MC vectorisation",
             ("simulate", "--scenario", scenario_path("fig4"),
              "--replications", str(SIM_REPLICATIONS)),
             scenario_path("fig4"), True, check_simulate),
    Workload("identities",
             "the only command that runs the Fourier inversion route",
             ("validate", "--suite", "identities"),
             None, False, check_identities),
)}


# ------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PRBDIM_THREADS", None)
    env.update(THREAD_VARS)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(argv: list[str], out_dir: Path, csv_path: Path | None,
              timeout_s: float) -> Outcome:
    """Run one process to completion; time it from fork to exit."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if csv_path is not None and csv_path.exists():
        csv_path.unlink()
    stdout_path = out_dir / "stdout"
    with open(stdout_path, "wb") as out, open(out_dir / "stderr", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    csv_data = csv_path.read_bytes() if csv_path is not None and csv_path.exists() else None
    return Outcome(code=proc.returncode, wall_s=wall,
                   peak_rss_mb=usage.ru_maxrss / 1024.0,
                   stdout=stdout_path.read_bytes(), csv=csv_data)


def command(workload: Workload, seed: int, out_dir: Path,
            trace_path: Path | None = None) -> tuple[list[str], Path | None]:
    """argv of one workload command and the CSV it writes."""
    csv_path = out_dir / "out.csv" if workload.writes_csv else None
    args = [*workload.cli_args, "--seed", str(seed)]
    if csv_path is not None:
        args += ["--out", str(csv_path.relative_to(ROOT))]
    if trace_path is None:
        return [sys.executable, "-m", "prbdim.cli", *args], csv_path
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *args], csv_path


def evaluate(workload: Workload, seed: int, out: Outcome, refs: dict) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    if out.code != 0:
        return [f"exit code {out.code}"]
    if workload.writes_csv and out.csv is None:
        return ["no CSV written"]
    try:
        return workload.check(seed, out, refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# --------------------------------------------------------------- metrics

# Per-layer metrics beyond .calls and .self_s: name -> (unit, count,
# denominator count).  A ratio with a zero denominator reads 0.
LAYER_EXTRAS = {
    "congestion.road_set": {"roads": ("count", "roads", None),
                            "distinct_frac": ("ratio", "distinct", "calls")},
    "compound.pmf": {"k_steps": ("count", "k_steps", None),
                     "useful_frac": ("ratio", "useful_steps", "k_steps")},
    "compound.fourier": {"thresholds": ("count", "thresholds", None)},
    "simulate.gamma_samples": {"replications": ("count", "replications", None)},
    "cli.write_csv": {"bytes": ("bytes", "bytes", None)},
}


def end_to_end_units() -> dict:
    return {"op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer in [tracer.IMPORT_LAYER, *tracer.LAYERS]:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for extra, (unit, _, _) in LAYER_EXTRAS.get(layer, {}).items():
            units[f"{layer}.{extra}"] = unit
    units["trace_overhead"] = "ratio"
    units["span_coverage"] = "ratio"
    return units


def layer_values(record: dict) -> dict:
    """Per-layer metric values of one traced command."""
    values = {}
    for layer, stat in record["layers"].items():
        values[f"{layer}.calls"] = stat["calls"]
        values[f"{layer}.self_s"] = stat["self_s"]
        for extra, (_, count, denominator) in LAYER_EXTRAS.get(layer, {}).items():
            if denominator is None:
                values[f"{layer}.{extra}"] = stat.get(count, 0)
            else:
                base = stat.get(denominator, 0)
                values[f"{layer}.{extra}"] = stat.get(count, 0) / base if base else 0.0
    values["span_coverage"] = record["covered_s"] / record["in_process_s"]
    return values


# ------------------------------------------------------------ one run

def calibration_s() -> float:
    """Seconds one fixed pure-Python loop takes: the box's current speed."""
    t0 = perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i & 7
    return perf_counter() - t0


class Run:
    """Commands of one workload until the deadline, with their checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, refs: dict):
        self.workload, self.seed, self.refs = workload, seed, refs
        self.seconds = seconds
        self.started = perf_counter()
        self.dir = WORK_DIR / workload.name
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.calibrations: list[float] = []

    def calibrate(self) -> None:
        self.calibrations += [calibration_s() for _ in range(CALIBRATION_LOOPS)]

    def speed_scale(self) -> float:
        """Factor that rescales this run's wall times to the nominal speed."""
        return NOMINAL_CALIBRATION_S / statistics.median(self.calibrations)

    def timeout(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def one(self, mode: str, trace: bool = False) -> tuple[Outcome, dict | None, list[str]]:
        """Run one command; return it, its trace record and its problems."""
        out_dir = self.dir / mode
        trace_path = out_dir / "trace.json" if trace else None
        argv, csv_path = command(self.workload, self.seed, out_dir, trace_path)
        if trace_path is not None and trace_path.exists():
            trace_path.unlink()
        out = run_child(argv, out_dir, csv_path, self.timeout())
        problems = evaluate(self.workload, self.seed, out, self.refs)
        record = None
        if trace and not problems:
            record = json.loads(trace_path.read_text())
            if not Path(record["prbdim_file"]).resolve().is_relative_to(SRC_DIR.resolve()):
                problems = [f"traced prbdim came from {record['prbdim_file']}"]
        return out, record, problems

    def count(self, problems: list[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def setup_s(self) -> float:
        """Median fresh-process time to import, load and build profiles."""
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py")]
        if self.workload.scenario is not None:
            argv.append(self.workload.scenario)
        times = []
        for _ in range(SETUP_PROBES):
            self.calibrate()
            out = run_child(argv, self.dir / "setup", None, self.timeout())
            if out.code != 0:
                raise SystemExit(f"set-up probe failed with exit code {out.code}")
            times.append(out.wall_s)
        return statistics.median(times[1:])

    def untraced(self) -> dict:
        setup = self.setup_s()
        deadline = perf_counter() + self.seconds
        walls, rss = [], []
        while not walls or perf_counter() < deadline:
            self.calibrate()
            out, _, problems = self.one("plain")
            self.count(problems, "plain")
            walls.append(out.wall_s)
            rss.append(out.peak_rss_mb)
        self.calibrate()
        scale = self.speed_scale()
        self.notes += [
            "unscaled command seconds: " + " ".join(f"{w:.3f}" for w in walls),
            f"unscaled op_s_p50 {statistics.median(walls):.4f} s, setup_s {setup:.4f} s; "
            f"calibration loop median {statistics.median(self.calibrations) * 1e3:.3f} ms "
            f"over {len(self.calibrations)} loops, scale {scale:.4f}"]
        return {"op_s_p50": (statistics.median(walls) * scale, len(walls)),
                "setup_s": (setup * scale, SETUP_PROBES - 1),
                "peak_rss_mb": (statistics.median(rss), len(rss))}

    def traced(self) -> dict:
        deadline = perf_counter() + self.seconds
        plain_walls, traced_walls, per_command = [], [], []
        while not traced_walls or perf_counter() < deadline:
            plain, _, problems = self.one("plain")
            self.count(problems, "plain")
            traced, record, problems = self.one("traced", trace=True)
            if (plain.stdout, plain.csv) != (traced.stdout, traced.csv):
                problems.append("outputs differ from the untraced command's")
            self.count(problems, "traced")
            plain_walls.append(plain.wall_s)
            traced_walls.append(traced.wall_s)
            if record is not None and not problems:
                per_command.append(layer_values(record))
        metrics = {}
        if per_command:
            for name in per_command[0]:  # median_low keeps counts whole
                values = [v[name] for v in per_command]
                metrics[name] = (statistics.median_low(values), len(values))
            coverage = [v["span_coverage"] for v in per_command]
            metrics["span_coverage"] = (min(coverage), len(coverage))
        metrics["trace_overhead"] = (statistics.median(traced_walls)
                                     / statistics.median(plain_walls), len(traced_walls))
        return metrics


# ------------------------------------------------------------ reporting

def _git_revision() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "prbdim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC_DIR)).encode())
            digest.update(path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_revision": _git_revision(), "src_sha256": digest.hexdigest(),
            "loadavg_1m": os.getloadavg()[0], "thread_vars": THREAD_VARS,
            "prbdim_threads": "unset"}


def report(title: str, metrics: dict, units: dict, run: Run) -> dict:
    print(f"== {title}")
    for problem in run.problems:
        print(f"   FAILED {problem}")
    for note in run.notes:
        print(f"   {note}")
    print(f"   {'failed_frac':<44} {run.failed / run.attempted:>14.6g} {'ratio':<6} "
          f"n={run.attempted}")
    out = {}
    for name, unit in units.items():
        value, samples = metrics.get(name, (0, 0))
        print(f"   {name:<44} {value:>14.6g} {unit:<6} n={samples}")
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, refs: dict):
    run = Run(WORKLOADS[name], seed, seconds, refs)
    if trace:
        metrics = report(f"{name} seed {seed} traced", run.traced(), per_layer_units(), run)
    else:
        metrics = report(f"{name} seed {seed}", run.untraced(), end_to_end_units(), run)
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "prbdim" / "cli.py").is_file():
        print(f"no prbdim source tree under {ROOT}: run from the repository root",
              file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text())
    print("env " + json.dumps(environment()))

    if args.workload == "all":
        jobs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    metrics, attempted, failed = {}, 0, 0
    for name, trace in jobs:
        values, run = run_workload(name, args.seed, args.seconds, trace, refs)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in values.items()})
        attempted += run.attempted
        failed += run.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
