"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q      (from the repository root)

They run small variants of the workloads, so they take seconds, not the
minutes a benchmark run takes.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import types
from dataclasses import replace

import pytest

import run
import tracer

SEED = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL = {
    "dimension": run.WORKLOADS["dimension"].cli_args + ("--realizations", "20"),
    "sweep": ("sweep", "--scenario", run.scenario_path("fig3"), "--target", "0.05",
              "--tau-grid-mbps", "10,30", "--lambda-grid-per-km", "2,10",
              "--realizations", "20"),
    "simulate": ("simulate", "--scenario", run.scenario_path("fig4"), "--replications", "200"),
    "identities": run.WORKLOADS["identities"].cli_args,
}
COUNTS = (".calls", ".k_steps", ".replications", ".roads", ".thresholds", ".bytes")


def small(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], cli_args=SMALL[name])


def execute(workload: run.Workload, mode: str, trace: bool):
    out_dir = run.WORK_DIR / "tests" / workload.name / mode
    trace_path = out_dir / "trace.json" if trace else None
    argv, csv_path = run.command(workload, SEED, out_dir, trace_path)
    out = run.run_child(argv, out_dir, csv_path, timeout_s=120)
    record = json.loads(trace_path.read_text()) if trace else None
    return out, record


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracer_leaves_outputs_byte_identical(name):
    plain, _ = execute(small(name), "plain", trace=False)
    traced, record = execute(small(name), "traced", trace=True)
    assert plain.code == traced.code == 0
    assert plain.stdout == traced.stdout
    assert plain.csv == traced.csv
    assert record["covered_s"] <= record["in_process_s"]


@pytest.mark.parametrize("name", ["dimension", "simulate"])
def test_counts_repeat_exactly_between_traced_runs(name):
    first = run.layer_values(execute(small(name), "first", trace=True)[1])
    second = run.layer_values(execute(small(name), "second", trace=True)[1])
    counts = [key for key in first if key.endswith(COUNTS)]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["compound.pmf.k_steps" if name == "dimension"
                 else "simulate.gamma_samples.replications"] > 0


def _outcome(csv_text: str, stdout: str = "", code: int = 0) -> run.Outcome:
    return run.Outcome(code=code, wall_s=1.0, peak_rss_mb=1.0,
                       stdout=stdout.encode(), csv=csv_text.encode())


DIMENSION_CSV = ("# seed = 7\n"
                 "tau_mbps,lambda_per_km,target,required_m,pi_at_m,pi_before,stderr_at_m\n"
                 "30.0,9.0,0.05,284,0.0477,0.0505,0.0017\n")
DIMENSION_REF = {"required_m": 284, "pi_at_m": 0.0477, "pi_before": 0.0505,
                 "stderr_at_m": 0.0017}


def test_correct_output_passes_the_checks():
    refs = {"dimension": {str(SEED): DIMENSION_REF}}
    out = _outcome(DIMENSION_CSV, stdout="required_m = 284\n")
    assert run.evaluate(run.WORKLOADS["dimension"], SEED, out, refs) == []


@pytest.mark.parametrize("tampered, stdout", [
    (DIMENSION_CSV.replace("0.0477", "0.0501"), "required_m = 284\n"),  # bracket
    (DIMENSION_CSV.replace("0.0017", "0.0018"), "required_m = 284\n"),  # reference
    (DIMENSION_CSV.replace(",284,", ",285,"), "required_m = 285\n"),    # reference
    (DIMENSION_CSV, "required_m = 283\n"),                              # stdout
    (DIMENSION_CSV.rsplit("\n", 2)[0] + "\n", "required_m = 284\n"),    # no row
])
def test_tampered_csv_is_a_failure(tampered, stdout):
    refs = {"dimension": {str(SEED): DIMENSION_REF}}
    out = _outcome(tampered, stdout=stdout)
    assert run.evaluate(run.WORKLOADS["dimension"], SEED, out, refs)


def _simulate_csv(pi: list[float]) -> str:
    rows = "".join(f"{m},{p!r},0.0,1.0\n" for m, p in enumerate(pi))
    return (f"# replications = {run.SIM_REPLICATIONS}\n"
            "m,pi_mc,wilson_low,wilson_high\n" + rows)


def test_simulate_curve_off_the_analytic_curve_is_a_failure():
    refs = json.loads(run.REFERENCE.read_text())
    analytic = list(itertools.accumulate(refs["fig4_analytic"]["pi"][:400], min))
    workload = run.WORKLOADS["simulate"]
    assert run.evaluate(workload, SEED, _outcome(_simulate_csv(analytic)), refs) == []
    shifted = [min(1.0, p + 0.05) for p in analytic]
    assert run.evaluate(workload, SEED, _outcome(_simulate_csv(shifted)), refs)


def test_failed_sweep_points_are_failures():
    sweep_csv = ("tau_mbps,lambda_per_km,target,required_m,pi_at_m,pi_before,"
                 "stderr_at_m,status\n"
                 + "".join(f"{t},{lam},0.05,-1,nan,nan,nan,error\n"
                           for t in run.SWEEP_TAUS for lam in run.SWEEP_LAMBDAS))
    assert run.evaluate(run.WORKLOADS["sweep"], SEED, _outcome(sweep_csv), {"sweep": {}})


def test_nonzero_exit_is_counted_as_failed():
    broken = replace(run.WORKLOADS["dimension"],
                     cli_args=("dimension", "--scenario", "no/such.scenario",
                               "--target", "0.05"))
    bench = run.Run(broken, SEED, seconds=0.0, refs={"dimension": {}})
    out, _, problems = bench.one("plain")
    bench.count(problems, "plain")
    assert out.code == 3
    assert (bench.attempted, bench.failed) == (1, 1)


def test_missing_layer_is_reported_absent_not_fatal(monkeypatch):
    fake = types.ModuleType("fake_prbdim_layer")
    fake.pmf = lambda spec, k_max: k_max
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    monkeypatch.setattr(tracer, "LAYERS", {
        "compound.pmf": ([f"{fake.__name__}.pmf"], tracer._count_pmf),
        "congestion.road_set": ([f"{fake.__name__}.road_set",
                                 "no_such_module.road_set"], None),
    })
    spans = tracer.Tracer()
    spans.install()
    assert fake.pmf(None, 3) == 3
    layers = spans.summary(in_process_s=1.0)["layers"]
    assert layers["compound.pmf"]["present"] and layers["compound.pmf"]["calls"] == 1
    assert layers["compound.pmf"]["k_steps"] == 4
    assert not layers["congestion.road_set"]["present"]
    assert layers["congestion.road_set"]["calls"] == 0


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for section, units in (("end_to_end", run.end_to_end_units()),
                           ("per_layer", run.per_layer_units())):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == units
        for name in declared:
            assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
