"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [--seeds 32]

Run from the root of the source tree whose outputs are the reference.  For
each seed below --seeds it runs the `dimension` and `sweep` workloads and
stores required_m and the probabilities; it also runs `identities` and
refuses to record if any check fails.  The fig4 analytic congestion curve
that bounds `simulate` is recorded once, with 8000 road realizations.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

FIG4_REALIZATIONS = 8000
FIG4_M_MAX = 600


def _row(row: dict) -> dict:
    return {"required_m": int(row["required_m"]), "pi_at_m": float(row["pi_at_m"]),
            "pi_before": float(row["pi_before"]),
            "stderr_at_m": float(row["stderr_at_m"])}


def _outcome(workload: run.Workload, seed: int) -> run.Outcome:
    out_dir = run.WORK_DIR / "reference" / workload.name
    argv, csv_path = run.command(workload, seed, out_dir)
    return run.run_child(argv, out_dir, csv_path, timeout_s=600)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    refs = {"revision": run.environment()["git_revision"],
            "dimension": {}, "sweep": {}}

    out_dir = run.WORK_DIR / "reference" / "fig4"
    csv_path = out_dir / "out.csv"
    argv = [sys.executable, "-m", "prbdim.cli", "congestion",
            "--scenario", run.scenario_path("fig4"), "--realizations", str(FIG4_REALIZATIONS),
            "--m-max", str(FIG4_M_MAX), "--out", str(csv_path.relative_to(run.ROOT))]
    out = run.run_child(argv, out_dir, csv_path, timeout_s=1800)
    if out.code != 0:
        sys.exit(f"fig4 analytic curve exited with {out.code}")
    meta, rows = run.parse_csv(out.csv)
    refs["fig4_analytic"] = {"seed": int(meta["seed"]),
                             "realizations": FIG4_REALIZATIONS,
                             "pi": [float(r["pi_analytic"]) for r in rows]}

    structural_only = {"dimension": {}, "sweep": {}}
    for seed in range(args.seeds):
        for name in ("dimension", "sweep", "identities"):
            workload = run.WORKLOADS[name]
            out = _outcome(workload, seed)
            problems = run.evaluate(workload, seed, out, structural_only)
            if problems:
                sys.exit(f"{name} seed {seed}: {problems}")
            if name == "dimension":
                refs["dimension"][str(seed)] = _row(run.parse_csv(out.csv)[1][0])
            elif name == "sweep":
                refs["sweep"][str(seed)] = [_row(r) for r in run.parse_csv(out.csv)[1]]
        print(f"seed {seed}: required_m {refs['dimension'][str(seed)]['required_m']}",
              flush=True)
    run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
