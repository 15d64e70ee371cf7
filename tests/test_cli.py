import numpy as np
import pytest

from prbdim.cli import main
from prbdim.scenario_io import bundled_scenario_path

FIG4 = str(bundled_scenario_path("fig4"))
FIG7 = str(bundled_scenario_path("fig7"))


def run(argv):
    return main(argv)


class TestCongestionCommand:
    def test_curve_is_nonincreasing(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["congestion", "--scenario", FIG4, "--m-max", "40",
                    "--realizations", "60", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "m,pi_analytic,stderr"
        pi = [float(l.split(",")[1]) for l in lines[header_at + 1:]]
        assert len(pi) == 40
        assert all(a >= b for a, b in zip(pi, pi[1:]))

    def test_m_max_zero_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run(["congestion", "--scenario", FIG4, "--m-max", "0",
                    "--realizations", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == "m,pi_analytic,stderr"

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["congestion", "--scenario", FIG4, "--m-max", "25",
                "--realizations", "40", "--seed", "77"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_with_mc_adds_columns(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run(["congestion", "--scenario", FIG4, "--m-max", "5",
                    "--realizations", "20", "--with-mc",
                    "--mc-replications", "300", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "m,pi_analytic,stderr,pi_mc,mc_low,mc_high"
        assert any("eq1_mean_users" in l for l in lines if l.startswith("#"))


class TestDimensionCommand:
    def test_reports_bracket(self, tmp_path, capsys):
        out = tmp_path / "dim.csv"
        code = run(["dimension", "--scenario", FIG7, "--target", "0.5",
                    "--realizations", "50", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "required_m" in text and "bracket" in text
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0].startswith("tau_mbps,")
        assert len(rows) == 2

    def test_target_out_of_range_is_validation_error(self, capsys):
        assert run(["dimension", "--scenario", FIG7, "--target", "1.5"]) == 3
        assert "target" in capsys.readouterr().err

    def test_target_below_the_floor_is_validation_error(self, capsys):
        assert run(["dimension", "--scenario", FIG7, "--target", "1e-9"]) == 3
        assert "floor 1e-08" in capsys.readouterr().err

    def test_unreachable_target_is_infeasible(self, capsys):
        code = run(["dimension", "--scenario", FIG7, "--target", "0.001",
                    "--realizations", "20", "--m-ceiling", "16"])
        assert code == 4
        assert "infeasible" in capsys.readouterr().err

    def test_missing_scenario_is_validation_error(self, capsys):
        assert run(["dimension", "--scenario", "/no/such/file",
                    "--target", "0.05"]) == 3

    def test_heavy_load_underflow_is_accuracy_error(self, capsys):
        code = run(["dimension", "--scenario", FIG7, "--tau-mbps", "180",
                    "--target", "0.05"])
        assert code == 5
        assert "underflows" in capsys.readouterr().err


class TestSweepCommand:
    def test_one_row_per_grid_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--scenario", FIG7, "--target", "0.3",
                    "--tau-grid-mbps", "4,8", "--lambda-grid-per-km", "9",
                    "--realizations", "30", "--out", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 3
        assert rows[1].startswith("4.0,9.0,") and rows[2].startswith("8.0,9.0,")
        assert rows[1].endswith(",ok")

    def test_bad_grid_is_usage_like_validation(self, capsys):
        assert run(["sweep", "--scenario", FIG7, "--target", "0.3",
                    "--tau-grid-mbps", "a,b", "--out", "-"]) == 3


class TestSimulateCommand:
    def test_emits_ccdf_and_ci(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--scenario", FIG4, "--replications", "300",
                    "--m-max", "6", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "m,pi_mc,wilson_low,wilson_high"
        data = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(data) == 6
        for _, p, lo, hi in data:
            assert float(lo) <= float(p) <= float(hi)

    def test_ppp_equivalent_flag(self, tmp_path):
        out = tmp_path / "ppp.csv"
        assert run(["simulate", "--scenario", FIG4, "--replications", "200",
                    "--m-max", "2", "--ppp-equivalent", "--out", str(out)]) == 0
        meta = {l.split(" = ")[0][2:]: l.split(" = ")[1]
                for l in out.read_text().splitlines() if l.startswith("#")}
        # PPP baseline carries the printed-intensity mean, so the measured
        # mean sits near eq1 rather than the road-process mean
        assert float(meta["measured_mean_indoor_users"]) == pytest.approx(
            float(meta["eq1_mean_users"]), rel=0.1)

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--scenario", FIG4, "--out", "-"])
        assert exc.value.code == 2


class TestValidateCommand:
    def test_identities_suite_passes(self, capsys):
        assert run(["validate", "--suite", "identities", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert '"failed": 0' in out

    def test_mc_suite_smoke_mode(self, capsys):
        assert run(["validate", "--suite", "mc", "--replications", "150",
                    "--seed", "4"]) == 0
        assert '"failed": 0' in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["validate", "--suite", "everything"])
        assert exc.value.code == 2
