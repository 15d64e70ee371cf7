import pytest

from prbdim import congestion
from prbdim.cli import main
from prbdim.compound import default_cutoff
from prbdim.congestion import ppp_equivalent, road_set, weight_matrix
from prbdim.scenario_io import bundled_scenario_path, load_scenario
from prbdim.simulate import gamma_samples

FIG3 = str(bundled_scenario_path("fig3"))
FIG4 = str(bundled_scenario_path("fig4"))
FIG7 = str(bundled_scenario_path("fig7"))
BUNDLED = ["fig2_tau14", "fig2_tau30", "fig3", "fig4", "fig6_mixed", "fig7", "fig8_regions"]


def run(argv):
    return main(argv)


def read_csv(path):
    """(metadata lines, data rows as strings) of a CLI CSV."""
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    return meta, [l for l in lines if not l.startswith("#")][1:]


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

    @pytest.mark.parametrize("name, extra", [(name, []) for name in BUNDLED] + [
        ("fig8_regions", ["--ppp-equivalent", "--region", "edge"])])
    def test_auto_extent_ends_at_the_cutoff(self, name, extra, tmp_path):
        out = tmp_path / "auto.csv"
        path = str(bundled_scenario_path(name))
        assert run(["congestion", "--scenario", path, *extra, "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        scn = load_scenario(path).to_scenario(region="edge" if extra else None)
        scn = ppp_equivalent(scn) if extra else scn
        m, pi, _ = rows[-1].split(",")
        assert int(m) == default_cutoff(weight_matrix(scn, road_set(scn)))
        assert float(pi) <= 1e-12
        assert meta[-1] == "# m_max_rule = chernoff"

    def test_auto_extent_extends_the_explicit_curve(self, tmp_path):
        auto, explicit = tmp_path / "auto.csv", tmp_path / "explicit.csv"
        assert run(["congestion", "--scenario", FIG3, "--out", str(auto)]) == 0
        assert run(["congestion", "--scenario", FIG3, "--m-max", "400",
                    "--out", str(explicit)]) == 0
        auto_meta, auto_rows = read_csv(auto)
        explicit_meta, explicit_rows = read_csv(explicit)
        assert auto_meta == explicit_meta + ["# m_max_rule = chernoff"]
        assert len(auto_rows) > len(explicit_rows) == 400
        assert auto_rows[:400] == explicit_rows

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

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_throughput_names_itself(self, tau, capsys):
        assert run(["dimension", "--scenario", FIG3, "--target", "0.05",
                    "--tau-mbps", tau]) == 3
        assert f"throughput_bps {tau} must be positive and finite" in capsys.readouterr().err

    # once named in bit/s: "throughput_bps -3e+06 must be positive and finite"
    @pytest.mark.parametrize("tau", ["-3", "0", "-0.5"])
    def test_non_positive_throughput_is_named_as_typed(self, tau, capsys):
        assert run(["dimension", "--scenario", FIG3, "--target", "0.05",
                    "--tau-mbps", tau]) == 3
        err = capsys.readouterr().err
        assert f"throughput {float(tau):g} Mbit/s must be positive and finite" in err
        assert "e+06" not in err

    def test_zero_ceiling_names_itself(self, capsys):
        assert run(["dimension", "--scenario", FIG3, "--target", "0.05",
                    "--m-ceiling", "0"]) == 3
        assert "m_ceiling 0 must be positive" in capsys.readouterr().err

    def test_heavy_load_is_dimensioned(self, capsys):
        # exp(-total weight) is subnormal on 195 of the 800 road realizations
        code = run(["dimension", "--scenario", FIG7, "--tau-mbps", "180",
                    "--target", "0.05"])
        assert code == 0
        assert "required_m = 1542\n" in capsys.readouterr().out


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

    # with outdoor traffic, lambda = -1 was once an error row "outdoor
    # traffic requested with zero road intensity" and exit 0
    @pytest.mark.parametrize("fraction", [[], ["--outdoor-fraction", "0"]])
    def test_negative_lambda_is_a_validation_error(self, fraction, capsys):
        code = run(["sweep", "--scenario", FIG3, "--target", "0.05", "--realizations", "20",
                    "--lambda-grid-per-km", "2,-1", *fraction, "--out", "-"])
        out, err = capsys.readouterr()
        assert code == 3
        assert "road_intensity -1 must be nonnegative and finite" in err
        assert out == ""

    def test_non_finite_throughput_in_the_grid_names_itself(self, capsys):
        assert run(["sweep", "--scenario", FIG3, "--target", "0.05", "--realizations", "20",
                    "--tau-grid-mbps", "10,nan", "--out", "-"]) == 3
        assert "throughput_bps nan must be positive and finite" in capsys.readouterr().err

    def test_non_positive_throughput_in_the_grid_is_named_as_typed(self, capsys):
        assert run(["sweep", "--scenario", FIG3, "--target", "0.05", "--realizations", "20",
                    "--tau-grid-mbps", "10,-2", "--out", "-"]) == 3
        out, err = capsys.readouterr()
        assert "throughput -2 Mbit/s must be positive and finite" in err
        assert "e+06" not in err and out == ""

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

    def test_auto_extent_ends_at_the_first_zero(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--scenario", FIG4, "--replications", "300",
                    "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        gammas, _, _ = gamma_samples(load_scenario(FIG4).to_scenario(), 300)
        before, last = rows[-2].split(","), rows[-1].split(",")
        assert int(last[0]) == gammas.max() + 1 and float(last[1]) == 0.0
        assert float(before[1]) > 0.0
        assert meta[-1] == "# m_max_rule = sample_max"

    def test_auto_extent_draws_no_roads(self, tmp_path, monkeypatch):
        def no_roads(scn):
            raise AssertionError("simulate drew road realizations")

        monkeypatch.setattr(congestion, "road_set", no_roads)
        assert run(["simulate", "--scenario", FIG4, "--replications", "200",
                    "--out", str(tmp_path / "sim.csv")]) == 0

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--scenario", FIG4, "--out", "-"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command, extra", [
    ("congestion", ["--m-max", "5"]), ("dimension", ["--target", "0.05"]),
    ("sweep", ["--target", "0.05"]), ("simulate", ["--replications", "200"])])
def test_negative_seed_is_validation_error(command, extra, capsys):
    code = run([command, "--scenario", FIG7, "--seed", "-1", "--realizations", "10",
                *extra, "--out", "-"])
    assert code == 3
    assert "seed -1 must be a non-negative integer" in capsys.readouterr().err


def test_negative_seed_in_the_file_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "negative_seed.scenario"
    with open(FIG7) as fh:
        path.write_text(fh.read().replace("seed = 20250811", "seed = -1"))
    assert run(["dimension", "--scenario", str(path), "--target", "0.05", "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and str(path) in err
    assert "seed -1 must be a non-negative integer" in err


@pytest.mark.parametrize("command, extra", [
    ("congestion", []), ("congestion", ["--with-mc"]), ("simulate", ["--replications", "200"])])
def test_negative_m_max_is_validation_error(command, extra, tmp_path, capsys):
    out = tmp_path / "negative.csv"
    assert run([command, "--scenario", FIG4, "--m-max", "-5", "--realizations", "10",
                *extra, "--out", str(out)]) == 3
    assert "--m-max -5 must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra, header", [
    ("congestion", ["--with-mc", "--mc-replications"], "m,pi_analytic,stderr,pi_mc,mc_low,mc_high"),
    ("simulate", ["--replications"], "m,pi_mc,wilson_low,wilson_high")])
def test_m_max_zero_checks_the_replications_first(command, extra, header, tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert run([command, "--scenario", FIG4, "--m-max", "0", *extra, "50",
                "--out", str(out)]) == 3
    assert "need at least 100 replications, not 50" in capsys.readouterr().err
    assert not out.exists()
    assert run([command, "--scenario", FIG4, "--m-max", "0", *extra, "100",
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == header


@pytest.mark.parametrize("option", ["--target", "--tau-mbps", "--outdoor-fraction",
                                    "--tau-grid-mbps", "--lambda-grid-per-km"])
@pytest.mark.parametrize("value", ["-inf", "-nan", "-1e3"])
def test_signed_float_value_reaches_its_check(option, value, capsys):
    # argparse alone takes these values for options and exits 2; a grid
    # starts with the value
    extra = [] if option == "--target" else ["--target", "0.05"]
    if "-grid-" in option:
        extra = ["sweep", "--out", "-", *extra]
        value += ",2"
    else:
        extra = ["dimension", *extra]
    assert run([*extra, "--scenario", FIG7, option, value]) == 3
    err = capsys.readouterr().err
    assert run([*extra, "--scenario", FIG7, f"{option}={value}"]) == 3
    assert err.startswith("validation error: ") and capsys.readouterr().err == err


@pytest.mark.parametrize("value", ["-inf", "30"])
def test_abbreviated_option_is_a_usage_error(value, capsys):
    # whatever its value, so a signed one cannot slip past the rebinding
    with pytest.raises(SystemExit) as exc:
        run(["dimension", "--scenario", FIG7, "--target", "0.05", "--tau", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --tau {value}" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["mc", "figures"])
@pytest.mark.parametrize("replications", [0, 50])
def test_validate_checks_the_replications_first(suite, replications, capsys, monkeypatch):
    from prbdim import validate

    def no_draws(*args, **kwargs):
        raise AssertionError("the suite drew before checking the replication count")

    monkeypatch.setattr(validate, f"{suite}_suite", no_draws)
    assert run(["validate", "--suite", suite, "--replications", str(replications)]) == 3
    assert f"need at least 100 replications, not {replications}" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["identities", "mc", "figures"])
def test_validate_rejects_a_negative_seed(suite, capsys):
    assert run(["validate", "--suite", suite, "--seed", "-1", "--replications", "200"]) == 3
    assert "seed -1 must be a non-negative integer" in capsys.readouterr().err


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
