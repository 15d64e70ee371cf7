import errno
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prbdim
from prbdim import cli, congestion
from prbdim.cli import main
from prbdim.compound import default_cutoff
from prbdim.congestion import road_set, weight_matrices
from prbdim.linkmodel import ppp_equivalent
from prbdim.scenario_io import bundled_scenario_path, load_scenario
from prbdim.simulate import gamma_samples

FIG3 = str(bundled_scenario_path("fig3"))
FIG4 = str(bundled_scenario_path("fig4"))
FIG6 = str(bundled_scenario_path("fig6_mixed"))
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
        assert int(m) == default_cutoff(weight_matrices([scn], road_set(scn))[0])
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

    # it once exited 0 and ignored the count
    def test_mc_replications_without_with_mc_is_refused(self, capsys):
        assert run(["congestion", "--scenario", FIG3, "--m-max", "2", "--realizations", "10",
                    "--mc-replications", "5", "--out", "-"]) == 3
        out, err = capsys.readouterr()
        assert "--mc-replications needs --with-mc" in err and out == ""

    def test_with_mc_defaults_to_1000_replications(self, capsys):
        assert run(["congestion", "--scenario", FIG4, "--m-max", "2", "--realizations", "10",
                    "--with-mc", "--out", "-"]) == 0
        assert "# mc_replications = 1000\n" in capsys.readouterr().out


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

    # once named in bit/s: "throughput_bps nan must be positive and finite"
    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_throughput_names_itself(self, tau, capsys):
        assert run(["dimension", "--scenario", FIG3, "--target", "0.05",
                    "--tau-mbps", tau]) == 3
        assert f"throughput_mbps {tau} must be positive and finite" in capsys.readouterr().err

    # once named in bit/s: "throughput_bps -3e+06 must be positive and finite"
    @pytest.mark.parametrize("tau", ["-3", "0", "-0.5"])
    def test_non_positive_throughput_is_named_as_typed(self, tau, capsys):
        assert run(["dimension", "--scenario", FIG3, "--target", "0.05",
                    "--tau-mbps", tau]) == 3
        err = capsys.readouterr().err
        assert f"throughput_mbps {float(tau):g} must be positive and finite" in err
        assert "e+06" not in err

    def test_zero_ceiling_names_itself(self, capsys):
        assert run(["dimension", "--scenario", FIG3, "--target", "0.05",
                    "--m-ceiling", "0"]) == 3
        assert "m_ceiling 0 must be at least 1" in capsys.readouterr().err

    def test_heavy_load_is_dimensioned(self, capsys):
        # exp(-total weight) is subnormal on 195 of the 800 road realizations
        code = run(["dimension", "--scenario", FIG7, "--tau-mbps", "180",
                    "--target", "0.05"])
        assert code == 0
        assert "required_m = 1542\n" in capsys.readouterr().out


    # the one-point sweep row, byte for byte, less its status
    @pytest.mark.parametrize("scenario, tau", [(FIG6, []), (FIG7, ["--tau-mbps", "300"])],
                             ids=["fig6_mixed", "fig7-300"])
    def test_out_writes_the_one_point_sweep_row(self, scenario, tau, tmp_path):
        one, grid = tmp_path / "dimension.csv", tmp_path / "sweep.csv"
        assert run(["dimension", "--scenario", scenario, "--target", "0.05", *tau,
                    "--out", str(one)]) == 0
        grid_tau = ["--tau-grid-mbps", tau[1]] if tau else []
        assert run(["sweep", "--scenario", scenario, "--target", "0.05", *grid_tau,
                    "--out", str(grid)]) == 0
        [row] = read_csv(grid)[1]
        assert read_csv(one)[1] == [row.removesuffix(",ok")]

    # once named in bit/s: "throughput_bps inf must be positive and finite"
    def test_a_throughput_beyond_double_precision_is_named_as_typed(self, capsys):
        assert run(["dimension", "--scenario", FIG3, "--target", "0.05",
                    "--tau-mbps", "1e306"]) == 3
        assert ("validation error: throughput_mbps 1e+306 is beyond double precision in bit/s"
                in capsys.readouterr().err)


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
        out, err = capsys.readouterr()
        assert "throughput_mbps nan must be positive and finite" in err and out == ""

    def test_non_positive_throughput_in_the_grid_is_named_as_typed(self, capsys):
        assert run(["sweep", "--scenario", FIG3, "--target", "0.05", "--realizations", "20",
                    "--tau-grid-mbps", "10,-2", "--out", "-"]) == 3
        out, err = capsys.readouterr()
        assert "throughput_mbps -2 must be positive and finite" in err
        assert "e+06" not in err and out == ""

    def test_bad_grid_is_usage_like_validation(self, capsys):
        assert run(["sweep", "--scenario", FIG7, "--target", "0.3",
                    "--tau-grid-mbps", "a,b", "--out", "-"]) == 3

    def test_one_realization_points_equal_their_dimension_runs(self, tmp_path):
        # three one-row matrices stacked in one pass; a lone row once took
        # other last bits than its stacked copy (fig3 at 20 and 30 Mbit/s)
        out = tmp_path / "sweep.csv"
        taus = ["10", "20", "30"]
        assert run(["sweep", "--scenario", FIG3, "--target", "0.05", "--realizations", "1",
                    "--tau-grid-mbps", ",".join(taus), "--out", str(out)]) == 0
        _, swept = read_csv(out)
        for tau, row in zip(taus, swept, strict=True):
            one = tmp_path / f"dimension_{tau}.csv"
            assert run(["dimension", "--scenario", FIG3, "--target", "0.05",
                        "--realizations", "1", "--tau-mbps", tau, "--out", str(one)]) == 0
            assert read_csv(one)[1] == [row.removesuffix(",ok")]


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

    def test_metadata_holds_no_road_realization_count(self, tmp_path):
        # it once held the file's count, which the oracle never reads
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--scenario", FIG4, "--replications", "200",
                    "--out", str(out)]) == 0
        meta, _ = read_csv(out)
        assert [line.split(" = ")[0] for line in meta[3:6]] == [
            "# seed", "# sampler", "# replications"]
        assert not [line for line in meta if line.startswith("# realizations")]

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

    def test_realizations_is_a_usage_error(self, capsys):
        # each replication draws its own roads: there is no road-realization
        # count to set
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--scenario", FIG4, "--replications", "200",
                 "--realizations", "7", "--out", "-"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --realizations 7" in capsys.readouterr().err


# once, `simulate --region edge` left no trace of the region in its CSV
@pytest.mark.parametrize("command, extra, options, lines", [
    ("simulate", ["--replications", "200", "--m-max", "2"], ["--region", "edge"],
     ["# region = edge"]),
    ("congestion", ["--m-max", "2", "--realizations", "10"],
     ["--ppp-equivalent", "--noise-limited", "--region", "middle"],
     ["# region = middle", "# noise_limited = True", "# ppp_equivalent = True"]),
    ("sweep", ["--target", "0.05", "--realizations", "10"], ["--noise-limited"],
     ["# noise_limited = True"])])
def test_population_options_are_recorded_after_the_sampler(command, extra, options, lines,
                                                           tmp_path):
    def keys(meta):
        return [line.split(" = ")[0] for line in meta]

    given, plain = tmp_path / "given.csv", tmp_path / "plain.csv"
    assert run([command, "--scenario", FIG3, *extra, *options, "--out", str(given)]) == 0
    assert run([command, "--scenario", FIG3, *extra, "--out", str(plain)]) == 0
    given_meta, plain_meta = read_csv(given)[0], read_csv(plain)[0]
    at = keys(plain_meta).index("# sampler") + 1
    assert given_meta[at:at + len(lines)] == lines
    # without the options, the run writes none of these lines
    assert keys(given_meta) == keys(plain_meta[:at] + lines + plain_meta[at:])


# every scenario command at a small size; simulate draws no road
# realizations, so it takes no --realizations
SMALL_COMMANDS = [
    ("congestion", ["--m-max", "5", "--realizations", "10"]),
    ("dimension", ["--target", "0.05", "--realizations", "10"]),
    ("sweep", ["--target", "0.05", "--realizations", "10"]),
    ("simulate", ["--replications", "200"])]


@pytest.mark.parametrize("command, extra", SMALL_COMMANDS)
def test_negative_seed_is_validation_error(command, extra, capsys):
    code = run([command, "--scenario", FIG7, "--seed", "-1", *extra, "--out", "-"])
    assert code == 3
    assert "seed -1 must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("congestion", ["--m-max", "5"]), ("dimension", ["--target", "0.05"]),
    ("sweep", ["--target", "0.05"])])
@pytest.mark.parametrize("realizations", ["0", "-2"])
def test_realizations_below_one_is_validation_error(command, extra, realizations, capsys):
    code = run([command, "--scenario", FIG7, "--realizations", realizations, *extra,
                "--out", "-"])
    assert code == 3
    assert f"realizations {realizations} must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", SMALL_COMMANDS)
@pytest.mark.parametrize("target, reason", [
    ("missing/x.csv", errno.ENOENT), (".", errno.EISDIR)])
def test_unwritable_out_is_validation_error(command, extra, target, reason, tmp_path, capsys):
    out = tmp_path / target
    code = run([command, "--scenario", FIG7, *extra, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (f"validation error: cannot write {out}: "
                                       f"{os.strerror(reason)}\n")


def test_negative_seed_in_the_file_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "negative_seed.scenario"
    with open(FIG7) as fh:
        path.write_text(fh.read().replace("seed = 20250811", "seed = -1"))
    assert run(["dimension", "--scenario", str(path), "--target", "0.05", "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and str(path) in err
    assert "seed -1 must be a non-negative integer" in err


def test_zero_realizations_in_the_file_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "no_realizations.scenario"
    with open(FIG7) as fh:
        path.write_text(fh.read().replace("realizations = 800", "realizations = 0"))
    assert run(["dimension", "--scenario", str(path), "--target", "0.05", "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and str(path) in err
    assert "realizations 0 must be at least 1" in err


@pytest.mark.parametrize("command, extra", [
    ("congestion", ["--realizations", "10"]), ("congestion", ["--realizations", "10", "--with-mc"]),
    ("simulate", ["--replications", "200"])])
def test_negative_m_max_is_validation_error(command, extra, tmp_path, capsys):
    out = tmp_path / "negative.csv"
    assert run([command, "--scenario", FIG4, "--m-max", "-5", *extra, "--out", str(out)]) == 3
    assert "--m-max -5 must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra, header", [
    ("congestion", ["--with-mc", "--mc-replications"], "m,pi_analytic,stderr,pi_mc,mc_low,mc_high"),
    ("simulate", ["--replications"], "m,pi_mc,wilson_low,wilson_high")])
def test_m_max_zero_checks_the_replications_first(command, extra, header, tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert run([command, "--scenario", FIG4, "--m-max", "0", *extra, "50",
                "--out", str(out)]) == 3
    assert "replications 50 must be at least 100" in capsys.readouterr().err
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
    assert f"replications {replications} must be at least 100" in capsys.readouterr().err


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


def cli_process(argv, **kwargs):
    """`python -m prbdim.cli argv` in a fresh interpreter on this tree's prbdim,
    its stdout block-buffered, so that what a command prints stays buffered
    until `run()` flushes it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(prbdim.__file__).parents[1])
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-m", "prbdim.cli", *argv], env=env,
                          timeout=120, **kwargs)


class TestProcessExit:
    """The process entry ends the interpreter once its outputs are flushed;
    what a command writes and returns must be what `main()` gives in-process."""

    @pytest.mark.parametrize("argv", [
        ["dimension", "--scenario", FIG6, "--target", "0.05", "--out", "{csv}"],
        ["sweep", "--scenario", FIG3, "--target", "0.05", "--tau-grid-mbps", "10,15,20,25,30",
         "--lambda-grid-per-km", "2,10", "--realizations", "400", "--out", "-"],
        ["simulate", "--scenario", FIG4, "--replications", "200", "--out", "-"],
        ["validate", "--suite", "identities"],
    ], ids=["dimension", "sweep", "simulate", "identities"])
    def test_process_output_equals_main(self, argv, tmp_path, capsys):
        here, there = tmp_path / "main.csv", tmp_path / "process.csv"
        code = main([a.format(csv=here) for a in argv])
        out, err = capsys.readouterr()
        proc = cli_process([a.format(csv=there) for a in argv])
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
        if "{csv}" in argv:
            assert there.read_bytes() == here.read_bytes()

    @pytest.mark.parametrize("extra, code, message", [
        ([], 2, "the following arguments are required: --target"),
        (["--target", "0.05", "--m-ceiling", "0"], 3, "m_ceiling 0 must be at least 1"),
        (["--target", "1e-8", "--m-ceiling", "100"], 4, "at the M ceiling 100"),
    ], ids=["usage", "validation", "infeasible"])
    def test_exit_codes_survive_the_process(self, extra, code, message):
        proc = cli_process(["dimension", "--scenario", FIG3, *extra])
        assert proc.returncode == code
        assert message in proc.stderr.decode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_failed_write_to_stdout_exits_non_zero(self):
        with open("/dev/full", "w") as full:
            proc = cli_process(["validate", "--suite", "identities"], stdout=full)
        assert proc.returncode != 0
        assert b"No space left on device" in proc.stderr

    def test_the_entries_turn_the_cyclic_collector_off_and_the_import_does_not(self,
                                                                               monkeypatch):
        code = "import gc, prbdim.cli; assert gc.isenabled()"
        assert subprocess.run([sys.executable, "-c", code], env={
            **os.environ, "PYTHONPATH": str(Path(prbdim.__file__).parents[1])}).returncode == 0
        monkeypatch.setattr(sys, "argv", ["prbdim", "--version"])
        try:
            with pytest.raises(SystemExit):
                cli.run()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_failed_flush_raises_and_never_exits_silently(self, monkeypatch):
        class Full:
            def write(self, text):
                return len(text)

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        exits = []
        monkeypatch.setattr(sys, "argv", ["prbdim", "validate", "--suite", "identities"])
        monkeypatch.setattr(sys, "stdout", Full())
        monkeypatch.setattr(os, "_exit", exits.append)
        with pytest.raises(OSError):
            cli.run()
        assert exits == []


def edited_scenario(tmp_path, name, key, value):
    """A bundled scenario with one key's value replaced."""
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in Path(bundled_scenario_path(name)).read_text().splitlines()]
    path = tmp_path / f"{name}_{key}.scenario"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def limited_process(argv):
    """`cli_process` under a 3 GiB address-space limit, for a request that
    must be refused before anything is allocated: where it is not, the
    allocation fails at once instead of swapping."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    return cli_process(argv, preexec_fn=limit)


class TestErrorExits:
    """Each prbdim error class carries its exit code and label; `main` reads
    them in one clause and lets every other exception through."""

    @pytest.mark.parametrize("error, code, label", [
        (prbdim.DomainError, 3, "validation error"), (prbdim.ScenarioError, 3, "scenario error"),
        (prbdim.CeilingError, 4, "infeasible"), (prbdim.InfeasibleSplitError, 4, "infeasible"),
        (prbdim.AccuracyError, 5, "accuracy error"), (prbdim.RangeError, 5, "accuracy error")])
    def test_an_error_class_gives_its_exit_code_and_label(self, error, code, label, monkeypatch,
                                                          capsys):
        def fail(args):
            raise error("it failed")
        monkeypatch.setattr(cli, "cmd_dimension", fail)
        assert run(["dimension", "--scenario", FIG3, "--target", "0.05"]) == code
        assert capsys.readouterr().err == f"{label}: it failed\n"

    def test_a_library_value_error_is_no_validation_error(self, monkeypatch):
        # main once mapped every ValueError, numpy's included, to exit 3
        def fail(args):
            raise ValueError("lam value too large")
        monkeypatch.setattr(cli, "cmd_dimension", fail)
        with pytest.raises(ValueError, match="lam value too large"):
            run(["dimension", "--scenario", FIG3, "--target", "0.05"])


class TestNamedRefusals:
    """Inputs that once ended in numpy's errors, a MemoryError or a NaN
    curve reported as infeasible are refused with a text that names them."""

    SWEEP = ["sweep", "--scenario", FIG3, "--target", "0.05", "--realizations", "20",
             "--out", "-"]
    DIMENSION = ["dimension", "--scenario", FIG3, "--target", "0.05", "--realizations", "20"]

    # numpy's `lam value too large`, `array is too big` and a MemoryError
    @pytest.mark.parametrize("lam", ["1e300", "1e18", "1e17"])
    def test_a_huge_road_intensity_in_the_grid_is_refused(self, lam, capsys):
        assert run([*self.SWEEP, "--lambda-grid-per-km", lam]) == 3
        assert (f"validation error: road_intensity {float(lam):g} over 20 realizations asks "
                "for") in capsys.readouterr().err

    def test_a_huge_road_intensity_in_the_file_is_refused(self, tmp_path, capsys):
        path = edited_scenario(tmp_path, "fig3", "road_intensity_per_km", "1e300")
        assert run(["dimension", "--scenario", path, "--target", "0.05",
                    "--realizations", "20"]) == 3
        assert "road_intensity 1e+300 over 20 realizations asks for" in capsys.readouterr().err

    def test_a_mean_demand_below_the_overflow_bound_is_dimensioned(self, capsys):
        assert run([*self.DIMENSION, "--tau-mbps", "1e106"]) == 4
        assert "infeasible: congestion 1 still above target" in capsys.readouterr().err

    # each exited 4 with `congestion nan still above target 0.05`
    @pytest.mark.parametrize("tau", ["1e110", "1e300"])
    def test_a_mean_demand_the_recursion_cannot_carry_is_refused(self, tau, capsys):
        assert run([*self.DIMENSION, "--tau-mbps", tau]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: mean demand 6.69e+{tau[2:]} PRBs")
        assert "PRBs above 1.8e+108 overflows the recursion" in err

    def test_a_tiny_service_rate_is_refused(self, tmp_path, capsys):
        path = edited_scenario(tmp_path, "fig3", "rate_kbps", "1e-300")
        assert run(["dimension", "--scenario", path, "--target", "0.05",
                    "--realizations", "20"]) == 3
        assert "mean demand" in capsys.readouterr().err

    # numpy's `Maximum allowed dimension exceeded`
    def test_a_replication_count_beyond_any_array_is_refused(self, capsys):
        assert run(["simulate", "--scenario", FIG3, "--replications", str(2 ** 63),
                    "--out", "-"]) == 3
        assert f"replications {2 ** 63} asks for 9.22e+18 samples" in capsys.readouterr().err

    # numpy's `negative dimensions are not allowed`
    def test_a_monte_carlo_block_beyond_the_size_bound_is_refused(self, tmp_path, capsys):
        path = edited_scenario(tmp_path, "fig6_mixed", "throughput_mbps", "1e18")
        assert run(["simulate", "--scenario", path, "--replications", "100", "--out", "-"]) == 3
        assert "128 replications at GeometryParams(" in capsys.readouterr().err

    # each once ended in a MemoryError traceback, exit 1
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--scenario", FIG3, "--replications", "10000000000", "--out", "-"],
         "replications 10000000000 asks for 1e+10 samples"),
        (["congestion", "--scenario", FIG3, "--realizations", "20", "--m-max", "10000000000",
          "--out", "-"], "--m-max 10000000000 asks for 1e+10 thresholds"),
        (["simulate", "--scenario", FIG3, "--replications", "100", "--m-max", "10000000000",
          "--out", "-"], "--m-max 10000000000 asks for 1e+10 thresholds"),
        (["congestion", "--scenario", FIG3, "--ppp-equivalent", "--realizations", "100000000",
          "--m-max", "3", "--out", "-"], "road_intensity 0 over 100000000 realizations asks for"),
        (["simulate", "--scenario", "{fig6_tau1e6}", "--replications", "100", "--out", "-"],
         "128 replications at GeometryParams("),
    ], ids=["replications", "congestion-m-max", "simulate-m-max", "ppp-realizations",
            "block-users"])
    def test_a_request_beyond_the_size_bound_is_refused_first(self, argv, message, tmp_path):
        path = edited_scenario(tmp_path, "fig6_mixed", "throughput_mbps", "1e6")
        proc = limited_process([a.replace("{fig6_tau1e6}", path) for a in argv])
        assert proc.returncode == 3
        assert message in proc.stderr.decode()
