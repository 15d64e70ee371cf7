import dataclasses
import re
from pathlib import Path

import pytest

from prbdim import ScenarioError
from prbdim.scenario_io import (KEYS, ScenarioFile, bundled_scenario, bundled_scenario_path,
                                dump_scenario, parse_scenario)

README = Path(__file__).resolve().parent.parent / "README.md"

BUNDLED = ("fig2_tau14", "fig2_tau30", "fig3", "fig4", "fig6_mixed", "fig7",
           "fig8_regions")

MINIMAL = """
[cell]
tx_power_dbm = 60.0
noise_power_dbm = -93.0
prop_const_db = 130.0
prop_const_indoor_db = 166.0
path_loss_exp = 3.5
tx_antennas = 8
rx_antennas = 2
prb_bandwidth_khz = 180.0
cell_radius_km = 0.7

[service]
rate_kbps = 500.0

[geometry]
road_intensity_per_km = 9.0
user_intensity_per_km = 6.0
"""


class TestParsing:
    def test_minimal_document_with_defaults(self):
        doc = parse_scenario(MINIMAL)
        assert doc.max_user_prbs == 256
        assert doc.margins_db == (0.0,)
        assert doc.realizations == 500
        assert doc.seed == 0
        assert doc.sampler == "paper"
        scn = doc.to_scenario()
        assert scn.geometry.user_intensity_linear == 6.0
        assert scn.geometry.user_intensity_area == 0.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(MINIMAL + "\nfrequency_ghz = 3.5\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario(MINIMAL + "\n[antenna]\ncount = 3\n")

    def test_missing_required_key_rejected(self):
        broken = MINIMAL.replace("rate_kbps = 500.0\n", "")
        with pytest.raises(ScenarioError, match="rate_kbps"):
            parse_scenario(broken)

    def test_non_numeric_rejected(self):
        with pytest.raises(ScenarioError, match="not a number"):
            parse_scenario(MINIMAL.replace("500.0", "fast"))

    def test_mixed_intensity_styles_rejected(self):
        text = MINIMAL + "throughput_mbps = 10.0\noutdoor_fraction = 0.5\n"
        with pytest.raises(ScenarioError, match="mixes"):
            parse_scenario(text)

    def test_three_margins_get_default_breakpoints(self):
        text = MINIMAL + "\n[interference]\nmargins_db = 1.0, 8.0, 15.0\n"
        doc = parse_scenario(text)
        assert doc.breakpoints_km == pytest.approx((0.7 / 3, 1.4 / 3))

    def test_margin_breakpoint_mismatch_rejected(self):
        text = MINIMAL + "\n[interference]\nmargins_db = 1.0, 8.0\n"
        with pytest.raises(ScenarioError, match="margins"):
            parse_scenario(text)

    def test_physics_validation_surfaces_as_scenario_error(self):
        with pytest.raises(ScenarioError, match="path_loss_exp"):
            parse_scenario(MINIMAL.replace("path_loss_exp = 3.5",
                                           "path_loss_exp = 1.5"))

    def test_unknown_sampler_rejected(self):
        text = MINIMAL + "\n[monte_carlo]\nsampler = quasi\n"
        with pytest.raises(ScenarioError, match="sampler"):
            parse_scenario(text)

    @pytest.mark.parametrize("value", ["-3", "0", "inf", "nan"])
    def test_non_positive_throughput_is_named_as_written(self, value, tmp_path, capsys):
        from prbdim.cli import main
        text = MINIMAL.replace("user_intensity_per_km = 6.0",
                               f"throughput_mbps = {value}\noutdoor_fraction = 0.5")
        path = tmp_path / "cell.scenario"
        path.write_text(text)
        written = "must be finite" if value in ("inf", "nan") else \
            f"throughput_mbps = {value} Mbit/s must be positive"
        with pytest.raises(ScenarioError, match=written):
            parse_scenario(text, name="cell.scenario")
        assert main(["dimension", "--scenario", str(path), "--target", "0.05"]) == 3
        assert written in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t + "\n[antenna]\ncount = 3\n", "unknown section [antenna]"),
        (lambda t: t + "frequency_ghz = 3.5\n", "unknown key 'frequency_ghz' in [geometry]"),
        (lambda t: t.replace("rate_kbps = 500.0\n", ""),
         "missing required key 'rate_kbps' in [service]"),
        (lambda t: t.replace("500.0", "fast"), "[service] rate_kbps = 'fast' is not a number"),
        (lambda t: t.replace("tx_antennas = 8", "tx_antennas = 8.0"),
         "[cell] tx_antennas = '8.0' is not an integer"),
        (lambda t: t + "throughput_mbps = 10.0\n",
         "[geometry] mixes explicit intensities with a throughput forecast"),
        (lambda t: t.replace("user_intensity_per_km = 6.0", "throughput_mbps = 10.0"),
         "[geometry] needs explicit intensities or both throughput_mbps and outdoor_fraction"),
        (lambda t: t + "\n[interference]\nmargins_db = 1.0, 8.0\n", "2 margins need 1 breakpoints"),
        (lambda t: t.replace("user_intensity_per_km = 6.0",
                             "throughput_mbps = -3\noutdoor_fraction = 0.5"),
         "[geometry] throughput_mbps = -3 Mbit/s must be positive"),
        (lambda t: t + "\n[monte_carlo]\nsampler = quasi\n", "unknown sampler 'quasi'"),
        (lambda t: t + "\n[monte_carlo]\nseed = -3\n", "seed -3 must be a non-negative integer"),
    ])
    def test_one_fault_keeps_its_message(self, edit, message):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(edit(MINIMAL), name="cell.scenario")
        assert str(exc.value) == f"cell.scenario: {message}"

    @pytest.mark.parametrize("breakpoints", ["0.3, 0.9", "0.3, 0.7"])
    def test_breakpoint_beyond_the_cell_is_a_parse_error(self, breakpoints, tmp_path, capsys):
        # named with the file at parse time, not later by each command
        from prbdim.cli import main
        text = (MINIMAL + "\n[interference]\nmargins_db = 1.0, 8.0, 15.0\n"
                f"breakpoints_km = {breakpoints}\n")
        message = "breakpoints must lie strictly inside the cell"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text, name="cell.scenario")
        assert str(exc.value) == f"cell.scenario: {message}"
        path = tmp_path / "cell.scenario"
        path.write_text(text)
        for command in (["congestion", "--region", "edge", "--m-max", "5", "--out", "-"],
                        ["simulate", "--replications", "1000", "--out", "-"]):
            assert main([*command, "--scenario", str(path)]) == 3
            assert capsys.readouterr().err == f"scenario error: {path}: {message}\n"

    def test_several_faults_report_the_first_in_table_order(self):
        with pytest.raises(ScenarioError, match="missing required key 'tx_power_dbm'"):
            parse_scenario("")

    def test_inline_comments(self):
        text = MINIMAL.replace("rate_kbps = 500.0", "rate_kbps = 400.0    ; per user")
        assert parse_scenario(text).rate_kbps == 400.0
        with pytest.raises(ScenarioError, match="unknown sampler 'paper;x'"):
            parse_scenario(MINIMAL + "\n[monte_carlo]\nsampler = paper;x\n")

    def test_negative_seed_rejected(self):
        text = MINIMAL + "\n[monte_carlo]\nseed = -3\n"
        with pytest.raises(ScenarioError, match="^cell.scenario: seed -3 must be a non-negative"):
            parse_scenario(text, name="cell.scenario")


class TestKeyTable:
    def test_fields_follow_the_table(self):
        assert [f.name for f in dataclasses.fields(ScenarioFile)] == [key for _, key, _, _ in KEYS]

    def test_readme_example_parses_and_names_every_key_in_order(self):
        block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        doc = parse_scenario(block, name="README.md")
        assert doc.margins_db == (1.0, 8.0, 15.0) and doc.realizations == 800
        assert doc.user_intensity_per_km == 6.0 and doc.throughput_mbps is None
        # the forecast keys appear there as commented-out lines
        named = re.findall(r"^;?\s*(\w+)\s*=", block, flags=re.MULTILINE)
        assert named == [key for _, key, _, _ in KEYS]


class TestBundled:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_parses_and_round_trips_bytes(self, name):
        path = bundled_scenario_path(name)
        original = path.read_text()
        doc = parse_scenario(original, name=name)
        assert dump_scenario(doc) == original

    @pytest.mark.parametrize("name", BUNDLED)
    def test_builds_a_scenario(self, name):
        scn = bundled_scenario(name).to_scenario()
        assert scn.cell_radius_km == 0.7
        assert scn.mean_users > 0

    def test_unknown_bundle_name(self):
        with pytest.raises(ScenarioError):
            bundled_scenario_path("fig99")

    def test_throughput_encoding(self):
        doc = bundled_scenario("fig2_tau30")
        assert doc.throughput_mbps == 30.0
        scn = doc.to_scenario()
        assert scn.mean_users * scn.service.rate_bps == pytest.approx(30e6, rel=1e-12)


class TestQueries:
    def test_query_from_file_forecast(self):
        doc = bundled_scenario("fig7")
        q = doc.to_query(target=0.05)
        assert q.throughput_bps == pytest.approx(26e6)
        assert q.outdoor_fraction == 0.5
        assert q.scenario.geometry.road_intensity == 9.0

    def test_query_needs_throughput(self):
        doc = bundled_scenario("fig4")  # explicit intensities, no forecast
        with pytest.raises(ScenarioError, match="throughput"):
            doc.to_query(target=0.05)
        q = doc.to_query(target=0.05, throughput_bps=20e6, outdoor_fraction=1.0)
        assert q.throughput_bps == 20e6

    def test_region_bounds(self):
        doc = bundled_scenario("fig8_regions")
        lo, hi = doc.region_bounds("edge")
        assert lo == pytest.approx(2 * 0.7 / 3)
        assert hi == 0.7
        assert doc.region_bounds(None) is None
        with pytest.raises(ScenarioError):
            doc.region_bounds("downtown")

    def test_noise_limited_override(self):
        doc = bundled_scenario("fig6_mixed")
        assert doc.to_scenario().interference.margins_db == (1.0, 8.0, 15.0)
        assert doc.to_scenario(noise_limited=True).interference.margins_db == (0.0,)

    def test_overrides(self):
        doc = bundled_scenario("fig4").with_overrides(seed=99, realizations=12)
        assert doc.seed == 99
        assert doc.realizations == 12
        scn = doc.to_scenario()
        assert scn.seed == 99 and scn.mc_realizations == 12


class TestDump:
    def test_round_trip_preserves_value_semantics(self):
        doc = parse_scenario(MINIMAL)
        again = parse_scenario(dump_scenario(doc))
        assert again == doc

    def test_seventeen_digit_floats_survive(self):
        text = MINIMAL.replace("road_intensity_per_km = 9.0",
                               "road_intensity_per_km = 9.000000000000123")
        doc = parse_scenario(text)
        assert doc.road_intensity_per_km == 9.000000000000123
        assert parse_scenario(dump_scenario(doc)) == doc
