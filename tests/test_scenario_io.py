import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prbdim import ScenarioError
from prbdim.errors import (PrbdimError, read_choice, read_count, read_fraction, read_real,
                           read_tuple)
from prbdim.geometry import SAMPLERS
from prbdim.linkmodel import InterferenceModel
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
        assert doc.breakpoints_km == InterferenceModel.three_region(1.0, 8.0, 15.0, 0.7).breakpoints_km

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
        written = f"throughput_mbps {value} must be positive and finite"
        with pytest.raises(ScenarioError, match=written):
            parse_scenario(text, name="cell.scenario")
        assert main(["dimension", "--scenario", str(path), "--target", "0.05"]) == 3
        assert written in capsys.readouterr().err

    # named as intensities_from_throughput's SI arguments, e.g. rate_bps
    # 9.99989e-318 for rate_kbps = 1e-320
    @pytest.mark.parametrize("key, value", [("rate_kbps", "1e-320"),
                                            ("road_intensity_per_km", "1e-320"),
                                            ("cell_radius_km", "1e+200")])
    def test_a_forecast_beyond_double_precision_names_its_keys_as_written(self, key, value,
                                                                          tmp_path, capsys):
        from prbdim.cli import main
        path = tmp_path / "cell.scenario"
        path.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}",
                               bundled_scenario_path("fig3").read_text()))
        given = {"rate_kbps": "500.0", "cell_radius_km": "0.7", "road_intensity_per_km": "2.0",
                 key: value}
        message = (f"user intensity of throughput_mbps 25.0 at rate_kbps {given['rate_kbps']} "
                   f"over cell_radius_km {given['cell_radius_km']}, road_intensity_per_km "
                   f"{given['road_intensity_per_km']} and outdoor_fraction 0.75 is beyond "
                   "double precision")
        assert main(["dimension", "--scenario", str(path), "--target", "0.05",
                     "--realizations", "20"]) == 3
        assert capsys.readouterr().err == f"scenario error: {path}: {message}\n"

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
         "throughput_mbps -3 must be positive and finite"),
        (lambda t: t + "\n[monte_carlo]\nsampler = quasi\n", "unknown sampler 'quasi'"),
        (lambda t: t + "\n[monte_carlo]\nseed = -3\n", "seed -3 must be a non-negative integer"),
        (lambda t: t + "\n[monte_carlo]\nrealizations = 0\n", "realizations 0 must be at least 1"),
        # refused by GeometryParams, not as an infeasible split
        (lambda t: t.replace("road_intensity_per_km = 9.0\nuser_intensity_per_km = 6.0",
                             "road_intensity_per_km = -1.0\nthroughput_mbps = 25.0\n"
                             "outdoor_fraction = 0.75"),
         "road_intensity -1 must be nonnegative and finite"),
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

    def test_a_document_configparser_rejects_names_the_file(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(MINIMAL + "user_intensity_per_km = 7.0\n", name="cell.scenario")
        assert str(exc.value) == ("cell.scenario: While reading from 'cell.scenario' [line 19]: "
                                  "option 'user_intensity_per_km' in section 'geometry' "
                                  "already exists")

    def test_query_without_an_outdoor_fraction_is_refused(self):
        doc = parse_scenario(MINIMAL)
        with pytest.raises(ScenarioError) as exc:
            doc.to_query(target=0.05, throughput_bps=10e6)
        assert str(exc.value) == "no outdoor_fraction given for a dimensioning query"

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
        fields = dataclasses.fields(ScenarioFile)
        assert [f.name for f in fields] == [key for _, key, _, _ in KEYS]
        # every key is a required argument, whatever an omitted key reads as
        assert all(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
                   for f in fields)

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
        # a one-margin file states no breakpoints: its regions are the default split
        doc = bundled_scenario("fig3")
        assert doc.margins_db == (0.0,)
        c1, c2 = InterferenceModel.three_region(0.0, 0.0, 0.0, doc.cell_radius_km).breakpoints_km
        assert doc.region_bounds("center") == (0.0, c1)
        assert doc.region_bounds("middle") == (c1, c2)
        assert doc.region_bounds("edge") == (c2, 0.7)

    def test_noise_limited_override(self):
        doc = bundled_scenario("fig6_mixed")
        assert doc.to_scenario().interference.margins_db == (1.0, 8.0, 15.0)
        assert doc.to_scenario(noise_limited=True).interference.margins_db == (0.0,)

    def test_overrides(self):
        doc = dataclasses.replace(bundled_scenario("fig4"), seed=99, realizations=12)
        assert doc.seed == 99
        assert doc.realizations == 12
        scn = doc.to_scenario()
        assert scn.seed == 99 and scn.mc_realizations == 12


# each key's values, as builtins and numpy scalars, most of them valid
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_REALS = st.one_of(st.floats(0.0, 2.0), st.floats(-200.0, 200.0), _FINITE)
_REALS = st.one_of(_REALS, _REALS.map(np.float64),
                   st.floats(-200.0, 200.0, width=32).map(np.float32))
_COUNTS = st.integers(0, 2 ** 63 - 1)
# 10**5000 once built a document that dump_scenario could not write
_COUNTS = st.one_of(st.integers(0, 10), _COUNTS, _COUNTS.map(np.int64), st.just(10 ** 5000))
_LISTS = st.lists(st.one_of(st.floats(0.0, 1.0), _FINITE), max_size=3)
_BY_READER = {read_real: _REALS, read_fraction: _REALS, read_count: _COUNTS,
              read_tuple: _LISTS.map(tuple), read_choice: st.sampled_from(SAMPLERS)}
VALUES = {f.name: _BY_READER[f.metadata["read"][0]] for f in dataclasses.fields(ScenarioFile)}
VALUES.update({key: st.one_of(st.none(), VALUES[key]) for _, key, _, absent in KEYS
               if absent is None})


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

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_documents_parse_back_from_their_dump(self, name):
        doc = bundled_scenario(name)
        assert parse_scenario(dump_scenario(doc)) == doc

    @pytest.mark.parametrize("count", [10 ** 5000, -(10 ** 5000)], ids=["huge", "huge-negative"])
    def test_a_count_too_long_to_write_is_refused(self, count):
        # it built, and dump_scenario raised the builtin "Exceeds the limit (4300 digits)"
        with pytest.raises(PrbdimError) as exc:
            dataclasses.replace(bundled_scenario("fig3"), seed=count)
        assert str(exc.value) == "seed has more than 4300 digits, too many to write"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(name=st.sampled_from(BUNDLED), changes=st.lists(
        st.sampled_from([key for _, key, _, _ in KEYS]).flatmap(
            lambda key: st.tuples(st.just(key), VALUES[key])),
        min_size=1, max_size=3, unique_by=lambda change: change[0]))
    def test_a_built_document_parses_back_from_its_dump(self, name, changes):
        # any document that can be built, numpy values too, dumps to text that reads as it
        try:
            doc = dataclasses.replace(bundled_scenario(name), **dict(changes))
        except PrbdimError:
            return
        assert parse_scenario(dump_scenario(doc)) == doc

