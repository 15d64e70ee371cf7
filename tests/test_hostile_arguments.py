"""Hostile argument values through the public Python entries: each scalar
or array argument of each entry, given a bool, NaN, an infinity, -0.0, a
value of the wrong sign, a numpy scalar, a 0-d or 2-d array, a string,
1e300 or a huge integer while the other arguments stay valid, gives a
result or raises a `PrbdimError`; no bare builtin error leaves the entry.
Record arguments (a `Scenario`, a `LinkBudget`, a `CompoundSpec`) stay
valid: the constructor entries drive their fields, and the radio records
are carried on to the cell's demand steps, where their arithmetic runs.
A scenario document's keys are driven through `dataclasses.replace` and
its conversion to a `Scenario`.

No case asks for what an allocator could grant: a count is small, or of at
least 2^50 elements, so a missing size refusal fails at once instead of
swapping.

A record stores what its field's reader returns: a numpy scalar field is
kept as a builtin float or int, so the radio arithmetic runs in double
precision and raises where it overflows, without a numpy RuntimeWarning,
which every test here turns into an error."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prbdim import (CompoundSpec, DimensionQuery, GeometryParams, InterferenceModel,
                    LinkBudget, RoadSet, Service, StepFunction, averaged_congestion, ccdf_bell,
                    ccdf_bell_literal, ccdf_integral, conditional_congestion, dimension_prbs,
                    dimension_scenario, empirical_ccdf, intensities_from_throughput, pmf,
                    sample_road_set, sinr_at, sweep)
from prbdim.errors import PrbdimError
from prbdim.scenario_io import bundled_scenario
from prbdim.simulate import gamma_samples

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# a small valid cell: fig3 with four road realizations
DOC = bundled_scenario("fig3")
SCN = dataclasses.replace(DOC.to_scenario(), mc_realizations=4)
LB, IM, SVC, GP = SCN.link_budget, SCN.interference, SCN.service, SCN.geometry
SPEC = CompoundSpec([0.3, 0.2, 0.1])
ROAD = RoadSet(counts=[2], chord_distances=[0.1, 0.3])

SCALARS = [True, False, np.True_, math.nan, -math.nan, math.inf, -math.inf, -0.0, 0, 0.0,
           -1, -2.5, 0.5, 3, 1e300, -1e300, 10 ** 400, -(10 ** 400), np.float64(math.nan),
           np.float64(-math.inf), np.float32(0.5), np.int64(-3), np.int64(2), np.uint64(7),
           "abc", "1.5", "", None, 1 + 2j]
# arrays of every shape an argument could be read as
ARRAYS = [np.array(0.5), np.array(True), np.ones((2, 2)), [], [math.nan], [-1.0], [1.7],
          [True], ["a"], [1e300], [10 ** 400], np.array([2 ** 60]), [[0.5, 0.5], 0.5]]
ENTRIES = st.one_of(st.sampled_from(SCALARS),
                    st.integers(-3, 3),
                    st.integers(2 ** 50, 2 ** 80),
                    st.integers(-2 ** 80, -2 ** 50))
HOSTILE = st.one_of(
    ENTRIES,
    ENTRIES.map(np.array),
    st.lists(ENTRIES, min_size=0, max_size=3),
    st.lists(st.lists(st.sampled_from([0.5, 1, True]), min_size=2, max_size=2),
             min_size=1, max_size=2).map(np.array))


def _demand(scn):
    """The scenario's demand steps, where its radio arithmetic runs."""
    return scn.demand_steps


def _radio(**fields):
    return _demand(dataclasses.replace(SCN, **fields))


def _query(**fields):
    return DimensionQuery(**{"scenario": SCN, "target_congestion": 0.05,
                             "throughput_bps": 25e6, "outdoor_fraction": 0.75, **fields})


# per entry: its call on keyword arguments, the valid ones, and the names
# of the arguments a hostile value replaces
CALLS = {
    "LinkBudget": (lambda **kw: _radio(link_budget=LinkBudget(**kw)), dataclasses.asdict(LB),
                   [f.name for f in dataclasses.fields(LinkBudget)]),
    "InterferenceModel": (lambda **kw: _radio(interference=InterferenceModel(**kw)),
                          {"margins_db": (1.0, 8.0, 15.0), "breakpoints_km": (0.2, 0.4)},
                          ["margins_db", "breakpoints_km"]),
    "Service": (lambda **kw: _radio(service=Service(**kw)), {"rate_bps": 5e5}, ["rate_bps"]),
    "GeometryParams": (GeometryParams, dataclasses.asdict(GP),
                       ["road_intensity", "user_intensity_linear", "user_intensity_area"]),
    "Scenario": (lambda **kw: _demand(dataclasses.replace(SCN, **kw)),
                 {"sampler": "paper", "seed": 0, "mc_realizations": 4, "region_km": (0.1, 0.5)},
                 ["sampler", "seed", "mc_realizations", "region_km"]),
    "ScenarioFile": (lambda **kw: dataclasses.replace(DOC, **kw).to_scenario(),
                     dataclasses.asdict(DOC), [f.name for f in dataclasses.fields(DOC)]),
    "DimensionQuery": (_query, {},
                       ["target_congestion", "throughput_bps", "outdoor_fraction", "m_ceiling"]),
    "CompoundSpec": (CompoundSpec, {"weights": [0.3, 0.2]}, ["weights"]),
    "RoadSet": (RoadSet, {"counts": [2, 0], "chord_distances": [0.1, 0.3]},
                ["counts", "chord_distances"]),
    "StepFunction": (StepFunction, {"bounds": [0.2, 0.5], "values": [1, 2, 3], "span": 0.7},
                     ["bounds", "values", "span"]),
    "dimension_prbs": (lambda **kw: dimension_prbs(_query(**kw)), {},
                       ["target_congestion", "throughput_bps", "outdoor_fraction", "m_ceiling"]),
    "sweep": (lambda **kw: sweep(_query(), **kw),
              {"throughput_grid_bps": [10e6, 25e6], "road_intensity_grid": [2.0]},
              ["throughput_grid_bps", "road_intensity_grid"]),
    "dimension_scenario": (lambda **kw: dimension_scenario(SCN, **kw),
                           {"target": 0.05, "m_ceiling": 4096}, ["target", "m_ceiling"]),
    "averaged_congestion": (lambda **kw: averaged_congestion(SCN, **kw), {"m_values": [0, 5]},
                            ["m_values"]),
    "conditional_congestion": (lambda **kw: conditional_congestion(SCN, ROAD, **kw), {"m": 3},
                               ["m"]),
    "gamma_samples": (lambda **kw: gamma_samples(SCN, **kw), {"replications": 100},
                      ["replications"]),
    "empirical_ccdf": (lambda **kw: empirical_ccdf(SCN, **kw),
                       {"m_values": [0, 5], "replications": 100}, ["m_values", "replications"]),
    "pmf": (lambda **kw: pmf(SPEC, **kw), {"k_max": 10}, ["k_max"]),
    "ccdf_bell": (lambda **kw: ccdf_bell(SPEC, **kw), {"m": 3}, ["m"]),
    "ccdf_bell_literal": (lambda **kw: ccdf_bell_literal(SPEC, **kw), {"m": 3}, ["m"]),
    "ccdf_integral": (lambda **kw: ccdf_integral(SPEC, **kw), {"m": 3}, ["m"]),
    "sinr_at": (lambda **kw: sinr_at(LB, IM, **kw), {"x_km": 0.5, "environment": "outdoor"},
                ["x_km", "environment"]),
    "intensities_from_throughput": (
        intensities_from_throughput,
        {"throughput_bps": 25e6, "rate_bps": 5e5, "cell_radius_km": 0.7, "road_intensity": 2.0,
         "outdoor_fraction": 0.75},
        ["throughput_bps", "rate_bps", "cell_radius_km", "road_intensity", "outdoor_fraction"]),
    "sample_road_set": (
        lambda **kw: sample_road_set(GP, **kw),
        {"cell_radius_km": 0.7, "sampler": "paper", "seed": 0, "count": 3},
        ["cell_radius_km", "sampler", "seed", "count"]),
}


@pytest.mark.parametrize("entry, argument", [
    (entry, argument) for entry, (_, _, arguments) in CALLS.items() for argument in arguments])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(value=HOSTILE)
def test_each_argument_answers_a_hostile_value_or_names_a_refusal(entry, argument, value):
    call, valid, _ = CALLS[entry]
    try:
        call(**{**valid, argument: value})
    except PrbdimError:
        pass


# every listed value is tried on every argument, ahead of the generated ones
for value in SCALARS + ARRAYS:
    test_each_argument_answers_a_hostile_value_or_names_a_refusal = example(value=value)(
        test_each_argument_answers_a_hostile_value_or_names_a_refusal)


@pytest.mark.parametrize("entry", CALLS)
def test_each_entry_answers_its_valid_arguments(entry):
    call, valid, _ = CALLS[entry]
    call(**valid)


# a valid record of each input kind, every numeric field set
RECORDS = [LB, InterferenceModel((1.0, 8.0, 15.0), (0.2, 0.4)), SVC, GP,
           dataclasses.replace(SCN, region_km=(0.1, 0.5)), _query(), SPEC, ROAD,
           bundled_scenario("fig6_mixed")]


def _numpy_forms(value):
    """numpy forms of a valid field value, each with the value the record must store for it."""
    if isinstance(value, float):
        return [(np.float32(value), float(np.float32(value)))]
    if isinstance(value, int):
        return [(np.int64(value), value), (np.uint64(value), value)]
    if isinstance(value, tuple):
        single = np.asarray(value, dtype=np.float32)
        return [(single, tuple(float(x) for x in single))]
    if isinstance(value, np.ndarray):
        given = value.astype(np.float32 if value.dtype.kind == "f" else np.uint64)
        return [(given, given.astype(value.dtype))]
    return []


@pytest.mark.parametrize("record, name", [
    pytest.param(record, field.name, id=f"{type(record).__name__}-{field.name}")
    for record in RECORDS for field in dataclasses.fields(record)
    if _numpy_forms(getattr(record, field.name))])
def test_each_numeric_field_stores_what_its_reader_returns(record, name):
    for given, stored in _numpy_forms(getattr(record, name)):
        kept = getattr(dataclasses.replace(record, **{name: given}), name)
        assert type(kept) is type(stored)
        if isinstance(stored, np.ndarray):
            assert kept.dtype == stored.dtype and not kept.flags.writeable
            assert np.array_equal(kept, stored)
        else:
            assert kept == stored
        if isinstance(stored, tuple):
            assert all(type(x) is float for x in kept)


def test_a_float32_bandwidth_gives_the_demand_steps_of_its_float():
    cell = bundled_scenario("fig6_mixed").to_scenario()
    steps = [dataclasses.replace(cell, link_budget=dataclasses.replace(
        cell.link_budget, prb_bandwidth_hz=bandwidth)).demand_steps
        for bandwidth in (np.float32(180e3), float(np.float32(180e3)))]
    for given, exact in zip(*steps):
        assert given.bounds.tobytes() == exact.bounds.tobytes()
        assert given.values.tobytes() == exact.values.tobytes()


# each was refused in the Scenario's units or as an infinite user intensity
@pytest.mark.parametrize("call, message", [
    (lambda: dataclasses.replace(DOC, prb_bandwidth_khz=1e306),
     "prb_bandwidth_khz 1e+306 is beyond double precision in Hz"),
    (lambda: dataclasses.replace(DOC, rate_kbps=1e306),
     "rate_kbps 1e+306 is beyond double precision in bit/s"),
    (lambda: dataclasses.replace(DOC, throughput_mbps=1e303),
     "throughput_mbps 1e+303 is beyond double precision in bit/s"),
    (lambda: dataclasses.replace(DOC, road_intensity_per_km=1e-320),
     "road_intensity_per_km 1e-320 and outdoor_fraction 0.75 is beyond double precision"),
    (lambda: dataclasses.replace(DOC, rate_kbps=1e-320),
     "at rate_kbps 1e-320 over"),
    (lambda: intensities_from_throughput(25e6, 1e-320, 0.7, 2.0, 0.0),
     "user intensity of throughput_bps 2.5e+07 at rate_bps 9.99989e-321 over cell_radius_km "
     "0.7, road_intensity 2 and outdoor_fraction 0 is beyond double precision"),
])
def test_a_value_beyond_double_precision_is_named_as_given(call, message):
    with pytest.raises(PrbdimError) as exc:
        call()
    assert message in str(exc.value) and exc.value.exit_code == 3
