"""The readers of integer, real and array inputs: every count the pipeline
takes is read by `errors.read_count`, every scalar real input by
`errors.read_real` and every array input by `errors.read_array`, so each
entry refuses a bad value with the same text."""

import dataclasses
import math

import numpy as np
import pytest

from prbdim import (CompoundSpec, DimensionQuery, DomainError, InterferenceModel, RoadSet,
                    Service, StepFunction, averaged_congestion, ccdf_bell, ccdf_bell_literal,
                    ccdf_integral, conditional_congestion, dimension_prbs, dimension_scenario,
                    empirical_ccdf, sample_road_set, sinr_at, sweep)
from prbdim.errors import read_array, read_count, read_real, read_si
from prbdim.linkmodel import intensities_from_throughput
from prbdim.scenario_io import bundled_scenario
from prbdim.simulate import MIN_REPLICATIONS, gamma_samples


@pytest.fixture(scope="module")
def fig4():
    return bundled_scenario("fig4").to_scenario()


# each count entry: (the name its refusal gives, the least count it
# accepts, a call that passes the value to it on a scenario)
COUNT_ENTRIES = {
    "LinkBudget.tx_antennas":
        ("tx_antennas", 1, lambda scn, n: dataclasses.replace(scn.link_budget, tx_antennas=n)),
    "LinkBudget.rx_antennas":
        ("rx_antennas", 1, lambda scn, n: dataclasses.replace(scn.link_budget, rx_antennas=n)),
    "LinkBudget.max_user_prbs":
        ("max_user_prbs", 1, lambda scn, n: dataclasses.replace(scn.link_budget, max_user_prbs=n)),
    "Scenario.seed": ("seed", 0, lambda scn, n: dataclasses.replace(scn, seed=n)),
    "Scenario.mc_realizations":
        ("realizations", 1, lambda scn, n: dataclasses.replace(scn, mc_realizations=n)),
    "DimensionQuery.m_ceiling":
        ("m_ceiling", 1, lambda scn, n: DimensionQuery(scn, 0.05, 30e6, m_ceiling=n)),
    "dimension_scenario.m_ceiling":
        ("m_ceiling", 1, lambda scn, n: dimension_scenario(scn, 0.05, n)),
    "gamma_samples.replications": ("replications", 0, gamma_samples),
    "empirical_ccdf.replications":
        ("replications", MIN_REPLICATIONS, lambda scn, n: empirical_ccdf(scn, None, n)),
    # a bool seed was read as 0 or 1, and a float seed or count failed inside numpy
    "sample_road_set.seed":
        ("seed", 0, lambda scn, n: sample_road_set(scn.geometry, 0.7, "paper", n, 2)),
    "sample_road_set.count":
        ("count", 0, lambda scn, n: sample_road_set(scn.geometry, 0.7, "paper", 0, n)),
}


# a bool, fractional or whole-float seed or realization count once built a
# Scenario, and gamma_samples failed inside numpy on any count but an int of
# at least 0
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
@pytest.mark.parametrize("value", [True, 2.5, 2.0, "least - 1"])
def test_every_count_entry_refuses_with_the_readers_text(fig4, entry, value):
    name, least, call = COUNT_ENTRIES[entry]
    if value == "least - 1":
        value = least - 1
        bound = "a non-negative integer" if least == 0 else f"at least {least}"
        message = f"{name} {value} must be {bound}"
    else:
        message = f"{name} {value!r} must be an integer"
    with pytest.raises(DomainError) as exc:
        call(fig4, value)
    assert str(exc.value) == message


@pytest.mark.parametrize("replications, message", [
    (-5, "replications -5 must be a non-negative integer"),
    (150.5, "replications 150.5 must be an integer")])
def test_gamma_samples_names_a_bad_count(fig4, replications, message):
    with pytest.raises(DomainError) as exc:
        gamma_samples(fig4, replications)
    assert str(exc.value) == message


def test_gamma_samples_of_no_replications_are_empty(fig4):
    gammas, outdoor, indoor = gamma_samples(fig4, 0)
    assert gammas.size == outdoor.size == indoor.size == 0


def test_read_count_returns_a_plain_int():
    n = read_count(np.int64(7), "n", 1)
    assert n == 7 and type(n) is int
    assert read_count(0, "n", 0) == 0


def test_averaged_congestion_refuses_a_two_dimensional_threshold_list(fig4):
    # it once returned a 2 x 2 curve, where empirical_ccdf refused the list
    with pytest.raises(DomainError) as exc:
        averaged_congestion(dataclasses.replace(fig4, mc_realizations=3), [[1, 2], [3, 4]])
    assert str(exc.value) == "thresholds must be one-dimensional, not of shape (2, 2)"


def _link_budget_field(name):
    return lambda scn, x: dataclasses.replace(scn.link_budget, **{name: x})


def _intensity(name):
    return lambda scn, x: dataclasses.replace(scn.geometry, **{name: x})


# a valid forecast for intensities_from_throughput
FORECAST = {"throughput_bps": 30e6, "rate_bps": 5e5, "cell_radius_km": 0.7,
            "road_intensity": 9.0, "outdoor_fraction": 0.5}


# each scalar real entry: (the name its refusal gives, the sign it requires,
# a call that passes the value to it on a scenario)
REAL_ENTRIES = {
    **{f"LinkBudget.{name}": (name, "finite", _link_budget_field(name))
       for name in ("tx_power_dbm", "noise_power_dbm", "prop_const_db",
                    "prop_const_indoor_db", "path_loss_exp")},
    **{f"LinkBudget.{name}": (name, "positive", _link_budget_field(name))
       for name in ("prb_bandwidth_hz", "cell_radius_km")},
    "InterferenceModel.margins_db":
        ("margins_db", "nonnegative", lambda scn, x: InterferenceModel(margins_db=(x,))),
    "InterferenceModel.breakpoints_km":
        ("breakpoints_km", "positive",
         lambda scn, x: InterferenceModel(margins_db=(0.0, 0.0), breakpoints_km=(x,))),
    "Service.rate_bps": ("rate_bps", "positive", lambda scn, x: Service(rate_bps=x)),
    **{f"GeometryParams.{name}": (name, "nonnegative", _intensity(name))
       for name in ("road_intensity", "user_intensity_linear", "user_intensity_area")},
    "sample_road_set.cell_radius_km":
        ("cell_radius_km", "positive",
         lambda scn, x: sample_road_set(scn.geometry, x, "paper", 0, 2)),
    "DimensionQuery.throughput_bps":
        ("throughput_bps", "positive", lambda scn, x: DimensionQuery(scn, 0.05, x)),
    "intensities_from_throughput.throughput_bps":
        ("throughput_bps", "positive",
         lambda scn, x: intensities_from_throughput(x, 5e5, 0.7, 9.0, 0.5)),
    # True was read as 1.0: all traffic outdoors (223 PRBs on fig3)
    "intensities_from_throughput.outdoor_fraction":
        ("outdoor_fraction", "nonnegative",
         lambda scn, x: intensities_from_throughput(30e6, 5e5, 0.7, 9.0, x)),
    "ScenarioFile.to_query.outdoor_fraction":
        ("outdoor_fraction", "nonnegative", lambda scn, x: dimension_prbs(
            bundled_scenario("fig3").to_query(target=0.05, outdoor_fraction=x))),
    # the reader of --tau-mbps and --tau-grid-mbps
    "read_si.throughput_mbps":
        ("throughput_mbps", "positive", lambda scn, x: read_si(x, "throughput_mbps")),
    "ScenarioFile.throughput_mbps":
        ("throughput_mbps", "positive", lambda scn, x: dataclasses.replace(
            bundled_scenario("fig3"), throughput_mbps=x).to_scenario()),
    # a rate or radius of 0 divided by zero; a string one or road intensity
    # failed with a TypeError
    **{f"intensities_from_throughput.{name}": (name, sign, lambda scn, x, name=name: (
        intensities_from_throughput(**{**FORECAST, name: x})))
       for name, sign in (("rate_bps", "positive"), ("cell_radius_km", "positive"),
                          ("road_intensity", "nonnegative"))},
    # a string distance or target failed with a TypeError
    "sinr_at.x_km": ("x_km", "finite", lambda scn, x: sinr_at(
        scn.link_budget, scn.interference, x, "outdoor")),
    "dimension_scenario.target": ("target congestion", "finite",
                                  lambda scn, x: dimension_scenario(scn, x)),
    "DimensionQuery.target_congestion": ("target congestion", "finite",
                                         lambda scn, x: DimensionQuery(scn, x, 30e6)),
    "StepFunction.span": ("span", "positive", lambda scn, x: StepFunction([], [1], x)),
}
# a value of the wrong sign for each sign a real entry requires
WRONG_SIGN = {"finite": (), "nonnegative": (-0.5,), "positive": (0.0,)}


# an infinite or NaN bandwidth, cell radius, margin or breakpoint was once
# accepted and failed later, inside numpy or with another input's text, or
# (an infinite bandwidth) gave an answer
@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (_, sign, _) in REAL_ENTRIES.items()
    for value in (math.nan, math.inf, -math.inf, True, *WRONG_SIGN[sign])])
def test_every_real_entry_refuses_with_the_readers_text(fig4, entry, value):
    name, sign, call = REAL_ENTRIES[entry]
    if value is True:
        message = f"{name} True must be a number"
    else:
        bound = "finite" if sign == "finite" else f"{sign} and finite"
        message = f"{name} {value:g} must be {bound}"
    with pytest.raises(DomainError) as exc:
        call(fig4, value)
    assert str(exc.value) == message


def test_read_real_returns_a_plain_float():
    for x in (np.float32(0.5), np.int64(3), 2):
        v = read_real(x, "x", "positive")
        assert v == x and type(v) is float
    assert read_real(0.0, "x", "nonnegative") == 0.0
    assert read_real(-7.5, "x") == -7.5
    with pytest.raises(DomainError) as exc:
        read_real("1.5", "x")
    assert str(exc.value) == "x '1.5' must be a number"


def test_read_array_returns_a_read_only_copy_of_its_type():
    given = np.array([1.0, 2.0])
    a = read_array(given, "a")
    assert a.dtype == np.float64 and not a.flags.writeable and not np.shares_memory(a, given)
    counts = read_array([2.0, 0], "counts", "nonnegative", integer=True)
    assert counts.dtype == np.int64 and counts.tolist() == [2, 0]
    # numpy reads a list mixing bools with numbers as numbers
    assert read_array([1, True], "a").tolist() == [1.0, 1.0]
    assert read_array([[1, 2]], "a", ndim=None).shape == (1, 2)
    # an integer beyond double range is read as an infinity, and refused
    with pytest.raises(DomainError) as exc:
        read_array([10 ** 400], "a")
    assert str(exc.value) == "a inf must be finite"
    with pytest.raises(DomainError) as exc:
        read_array([[1, 2], 3], "a")
    assert str(exc.value) == "a [[1, 2], 3] must be an array of numbers"


def _in_scenario(scn, **fields):
    return dataclasses.replace(scn, mc_realizations=3, **fields)


# each array entry: (the name its refusal gives, the sign it requires,
# whether its entries are whole numbers, and a call that passes it a list
# of entries on a scenario); None as the sign marks a threshold list, which
# refuses a wrong sign and an empty list with one text
ARRAY_ENTRIES = {
    "CompoundSpec.weights": ("weights", "nonnegative", False, lambda scn, x: CompoundSpec(x)),
    "RoadSet.counts": ("counts", "nonnegative", True,
                       lambda scn, x: RoadSet(counts=x, chord_distances=[0.1])),
    "RoadSet.chord_distances": ("chord_distances", "nonnegative", False,
                                lambda scn, x: RoadSet(counts=[1], chord_distances=x)),
    "StepFunction.bounds": ("bounds", "finite", False,
                            lambda scn, x: StepFunction(x, [1, 2], 1.0)),
    "StepFunction.values": ("values", "nonnegative", True,
                            lambda scn, x: StepFunction([], x, 1.0)),
    "InterferenceModel.margins_db": ("margins_db", "nonnegative", False,
                                     lambda scn, x: InterferenceModel(margins_db=x)),
    "InterferenceModel.breakpoints_km": (
        "breakpoints_km", "positive", False,
        lambda scn, x: InterferenceModel(margins_db=(0.0, 0.0), breakpoints_km=x)),
    "sweep.throughput_grid_bps": (
        "throughput_bps", "positive", False,
        lambda scn, x: sweep(DimensionQuery(_in_scenario(scn), 0.05, 30e6, 0.5),
                             throughput_grid_bps=x)),
    "sweep.road_intensity_grid": (
        "road_intensity", "nonnegative", False,
        lambda scn, x: sweep(DimensionQuery(_in_scenario(scn), 0.05, 30e6, 0.5),
                             road_intensity_grid=x)),
    "Scenario.region_km": ("region_km", "finite", False,
                           lambda scn, x: _in_scenario(scn, region_km=x + x)),
    **{f"{route.__name__}.m": ("thresholds", "nonnegative", True,
                               lambda scn, x, route=route: route(CompoundSpec([0.3, 0.2]), x))
       for route in (ccdf_bell, ccdf_bell_literal, ccdf_integral)},
    "conditional_congestion.m": (
        "thresholds", "nonnegative", True,
        lambda scn, x: conditional_congestion(scn, RoadSet(counts=[1], chord_distances=[0.2]), x)),
    "averaged_congestion.m_values": ("thresholds", None, True,
                                     lambda scn, x: averaged_congestion(_in_scenario(scn), x)),
    "empirical_ccdf.m_values": ("thresholds", None, True,
                                lambda scn, x: empirical_ccdf(scn, x, MIN_REPLICATIONS)),
}
# the tail routes take thresholds of any shape
ONE_DIMENSIONAL = {entry for entry in ARRAY_ENTRIES
                   if not entry.startswith(("ccdf_", "conditional_"))}


def _array_refusal(name, sign, integer, value):
    """The text an array entry refuses a one-entry list [value] with."""
    if isinstance(value, (bool, str)):
        return f"{name} {value!r} must be a number"
    if integer and not float(value).is_integer():
        return f"{name}: {value} is not a whole number"
    if integer:
        return f"{name} must be {sign or 'nonempty and nonnegative'}"
    bound = "finite" if sign == "finite" else f"{sign} and finite"
    return f"{name} {value:g} must be {bound}"


# each entry refuses a bool, a string, NaN, an infinity, a fraction where it
# takes whole numbers and a value of the wrong sign, naming the first bad
# entry; many were once read as other values (a bool as 0 or 1, a fractional
# road count as whole) or failed later, inside numpy or with a bare error
@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (_, sign, integer, _) in ARRAY_ENTRIES.items()
    for value in (True, "a", math.nan, math.inf, -math.inf,
                  *((1.5,) if integer else ()), *WRONG_SIGN[sign or "nonnegative"])])
def test_every_array_entry_refuses_with_the_readers_text(fig4, entry, value):
    name, sign, integer, call = ARRAY_ENTRIES[entry]
    with pytest.raises(DomainError) as exc:
        call(fig4, [value])
    assert str(exc.value) == _array_refusal(name, sign, integer, value)


@pytest.mark.parametrize("entry", sorted(ONE_DIMENSIONAL))
def test_every_one_dimensional_entry_refuses_a_matrix(fig4, entry):
    name, _, _, call = ARRAY_ENTRIES[entry]
    with pytest.raises(DomainError) as exc:
        call(fig4, [[1, 1]])
    shape = "(2, 2)" if entry == "Scenario.region_km" else "(1, 2)"
    assert str(exc.value) == f"{name} must be one-dimensional, not of shape {shape}"


# scalars where arrays belong: a string was a bare ValueError, a bool read as
# threshold 1, and a float margin list a TypeError
@pytest.mark.parametrize("call, message", [
    (lambda scn: CompoundSpec("abc"), "weights 'abc' must be a number"),
    (lambda scn: CompoundSpec(np.array([True, False])), "weights True must be a number"),
    (lambda scn: InterferenceModel(margins_db=3.0),
     "margins_db must be one-dimensional, not of shape ()"),
    (lambda scn: ccdf_bell(CompoundSpec([0.3]), True), "thresholds True must be a number"),
    (lambda scn: ccdf_bell(CompoundSpec([0.3]), "abc"), "thresholds 'abc' must be a number"),
    (lambda scn: averaged_congestion(scn, "abc"), "thresholds 'abc' must be a number"),
    (lambda scn: _in_scenario(scn, region_km=(0.1,)),
     "region_km (0.1,) must be a pair (lo, hi] inside (0, 0.7]"),
    (lambda scn: dimension_scenario(scn, "0.05"), "target congestion '0.05' must be a number"),
    (lambda scn: dimension_scenario(scn, np.array([0.05, 0.1])),
     "target congestion array([0.05, 0.1 ]) must be a number"),
    (lambda scn: sinr_at(scn.link_budget, scn.interference, "a", "outdoor"),
     "x_km 'a' must be a number"),
    (lambda scn: sample_road_set(scn.geometry, 0.7, "paper", True, 2),
     "seed True must be an integer"),
])
def test_a_scalar_or_string_in_place_of_an_array_is_named(fig4, call, message):
    with pytest.raises(DomainError) as exc:
        call(fig4)
    assert str(exc.value) == message


# a fractional road count was read as whole and answered; a NaN chord
# distance failed inside numpy's Poisson draw
def test_a_road_set_of_a_fractional_count_or_nan_distance_is_refused_before_use(fig4):
    with pytest.raises(DomainError) as exc:
        conditional_congestion(fig4, RoadSet(counts=[1.7], chord_distances=[0.1]), 3)
    assert str(exc.value) == "counts: 1.7 is not a whole number"
    with pytest.raises(DomainError) as exc:
        RoadSet(counts=[1], chord_distances=[math.nan])
    assert str(exc.value) == "chord_distances nan must be nonnegative and finite"
