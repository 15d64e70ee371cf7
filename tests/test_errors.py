"""The readers of integer and real inputs: every count the pipeline takes is
read by `errors.read_count`, every scalar real input by `errors.read_real`,
and every threshold list by `errors.read_threshold_list`, so each entry
refuses a bad value with the same text."""

import dataclasses
import math

import numpy as np
import pytest

from prbdim import (DimensionQuery, DomainError, InterferenceModel, Service,
                    averaged_congestion, dimension_prbs, dimension_scenario, empirical_ccdf,
                    sample_road_set)
from prbdim.cli import _bps
from prbdim.errors import read_count, read_real
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
    "cli._bps": ("throughput_mbps", "positive", lambda scn, x: _bps(x)),
    "ScenarioFile.throughput_mbps":
        ("throughput_mbps", "positive", lambda scn, x: dataclasses.replace(
            bundled_scenario("fig3"), throughput_mbps=x).to_scenario()),
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
