"""The readers of integer inputs: every count the pipeline takes is read by
`errors.read_count`, and every threshold list by `errors.read_threshold_list`,
so each entry refuses a bad value with the same text."""

import dataclasses

import numpy as np
import pytest

from prbdim import (DimensionQuery, DomainError, averaged_congestion, dimension_scenario,
                    empirical_ccdf)
from prbdim.errors import read_count
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
