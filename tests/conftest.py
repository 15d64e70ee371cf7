import math

import numpy as np
import pytest

from prbdim import InterferenceModel, LinkBudget, Service


@pytest.fixture
def link_budget():
    """Urban macro cell: 60 dBm EIRP, 20 MHz noise floor, 2 spatial layers."""
    return LinkBudget(tx_power_dbm=60.0, noise_power_dbm=-93.0,
                      prop_const_db=130.0, prop_const_indoor_db=166.0,
                      path_loss_exp=3.5, tx_antennas=8, rx_antennas=2,
                      prb_bandwidth_hz=180e3, cell_radius_km=0.7,
                      max_user_prbs=256)


@pytest.fixture
def noise_limited():
    return InterferenceModel.noise_limited()


@pytest.fixture
def three_region():
    return InterferenceModel.three_region(1.0, 8.0, 15.0, 0.7)


@pytest.fixture
def service_500k():
    return Service(rate_bps=500e3)


def scalar_pmf(weights, k_max):
    """The plain scalar recursion k*p_k = sum_j j*w_j*p_{k-j} from p_0 =
    exp(-total weight), one row at a time and with no rescaling: the
    independent reference for the batched kernel, at total weights below
    about 708 where p_0 is a normal double."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    jw = np.arange(1, n + 1) * w
    p = np.zeros(k_max + 1)
    p[0] = math.exp(-float(w.sum()))
    for k in range(1, k_max + 1):
        j = min(k, n)
        # sum over j of j*w_j*p_{k-j}
        p[k] = float(jw[:j] @ p[k - 1 :: -1][:j]) / k
    return p


def scalar_ccdf(weights, m_values):
    """P(Lambda >= m) for each threshold m, from scalar_pmf."""
    m = np.asarray(m_values, dtype=np.int64)
    cum = np.concatenate(([0.0], np.cumsum(scalar_pmf(weights, max(int(m.max()) - 1, 0)))))
    return np.maximum(1.0 - cum[m], 0.0)
