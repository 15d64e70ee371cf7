"""prbdim: OFDM radio resource dimensioning against a congestion target.

Users are placed by a Cox process on a Poisson line process of roads
(outdoor) and a spatial Poisson point process (indoor); the total PRB
demand is a compound Poisson sum whose tail - the congestion probability -
is computed analytically and inverted to dimension the cell.
"""

__version__ = "0.1.0"

from .compound import (CompoundSpec, bell_complete, bell_determinant, ccdf_bell,
                       ccdf_bell_literal, ccdf_integral, pmf)
from .congestion import (CongestionCurve, Scenario, averaged_congestion,
                         conditional_congestion, expected_load, ppp_equivalent)
from .dimension import (DimensionQuery, DimensionReport, SweepPoint,
                        dimension_prbs, dimension_scenario,
                        intensities_from_throughput, sweep)
from .errors import (AccuracyError, CeilingError, DomainError,
                     InfeasibleSplitError, RangeError, ScenarioError)
from .geometry import (GeometryParams, RoadSet, UserBlock, expected_roads,
                       mean_users, sample_road_set, sample_user_block)
from .linkmodel import (DemandProfile, InterferenceModel, LinkBudget, Service,
                        max_prbs_per_user, prbs_required, ring_radii, sinr_at,
                        throughput_at)
from .scenario_io import (ScenarioFile, bundled_scenario, bundled_scenario_path,
                          dump_scenario, load_scenario, parse_scenario)
from .simulate import EmpiricalCurve, empirical_ccdf

__all__ = [name for name in dir() if not name.startswith("_")]
