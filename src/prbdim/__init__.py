"""prbdim: OFDM radio resource dimensioning against a congestion target.

Users are placed by a Cox process on a Poisson line process of roads
(outdoor) and a spatial Poisson point process (indoor); the total PRB
demand is a compound Poisson sum whose tail - the congestion probability -
is computed analytically and inverted to dimension the cell.  Exports load
lazily (PEP 562): a name's submodule is imported when it is first used.
"""

__version__ = "0.1.0"

# the command-line parser's choices and defaults, kept out of the engine
REGION_NAMES = ("center", "middle", "edge")
DEFAULT_M_CEILING = 4096

_EXPORTS = {
    "compound": "CompoundSpec bell_complete bell_determinant ccdf_bell ccdf_bell_literal "
                "ccdf_integral pmf",
    "congestion": "CongestionCurve averaged_congestion conditional_congestion expected_load",
    "dimension": "DimensionQuery DimensionReport dimension_prbs dimension_scenario sweep",
    "errors": "AccuracyError CeilingError DomainError InfeasibleSplitError RangeError "
              "ScenarioError",
    "geometry": "GeometryParams RoadSet expected_roads mean_users sample_road_set",
    "linkmodel": "InterferenceModel LinkBudget Scenario Service StepFunction "
                 "intensities_from_throughput max_prbs_per_user ppp_equivalent prbs_required "
                 "ring_radii sinr_at throughput_at",
    "scenario_io": "ScenarioFile bundled_scenario bundled_scenario_path dump_scenario "
                   "load_scenario parse_scenario",
    "simulate": "EmpiricalCurve empirical_ccdf",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    from importlib import import_module

    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    globals()[name] = value = value if name == module else getattr(value, name)
    return value
