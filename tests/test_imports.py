"""The import boundary: a command loads only the engine modules it runs,
and the package's exports resolve lazily to the same objects as before.
Each check runs in a fresh interpreter, whose sys.modules starts empty."""

import json
import os
import subprocess
import sys
from pathlib import Path

import prbdim
from prbdim.scenario_io import bundled_scenario_path

ENGINE = ["congestion", "dimension", "geometry", "linkmodel", "scenario_io", "simulate"]

# The package's exports, by the submodule that defines them: as the eager
# package imported them, less the cell (`Scenario`, `ppp_equivalent`) and the
# forecast conversion (`intensities_from_throughput`), which moved below both
# evaluation paths into `linkmodel`, and less `SweepPoint`: a sweep point is
# its `DimensionReport` or the error raised for it.
EXPORTS = {
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
OWNER = {name: module for module, names in EXPORTS.items() for name in names.split()}

# `prbdim.__all__` of the eager package, in its order (that of dir()), less
# the per-user drawer `sample_user_block` and its `UserBlock`, which the
# Monte-Carlo oracle no longer uses, less `SweepPoint`, and with
# `StepFunction`, the type that `ring_radii` returns, in place of the
# `DemandProfile` that it replaced.
EAGER_ALL = [
    "AccuracyError", "CeilingError", "CompoundSpec", "CongestionCurve",
    "DimensionQuery", "DimensionReport", "DomainError", "EmpiricalCurve", "GeometryParams",
    "InfeasibleSplitError", "InterferenceModel", "LinkBudget", "RangeError", "RoadSet",
    "Scenario", "ScenarioError", "ScenarioFile", "Service", "StepFunction",
    "averaged_congestion", "bell_complete", "bell_determinant", "bundled_scenario",
    "bundled_scenario_path", "ccdf_bell", "ccdf_bell_literal", "ccdf_integral", "compound",
    "conditional_congestion", "congestion", "dimension", "dimension_prbs",
    "dimension_scenario", "dump_scenario", "empirical_ccdf", "errors", "expected_load",
    "expected_roads", "geometry", "intensities_from_throughput", "linkmodel", "load_scenario",
    "max_prbs_per_user", "mean_users", "parse_scenario", "pmf", "ppp_equivalent",
    "prbs_required", "ring_radii", "sample_road_set", "scenario_io",
    "simulate", "sinr_at", "sweep", "throughput_at",
]


def fresh(code: str):
    """Run `code` in a new interpreter that imports this tree's prbdim and
    return what it printed as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(prbdim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m.startswith('prbdim.'))))")


def test_importing_the_cli_loads_no_engine_module():
    loaded = fresh(f"import prbdim.cli; {LOADED}")
    assert not {f"prbdim.{m}" for m in ENGINE} & set(loaded)
    assert "prbdim.compound" not in loaded and "prbdim.validate" not in loaded


def test_identities_suite_loads_only_compound():
    # its draws come from the stdlib generator: numpy.random costs more to
    # import than the suite takes to run (numpy before 2.0 imports it itself)
    loaded, random_before, random_after = fresh(
        "import json, sys, prbdim.cli; before = 'numpy.random' in sys.modules; "
        "assert prbdim.cli.main(['validate', '--suite', 'identities']) == 0; "
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('prbdim.')), "
        "before, 'numpy.random' in sys.modules]))")
    assert not {f"prbdim.{m}" for m in ENGINE} & set(loaded)
    assert "prbdim.compound" in loaded
    assert random_after == random_before


def test_dimension_loads_neither_the_oracle_nor_the_suites():
    scenario = bundled_scenario_path("fig6_mixed")
    loaded = fresh("import prbdim.cli; "
                   f"assert prbdim.cli.main(['dimension', '--scenario', {str(scenario)!r}, "
                   "'--target', '0.05', '--realizations', '50']) == 0; " + LOADED)
    assert "prbdim.dimension" in loaded
    assert "prbdim.simulate" not in loaded and "prbdim.validate" not in loaded


# The analytic path: the Monte-Carlo oracle and the scenario format load none
# of it, so the oracle stays a check independent of the analytic engine.
ANALYTIC = {"prbdim.compound", "prbdim.congestion", "prbdim.dimension"}


def test_scenario_loading_loads_no_analytic_module():
    # fig6_mixed states a throughput forecast, fig4 explicit intensities; the
    # cell imports `geometry`, whose streams import numpy.random only to draw
    paths = [str(bundled_scenario_path(name)) for name in ("fig6_mixed", "fig4")]
    loaded, random_before, random_after = fresh(
        "import json, sys, numpy; before = 'numpy.random' in sys.modules\n"
        "from prbdim.scenario_io import load_scenario\n"
        f"for path in {paths!r}:\n"
        "    load_scenario(path).to_scenario()\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('prbdim.')), "
        "before, 'numpy.random' in sys.modules]))")
    assert "prbdim.linkmodel" in loaded and "prbdim.geometry" in loaded
    assert not ANALYTIC & set(loaded)
    assert random_after == random_before


def test_the_monte_carlo_oracle_loads_no_analytic_module():
    scenario = str(bundled_scenario_path("fig4"))
    loaded = fresh("import prbdim.cli; "
                   f"assert prbdim.cli.main(['simulate', '--scenario', {scenario!r}, "
                   "'--replications', '200', '--out', '-']) == 0; " + LOADED)
    assert "prbdim.simulate" in loaded
    assert not ANALYTIC & set(loaded)


def test_all_is_the_eager_list_and_every_name_is_its_submodules_object():
    result = fresh(
        "import importlib, json, prbdim\n"
        f"owner = {OWNER!r}\n"
        "same = [name for name in prbdim.__all__ if getattr(prbdim, name) is (\n"
        "    getattr(importlib.import_module('prbdim.' + owner[name]), name)\n"
        "    if name in owner else importlib.import_module('prbdim.' + name))]\n"
        "print(json.dumps([prbdim.__all__, same]))")
    assert result[0] == EAGER_ALL
    assert result[1] == EAGER_ALL


def test_star_import_binds_every_name():
    missing = fresh("from prbdim import *\n"
                    "import json, prbdim\n"
                    "print(json.dumps([n for n in prbdim.__all__ if n not in globals()]))")
    assert missing == []


def test_unknown_attribute_raises_attribute_error():
    result = fresh("import json, prbdim\n"
                   "try:\n"
                   "    prbdim.no_such_name\n"
                   "except AttributeError as exc:\n"
                   "    print(json.dumps(str(exc)))")
    assert "no_such_name" in result
