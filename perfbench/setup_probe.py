"""Fresh-process set-up of one workload: import the CLI, load the
workload's scenario and build its outdoor and indoor demand profiles.

Usage: python perfbench/setup_probe.py [SCENARIO_PATH]

The benchmark times this process from fork to exit as ``setup_s``.
"""

import sys

import prbdim.cli  # noqa: F401  (the import every command pays)
from prbdim.linkmodel import INDOOR, OUTDOOR, ring_radii
from prbdim.scenario_io import load_scenario

if len(sys.argv) > 1:
    doc = load_scenario(sys.argv[1])
    doc.to_scenario()
    for environment in (OUTDOOR, INDOOR):
        ring_radii(doc.link_budget(), doc.interference(), doc.service(), environment)
