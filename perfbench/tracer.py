"""Run the prbdim CLI with per-layer spans recorded from outside the package.

Usage: python perfbench/tracer.py TRACE_JSON <prbdim CLI arguments...>

The script imports ``prbdim.cli``, replaces each layer function with a
timing wrapper at the names its callers look up (``prbdim.congestion.pmf``,
not ``prbdim.compound.pmf`` alone), runs ``prbdim.cli.main`` and writes one
JSON record per command to TRACE_JSON when the command ends.  It writes
nothing to stdout or stderr itself, so the command's outputs are
byte-identical to an untraced ``python -m prbdim.cli`` run.

A name that a later refactor removes is skipped, and its layer is reported
as absent with zero calls.  Spans assume one thread: the benchmark leaves
``PRBDIM_THREADS`` unset.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
from time import perf_counter

_T_START = perf_counter()


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_pmf(tracer, args, kwargs, result):
    steps = int(_arg(args, kwargs, 1, "k_max")) + 1
    tracer.add("compound.pmf", "k_steps", steps)
    # k-steps are useful when they belong to the last doubling pass of
    # their dimensioning call; pmf calls outside dimensioning all are.
    owner = tracer.innermost("dimension.dimension_scenario")
    tracer.pmf_steps.append((owner, steps))


def _count_road_set(tracer, args, kwargs, result):
    tracer.add("congestion.road_set", "roads",
               int(_arg(args, kwargs, 0, "scn").mc_realizations))
    digest = hashlib.sha1()
    for road in result:
        digest.update(road.chord_distances.tobytes())
        digest.update(b"|")
    tracer.road_digests.append(digest.hexdigest())


def _count_fourier(tracer, args, kwargs, result):
    m = _arg(args, kwargs, 1, "m_values")
    tracer.add("compound.fourier", "thresholds", int(getattr(m, "size", 1)))


def _count_gamma(tracer, args, kwargs, result):
    tracer.add("simulate.gamma_samples", "replications",
               int(_arg(args, kwargs, 1, "replications")))


def _count_csv_bytes(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    if path != "-":
        with open(path, "rb") as fh:
            tracer.add("cli.write_csv", "bytes", len(fh.read()))


# layer -> (the names callers look it up by, optional work counter)
LAYERS = {
    "linkmodel.ring_radii": (["prbdim.congestion.ring_radii"], None),
    "scenario_io.load_scenario": (["prbdim.cli.load_scenario",
                                   "prbdim.scenario_io.load_scenario"], None),
    "congestion.road_set": (["prbdim.congestion.road_set",
                             "prbdim.dimension.road_set"], _count_road_set),
    "congestion.conditional_spec": (["prbdim.congestion.conditional_spec"], None),
    "congestion.conditional_curves": (["prbdim.congestion._conditional_curves",
                                       "prbdim.dimension._conditional_curves"], None),
    "compound.pmf": (["prbdim.congestion.pmf", "prbdim.compound.pmf",
                      "prbdim.validate.pmf"], _count_pmf),
    "dimension.dimension_scenario": (["prbdim.dimension.dimension_scenario"], None),
    "dimension.sweep": (["prbdim.cli.sweep"], None),
    "compound.fourier": (["prbdim.compound._ccdf_integral_batch",
                          "prbdim.validate._ccdf_integral_batch"], _count_fourier),
    "simulate.gamma_samples": (["prbdim.simulate.gamma_samples",
                                "prbdim.validate.gamma_samples"], _count_gamma),
    "geometry.rng_stream": (["prbdim.simulate.rng_stream"], None),
    "geometry.sample_roads": (["prbdim.simulate.sample_roads"], None),
    "geometry.sample_users": (["prbdim.simulate.sample_users"], None),
    "simulate.demand_of_drop": (["prbdim.simulate.demand_of_drop"], None),
    "validate.identities_suite": (["prbdim.validate.identities_suite"], None),
    "cli._auto_m_max": (["prbdim.cli._auto_m_max"], None),
    "cli.write_csv": (["prbdim.cli.write_csv"], _count_csv_bytes),
}

# Spans the tracer opens itself rather than by patching.
IMPORT_LAYER = "cli.import"


class Tracer:
    """Per-layer call counts, span time and self time, kept in memory."""

    def __init__(self):
        self.stats = {name: {"present": False, "calls": 0, "total_s": 0.0,
                             "self_s": 0.0} for name in [IMPORT_LAYER, *LAYERS]}
        self.stack = []        # open spans: [layer, serial, child seconds]
        self.serial = 0
        self.top_level_s = 0.0
        self.pmf_steps = []    # (dimension_scenario serial or None, k steps)
        self.road_digests = []

    def add(self, layer, key, amount):
        stat = self.stats[layer]
        stat[key] = stat.get(key, 0) + amount

    def innermost(self, layer):
        for name, serial, _ in reversed(self.stack):
            if name == layer:
                return serial
        return None

    def open(self, layer):
        self.serial += 1
        self.stack.append([layer, self.serial, 0.0])
        return perf_counter()

    def close(self, layer, t0):
        elapsed = perf_counter() - t0
        _, _, child_s = self.stack.pop()
        if self.stack:
            self.stack[-1][2] += elapsed
        else:
            self.top_level_s += elapsed
        stat = self.stats[layer]
        stat["calls"] += 1
        stat["total_s"] += elapsed
        stat["self_s"] += elapsed - child_s

    def wrap(self, layer, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(layer, t0)
            if count is not None:
                # A counter whose call signature moved must not fail the
                # command; the layer keeps its calls and times.
                try:
                    count(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.stats[layer]["count_error"] = True
            return result
        return traced

    def install(self):
        """Patch every lookup site that exists; leave missing ones absent."""
        for layer, (sites, count) in LAYERS.items():
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self.wrap(layer, fn, count))
                    self.stats[layer]["present"] = True

    def summary(self, in_process_s):
        useful = 0
        final = {}
        for owner, steps in self.pmf_steps:
            if owner is not None:
                final[owner] = max(final.get(owner, 0), steps)
        for owner, steps in self.pmf_steps:
            if owner is None or steps == final[owner]:
                useful += steps
        self.stats["compound.pmf"]["useful_steps"] = useful
        self.stats["congestion.road_set"]["distinct"] = len(set(self.road_digests))
        return {"in_process_s": in_process_s,
                "covered_s": self.top_level_s,
                "layers": self.stats}


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    t0 = tracer.open(IMPORT_LAYER)
    import prbdim.cli
    tracer.close(IMPORT_LAYER, t0)
    tracer.stats[IMPORT_LAYER]["present"] = True
    tracer.install()
    try:  # exceptions and argparse's SystemExit propagate as without tracing
        code = prbdim.cli.main(cli_args)
    finally:
        record = tracer.summary(perf_counter() - _T_START)
        record["prbdim_file"] = prbdim.cli.__file__
        with open(trace_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
