"""Scenario files: strict INI-style documents with unit-suffixed keys.

A document either states the user intensities directly or derives them
from a forecast cell throughput and an outdoor traffic fraction.  Parsing
rejects unknown keys and missing keys that have no documented default;
:func:`dump_scenario` writes the canonical form (every key explicit, fixed
order), which round-trips byte-identically.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_M_CEILING, REGION_NAMES
from .congestion import Scenario
from .errors import ScenarioError
from .geometry import GeometryParams, PAPER, SAMPLERS
from .linkmodel import InterferenceModel, LinkBudget, Service

if TYPE_CHECKING:
    from .dimension import DimensionQuery

_SCHEMA = {
    "cell": ("tx_power_dbm", "noise_power_dbm", "prop_const_db",
             "prop_const_indoor_db", "path_loss_exp", "tx_antennas",
             "rx_antennas", "prb_bandwidth_khz", "cell_radius_km",
             "max_user_prbs"),
    "service": ("rate_kbps",),
    "interference": ("margins_db", "breakpoints_km"),
    "geometry": ("road_intensity_per_km", "user_intensity_per_km",
                 "indoor_intensity_per_km2", "throughput_mbps",
                 "outdoor_fraction"),
    "monte_carlo": ("realizations", "seed", "sampler"),
}

# Keys a document may omit (value below) -- everything else is required.
_DEFAULTS = {
    ("cell", "max_user_prbs"): "256",
    ("interference", "margins_db"): "0.0",
    ("interference", "breakpoints_km"): "",
    ("monte_carlo", "realizations"): "500",
    ("monte_carlo", "seed"): "0",
    ("monte_carlo", "sampler"): PAPER,
}


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario document, one field per key."""

    tx_power_dbm: float
    noise_power_dbm: float
    prop_const_db: float
    prop_const_indoor_db: float
    path_loss_exp: float
    tx_antennas: int
    rx_antennas: int
    prb_bandwidth_khz: float
    cell_radius_km: float
    max_user_prbs: int
    rate_kbps: float
    margins_db: tuple[float, ...]
    breakpoints_km: tuple[float, ...]
    road_intensity_per_km: float
    user_intensity_per_km: float | None
    indoor_intensity_per_km2: float | None
    throughput_mbps: float | None
    outdoor_fraction: float | None
    realizations: int
    seed: int
    sampler: str

    def link_budget(self) -> LinkBudget:
        return LinkBudget(
            tx_power_dbm=self.tx_power_dbm,
            noise_power_dbm=self.noise_power_dbm,
            prop_const_db=self.prop_const_db,
            prop_const_indoor_db=self.prop_const_indoor_db,
            path_loss_exp=self.path_loss_exp,
            tx_antennas=self.tx_antennas,
            rx_antennas=self.rx_antennas,
            prb_bandwidth_hz=self.prb_bandwidth_khz * 1e3,
            cell_radius_km=self.cell_radius_km,
            max_user_prbs=self.max_user_prbs)

    def interference(self, noise_limited: bool = False) -> InterferenceModel:
        if noise_limited:
            return InterferenceModel.noise_limited()
        return InterferenceModel(margins_db=self.margins_db,
                                 breakpoints_km=self.breakpoints_km)

    def service(self) -> Service:
        return Service(rate_bps=self.rate_kbps * 1e3)

    def intensities(self) -> tuple[float, float]:
        """(delta, kappa), derived from throughput when stated that way."""
        if self.throughput_mbps is not None:
            from .dimension import intensities_from_throughput
            return intensities_from_throughput(
                self.throughput_mbps * 1e6, self.rate_kbps * 1e3,
                self.cell_radius_km, self.road_intensity_per_km,
                self.outdoor_fraction)
        return self.user_intensity_per_km or 0.0, self.indoor_intensity_per_km2 or 0.0

    def region_bounds(self, name: str | None) -> tuple[float, float] | None:
        """Annulus of a named cell region; thirds of R unless the
        interference model supplies its own two breakpoints."""
        if name is None:
            return None
        if name not in REGION_NAMES:
            raise ScenarioError(f"unknown region {name!r}; expected one of {REGION_NAMES}")
        if len(self.breakpoints_km) == 2:
            c1, c2 = self.breakpoints_km
        else:
            c1, c2 = self.cell_radius_km / 3.0, 2.0 * self.cell_radius_km / 3.0
        bounds = {"center": (0.0, c1), "middle": (c1, c2),
                  "edge": (c2, self.cell_radius_km)}
        return bounds[name]

    def to_scenario(self, noise_limited: bool = False,
                    region: str | None = None) -> Scenario:
        delta, kappa = self.intensities()
        gp = GeometryParams(road_intensity=self.road_intensity_per_km,
                            user_intensity_linear=delta,
                            user_intensity_area=kappa)
        return Scenario(link_budget=self.link_budget(),
                        interference=self.interference(noise_limited),
                        service=self.service(), geometry=gp,
                        sampler=self.sampler, seed=self.seed,
                        mc_realizations=self.realizations,
                        region_km=self.region_bounds(region))

    def to_query(self, target: float, throughput_bps: float | None = None,
                 outdoor_fraction: float | None = None,
                 m_ceiling: int = DEFAULT_M_CEILING,
                 noise_limited: bool = False,
                 region: str | None = None) -> DimensionQuery:
        if throughput_bps is None:
            if self.throughput_mbps is None:
                raise ScenarioError(
                    "no forecast throughput: give one on the command line or "
                    "state throughput_mbps in [geometry]")
            throughput_bps = self.throughput_mbps * 1e6
        if outdoor_fraction is None:
            outdoor_fraction = self.outdoor_fraction
        if outdoor_fraction is None:
            raise ScenarioError("no outdoor_fraction given for a dimensioning query")
        from .dimension import DimensionQuery
        return DimensionQuery(
            scenario=self.to_scenario(noise_limited, region), target_congestion=target,
            throughput_bps=throughput_bps, outdoor_fraction=outdoor_fraction,
            m_ceiling=m_ceiling)

    def with_overrides(self, seed: int | None = None,
                       realizations: int | None = None) -> "ScenarioFile":
        out = self
        if seed is not None:
            out = replace(out, seed=seed)
        if realizations is not None:
            out = replace(out, realizations=realizations)
        return out


def _number(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"[{section}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ScenarioError(f"[{section}] {key} must be finite")
    return value


def _integer(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"[{section}] {key} = {raw!r} is not an integer") from None


def _number_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_number(section, key, part.strip()) for part in raw.split(","))


def parse_scenario(text: str, name: str = "<scenario>") -> ScenarioFile:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ScenarioError(f"{name}: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ScenarioError(f"{name}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ScenarioError(f"{name}: unknown key {key!r} in [{section}]")

    def fetch(section: str, key: str, optional: bool = False) -> str | None:
        if parser.has_option(section, key):
            return parser.get(section, key)
        if (section, key) in _DEFAULTS:
            return _DEFAULTS[section, key]
        if optional:
            return None
        raise ScenarioError(f"{name}: missing required key {key!r} in [{section}]")

    margins = _number_list("interference", "margins_db",
                           fetch("interference", "margins_db"))
    breakpoints = _number_list("interference", "breakpoints_km",
                               fetch("interference", "breakpoints_km"))
    radius = _number("cell", "cell_radius_km", fetch("cell", "cell_radius_km"))
    if not breakpoints and len(margins) == 3:
        breakpoints = (radius / 3.0, 2.0 * radius / 3.0)
    if len(margins) != len(breakpoints) + 1:
        raise ScenarioError(
            f"{name}: {len(margins)} margins need {len(margins) - 1} breakpoints")

    explicit = [k for k in ("user_intensity_per_km", "indoor_intensity_per_km2")
                if parser.has_option("geometry", k)]
    derived = [k for k in ("throughput_mbps", "outdoor_fraction")
               if parser.has_option("geometry", k)]
    if explicit and derived:
        raise ScenarioError(
            f"{name}: [geometry] mixes explicit intensities with a throughput forecast")
    if not explicit and len(derived) != 2:
        raise ScenarioError(
            f"{name}: [geometry] needs explicit intensities or both "
            "throughput_mbps and outdoor_fraction")

    def opt_number(section: str, key: str) -> float | None:
        raw = fetch(section, key, optional=True)
        return None if raw is None else _number(section, key, raw)

    def intensity(key: str) -> float | None:
        # explicit style: an omitted intensity means zero, not "unset"
        if derived:
            return None
        raw = fetch("geometry", key, optional=True)
        return 0.0 if raw is None else _number("geometry", key, raw)

    throughput = opt_number("geometry", "throughput_mbps")
    if throughput is not None and throughput <= 0:
        raise ScenarioError(f"{name}: [geometry] throughput_mbps = {throughput:g} Mbit/s "
                            "must be positive")
    sampler = fetch("monte_carlo", "sampler")
    if sampler not in SAMPLERS:
        raise ScenarioError(f"{name}: unknown sampler {sampler!r}")

    doc = ScenarioFile(
        tx_power_dbm=_number("cell", "tx_power_dbm", fetch("cell", "tx_power_dbm")),
        noise_power_dbm=_number("cell", "noise_power_dbm", fetch("cell", "noise_power_dbm")),
        prop_const_db=_number("cell", "prop_const_db", fetch("cell", "prop_const_db")),
        prop_const_indoor_db=_number("cell", "prop_const_indoor_db",
                                     fetch("cell", "prop_const_indoor_db")),
        path_loss_exp=_number("cell", "path_loss_exp", fetch("cell", "path_loss_exp")),
        tx_antennas=_integer("cell", "tx_antennas", fetch("cell", "tx_antennas")),
        rx_antennas=_integer("cell", "rx_antennas", fetch("cell", "rx_antennas")),
        prb_bandwidth_khz=_number("cell", "prb_bandwidth_khz",
                                  fetch("cell", "prb_bandwidth_khz")),
        cell_radius_km=radius,
        max_user_prbs=_integer("cell", "max_user_prbs", fetch("cell", "max_user_prbs")),
        rate_kbps=_number("service", "rate_kbps", fetch("service", "rate_kbps")),
        margins_db=margins,
        breakpoints_km=breakpoints,
        road_intensity_per_km=_number("geometry", "road_intensity_per_km",
                                      fetch("geometry", "road_intensity_per_km")),
        user_intensity_per_km=intensity("user_intensity_per_km"),
        indoor_intensity_per_km2=intensity("indoor_intensity_per_km2"),
        throughput_mbps=throughput,
        outdoor_fraction=opt_number("geometry", "outdoor_fraction"),
        realizations=_integer("monte_carlo", "realizations",
                              fetch("monte_carlo", "realizations")),
        seed=_integer("monte_carlo", "seed", fetch("monte_carlo", "seed")),
        sampler=sampler,
    )
    try:
        doc.to_scenario()
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from None
    return doc


def load_scenario(path) -> ScenarioFile:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    return parse_scenario(text, name=str(path))


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'fig2_tau30')."""
    path = Path(__file__).parent / "scenarios" / f"{name}.scenario"
    if not path.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return path


def bundled_scenario(name: str) -> ScenarioFile:
    return load_scenario(bundled_scenario_path(name))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_scenario(doc: ScenarioFile) -> str:
    """Canonical text form; every key explicit, stable ordering."""
    out = io.StringIO()
    out.write("[cell]\n")
    for key in _SCHEMA["cell"]:
        out.write(f"{key} = {_fmt(getattr(doc, key))}\n")
    out.write("\n[service]\n")
    out.write(f"rate_kbps = {_fmt(doc.rate_kbps)}\n")
    out.write("\n[interference]\n")
    out.write(f"margins_db = {', '.join(repr(m) for m in doc.margins_db)}\n")
    out.write(f"breakpoints_km = {', '.join(repr(b) for b in doc.breakpoints_km)}\n")
    out.write("\n[geometry]\n")
    out.write(f"road_intensity_per_km = {_fmt(doc.road_intensity_per_km)}\n")
    if doc.throughput_mbps is not None:
        out.write(f"throughput_mbps = {_fmt(doc.throughput_mbps)}\n")
        out.write(f"outdoor_fraction = {_fmt(doc.outdoor_fraction)}\n")
    else:
        out.write(f"user_intensity_per_km = {_fmt(doc.user_intensity_per_km or 0.0)}\n")
        out.write(f"indoor_intensity_per_km2 = {_fmt(doc.indoor_intensity_per_km2 or 0.0)}\n")
    out.write("\n[monte_carlo]\n")
    out.write(f"realizations = {doc.realizations}\n")
    out.write(f"seed = {doc.seed}\n")
    out.write(f"sampler = {doc.sampler}\n")
    return out.getvalue()
