"""Scenario files: strict INI-style documents with unit-suffixed keys.

A document either states the user intensities directly or derives them
from a forecast cell throughput and an outdoor traffic fraction.  One key
table, :data:`KEYS`, drives parsing (unknown keys and missing keys that
have no documented default are rejected) and :func:`dump_scenario`, which
writes the canonical form (every key that has a value, in table order)
that round-trips byte-identically.
"""

from __future__ import annotations

import configparser
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


def _text(section: str, key: str, raw: str) -> str:
    return raw


REQUIRED = object()

# Every key of the format, in canonical order: (section, key, kind, default),
# the default being the text an omitted key reads as, REQUIRED, or None for a
# key that may be absent.  ScenarioFile has one field per key, in this order.
KEYS = (
    ("cell", "tx_power_dbm", _number, REQUIRED),
    ("cell", "noise_power_dbm", _number, REQUIRED),
    ("cell", "prop_const_db", _number, REQUIRED),
    ("cell", "prop_const_indoor_db", _number, REQUIRED),
    ("cell", "path_loss_exp", _number, REQUIRED),
    ("cell", "tx_antennas", _integer, REQUIRED),
    ("cell", "rx_antennas", _integer, REQUIRED),
    ("cell", "prb_bandwidth_khz", _number, REQUIRED),
    ("cell", "cell_radius_km", _number, REQUIRED),
    ("cell", "max_user_prbs", _integer, "256"),
    ("service", "rate_kbps", _number, REQUIRED),
    ("interference", "margins_db", _number_list, "0.0"),
    ("interference", "breakpoints_km", _number_list, ""),
    ("geometry", "road_intensity_per_km", _number, REQUIRED),
    ("geometry", "user_intensity_per_km", _number, None),
    ("geometry", "indoor_intensity_per_km2", _number, None),
    ("geometry", "throughput_mbps", _number, None),
    ("geometry", "outdoor_fraction", _number, None),
    ("monte_carlo", "realizations", _integer, "500"),
    ("monte_carlo", "seed", _integer, "0"),
    ("monte_carlo", "sampler", _text, PAPER),
)

_EXPLICIT = ("user_intensity_per_km", "indoor_intensity_per_km2")
_DERIVED = ("throughput_mbps", "outdoor_fraction")


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
        cell = {key: getattr(self, key) for section, key, _, _ in KEYS if section == "cell"}
        cell["prb_bandwidth_hz"] = cell.pop("prb_bandwidth_khz") * 1e3
        return LinkBudget(**cell)

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


def parse_scenario(text: str, name: str = "<scenario>") -> ScenarioFile:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ScenarioError(f"{name}: {exc}") from None

    known = {(section, key) for section, key, _, _ in KEYS}
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ScenarioError(f"{name}: unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in known:
                raise ScenarioError(f"{name}: unknown key {key!r} in [{section}]")

    values = {}
    for section, key, kind, default in KEYS:
        raw = parser.get(section, key, fallback=default)
        if raw is REQUIRED:
            raise ScenarioError(f"{name}: missing required key {key!r} in [{section}]")
        values[key] = None if raw is None else kind(section, key, raw)

    margins, breakpoints = values["margins_db"], values["breakpoints_km"]
    if not breakpoints and len(margins) == 3:
        radius = values["cell_radius_km"]
        values["breakpoints_km"] = breakpoints = (radius / 3.0, 2.0 * radius / 3.0)
    if len(margins) != len(breakpoints) + 1:
        raise ScenarioError(
            f"{name}: {len(margins)} margins need {len(margins) - 1} breakpoints")

    explicit = [k for k in _EXPLICIT if values[k] is not None]
    derived = [k for k in _DERIVED if values[k] is not None]
    if explicit and derived:
        raise ScenarioError(
            f"{name}: [geometry] mixes explicit intensities with a throughput forecast")
    if not explicit and len(derived) != 2:
        raise ScenarioError(
            f"{name}: [geometry] needs explicit intensities or both "
            "throughput_mbps and outdoor_fraction")
    if explicit:
        # explicit style: an omitted intensity means zero, not "unset"
        values.update({k: 0.0 for k in _EXPLICIT if values[k] is None})

    throughput = values["throughput_mbps"]
    if throughput is not None and throughput <= 0:
        raise ScenarioError(f"{name}: [geometry] throughput_mbps = {throughput:g} Mbit/s "
                            "must be positive")
    if values["sampler"] not in SAMPLERS:
        raise ScenarioError(f"{name}: unknown sampler {values['sampler']!r}")

    doc = ScenarioFile(**values)
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
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_scenario(doc: ScenarioFile) -> str:
    """Canonical text form: every key that has a value, in table order."""
    lines, current = [], None
    for section, key, _, _ in KEYS:
        value = getattr(doc, key)
        if value is None:
            continue
        if section != current:
            lines += ["", f"[{section}]"]
            current = section
        lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines[1:]) + "\n"
