"""Scenario files: strict INI-style documents with unit-suffixed keys.

A document either states the user intensities directly or derives them
from a forecast cell throughput and an outdoor traffic fraction.  Each
field of :class:`ScenarioFile` declares its key: section, kind and the
text an omitted key reads as.  The key table :data:`KEYS`, read off those
fields, drives parsing (unknown keys and missing keys that have no
documented default are rejected) and :func:`dump_scenario`, which writes
the canonical form (every key that has a value, in table order) that
round-trips byte-identically.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_M_CEILING, REGION_NAMES
from .errors import PrbdimError, ScenarioError, read_real
from .geometry import GeometryParams, PAPER
from .linkmodel import (InterferenceModel, LinkBudget, Scenario, Service,
                        default_breakpoints, intensities_from_throughput)

if TYPE_CHECKING:
    from .dimension import DimensionQuery


def _number(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"[{section}] {key} = {raw!r} is not a number") from None
    return read_real(value, f"[{section}] {key}")


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


def _key(section: str, kind, absent=REQUIRED):
    """A required field that is the key of the same name in [section], read
    by kind; absent is the text an omitted key reads as, REQUIRED, or None
    for a key that may be absent."""
    return field(metadata={"section": section, "kind": kind, "absent": absent})


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario document: one field per key, in canonical order."""

    tx_power_dbm: float = _key("cell", _number)
    noise_power_dbm: float = _key("cell", _number)
    prop_const_db: float = _key("cell", _number)
    prop_const_indoor_db: float = _key("cell", _number)
    path_loss_exp: float = _key("cell", _number)
    tx_antennas: int = _key("cell", _integer)
    rx_antennas: int = _key("cell", _integer)
    prb_bandwidth_khz: float = _key("cell", _number)
    cell_radius_km: float = _key("cell", _number)
    max_user_prbs: int = _key("cell", _integer, "256")
    rate_kbps: float = _key("service", _number)
    margins_db: tuple[float, ...] = _key("interference", _number_list, "0.0")
    breakpoints_km: tuple[float, ...] = _key("interference", _number_list, "")
    road_intensity_per_km: float = _key("geometry", _number)
    user_intensity_per_km: float | None = _key("geometry", _number, None)
    indoor_intensity_per_km2: float | None = _key("geometry", _number, None)
    throughput_mbps: float | None = _key("geometry", _number, None)
    outdoor_fraction: float | None = _key("geometry", _number, None)
    realizations: int = _key("monte_carlo", _integer, "500")
    seed: int = _key("monte_carlo", _integer, "0")
    sampler: str = _key("monte_carlo", _text, PAPER)

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

    def geometry(self) -> GeometryParams:
        """The stated intensities, or those of the stated forecast."""
        if self.throughput_mbps is not None:
            return intensities_from_throughput(
                read_real(self.throughput_mbps, "throughput_mbps", "positive") * 1e6,
                self.rate_kbps * 1e3, self.cell_radius_km, self.road_intensity_per_km,
                self.outdoor_fraction)
        return GeometryParams(self.road_intensity_per_km, self.user_intensity_per_km or 0.0,
                              self.indoor_intensity_per_km2 or 0.0)

    def region_bounds(self, name: str | None) -> tuple[float, float] | None:
        """Annulus of a named cell region; the default split unless the
        interference model supplies its own two breakpoints."""
        if name is None:
            return None
        if name not in REGION_NAMES:
            raise ScenarioError(f"unknown region {name!r}; expected one of {REGION_NAMES}")
        c1, c2 = (self.breakpoints_km if len(self.breakpoints_km) == 2
                  else default_breakpoints(self.cell_radius_km))
        bounds = {"center": (0.0, c1), "middle": (c1, c2),
                  "edge": (c2, self.cell_radius_km)}
        return bounds[name]

    def to_scenario(self, noise_limited: bool = False,
                    region: str | None = None) -> Scenario:
        return Scenario(link_budget=self.link_budget(),
                        interference=self.interference(noise_limited),
                        service=self.service(), geometry=self.geometry(),
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


# Every key of the format, in canonical order: (section, key, kind, absent).
KEYS = tuple((f.metadata["section"], f.name, f.metadata["kind"], f.metadata["absent"])
             for f in fields(ScenarioFile))

_EXPLICIT = ("user_intensity_per_km", "indoor_intensity_per_km2")
_DERIVED = ("throughput_mbps", "outdoor_fraction")


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
        try:
            values[key] = None if raw is None else kind(section, key, raw)
        except PrbdimError as exc:
            raise ScenarioError(f"{name}: {exc}") from None

    if not values["breakpoints_km"] and len(values["margins_db"]) == 3:
        values["breakpoints_km"] = default_breakpoints(values["cell_radius_km"])

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

    doc = ScenarioFile(**values)
    try:
        doc.to_scenario()
    except PrbdimError as exc:
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
