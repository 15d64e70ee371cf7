"""Scenario files: strict INI-style documents with unit-suffixed keys.

A document states the user intensities or a forecast cell throughput and
outdoor traffic fraction.  Each field of :class:`ScenarioFile` declares its
key: section, the reader of its value in the file's units, and the text an
omitted key reads as; the record holds every rule of a document.  The key
table :data:`KEYS`, read off those fields, drives parsing (text to values;
unknown keys and missing keys that have no default are rejected) and
:func:`dump_scenario`, whose canonical form (every key that has a value, in
table order) round-trips byte-identically and parses back to the document.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_M_CEILING, REGION_NAMES
from .errors import (PrbdimError, PrecisionError, ScenarioError, read_choice, read_count,
                     read_fields, read_fraction, read_real, read_si, read_tuple, reading)
from .geometry import GeometryParams, PAPER, SAMPLERS
from .linkmodel import (InterferenceModel, LinkBudget, Scenario, Service,
                        default_breakpoints, intensities_from_throughput)

if TYPE_CHECKING:
    from .dimension import DimensionQuery


def _number(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"[{section}] {key} = {raw!r} is not a number") from None


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


REQUIRED = object()
# the text form of each reader's values
_KINDS = {read_real: _number, read_fraction: _number, read_count: _integer,
          read_tuple: _number_list, read_choice: lambda section, key, raw: raw}


def _key(section: str, reader, *args, absent=REQUIRED):
    """A required field that is the key of the same name in [section], read when built
    as reader(value, key, *args); absent is the text an omitted key reads as,
    REQUIRED, or None for a key that may be absent."""
    return reading(reader, *args, section=section, kind=_KINDS[reader], absent=absent)


_EXPLICIT = ("user_intensity_per_km", "indoor_intensity_per_km2")


@dataclass(frozen=True)
class ScenarioFile:
    """Scenario document, one field per key in canonical order, checked when built by any path:
    each key by its reader, then explicit intensities (an omitted one is zero) or a whole
    forecast, never both, and the conversion to a :class:`Scenario`.  Three margins with no
    breakpoints take the default split."""

    tx_power_dbm: float = _key("cell", read_real)
    noise_power_dbm: float = _key("cell", read_real)
    prop_const_db: float = _key("cell", read_real)
    prop_const_indoor_db: float = _key("cell", read_real)
    path_loss_exp: float = _key("cell", read_real)
    tx_antennas: int = _key("cell", read_count, 1)
    rx_antennas: int = _key("cell", read_count, 1)
    prb_bandwidth_khz: float = _key("cell", read_real, "positive")
    cell_radius_km: float = _key("cell", read_real, "positive")
    max_user_prbs: int = _key("cell", read_count, 1, absent="256")
    rate_kbps: float = _key("service", read_real, "positive")
    margins_db: tuple[float, ...] = _key("interference", read_tuple, "nonnegative", absent="0.0")
    breakpoints_km: tuple[float, ...] = _key("interference", read_tuple, "positive", absent="")
    # GeometryParams names a negative intensity
    road_intensity_per_km: float = _key("geometry", read_real)
    user_intensity_per_km: float | None = _key("geometry", read_real, absent=None)
    indoor_intensity_per_km2: float | None = _key("geometry", read_real, absent=None)
    throughput_mbps: float | None = _key("geometry", read_real, "positive", absent=None)
    outdoor_fraction: float | None = _key("geometry", read_fraction, absent=None)
    realizations: int = _key("monte_carlo", read_count, 1, absent="500")
    seed: int = _key("monte_carlo", read_count, 0, absent="0")
    sampler: str = _key("monte_carlo", read_choice, SAMPLERS, absent=PAPER)

    def __post_init__(self):
        read_fields(self)
        if not self.breakpoints_km and len(self.margins_db) == 3:
            object.__setattr__(self, "breakpoints_km", default_breakpoints(self.cell_radius_km))
        explicit = [k for k in _EXPLICIT if getattr(self, k) is not None]
        forecast = (self.throughput_mbps, self.outdoor_fraction)
        if explicit and forecast != (None, None):
            raise ScenarioError("[geometry] mixes explicit intensities with a throughput forecast")
        if not explicit and None in forecast:
            raise ScenarioError("[geometry] needs explicit intensities or both "
                                "throughput_mbps and outdoor_fraction")
        for key in set(_EXPLICIT) - set(explicit) if explicit else ():
            object.__setattr__(self, key, 0.0)  # explicit style: an omitted intensity is zero
        self.to_scenario()

    def link_budget(self) -> LinkBudget:
        cell = {key: getattr(self, key) for section, key, _, _ in KEYS if section == "cell"}
        cell["prb_bandwidth_hz"] = read_si(cell.pop("prb_bandwidth_khz"), "prb_bandwidth_khz")
        return LinkBudget(**cell)

    def interference(self, noise_limited: bool = False) -> InterferenceModel:
        if noise_limited:
            return InterferenceModel.noise_limited()
        return InterferenceModel(margins_db=self.margins_db,
                                 breakpoints_km=self.breakpoints_km)

    def service(self) -> Service:
        return Service(rate_bps=read_si(self.rate_kbps, "rate_kbps"))

    def geometry(self) -> GeometryParams:
        """The stated intensities, or those of the stated forecast, whose refusal
        beyond double precision names its keys as written."""
        if self.throughput_mbps is None:
            return GeometryParams(self.road_intensity_per_km, self.user_intensity_per_km,
                                  self.indoor_intensity_per_km2)
        try:
            return intensities_from_throughput(
                read_si(self.throughput_mbps, "throughput_mbps"), self.service().rate_bps,
                self.cell_radius_km, self.road_intensity_per_km, self.outdoor_fraction)
        except PrecisionError:
            raise PrecisionError(
                f"user intensity of throughput_mbps {self.throughput_mbps!r} at rate_kbps "
                f"{self.rate_kbps!r} over cell_radius_km {self.cell_radius_km!r}, "
                f"road_intensity_per_km {self.road_intensity_per_km!r} and outdoor_fraction "
                f"{self.outdoor_fraction!r} is beyond double precision") from None

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

    def to_scenario(self, noise_limited: bool = False, region: str | None = None) -> Scenario:
        return Scenario(link_budget=self.link_budget(),
                        interference=self.interference(noise_limited), service=self.service(),
                        geometry=self.geometry(), sampler=self.sampler, seed=self.seed,
                        mc_realizations=self.realizations, region_km=self.region_bounds(region))

    def to_query(self, target: float, throughput_bps: float | None = None,
                 outdoor_fraction: float | None = None, m_ceiling: int = DEFAULT_M_CEILING,
                 noise_limited: bool = False, region: str | None = None) -> DimensionQuery:
        if throughput_bps is None:
            if self.throughput_mbps is None:
                raise ScenarioError(
                    "no forecast throughput: give one on the command line or "
                    "state throughput_mbps in [geometry]")
            throughput_bps = read_si(self.throughput_mbps, "throughput_mbps")
        outdoor_fraction = self.outdoor_fraction if outdoor_fraction is None else outdoor_fraction
        if outdoor_fraction is None:
            raise ScenarioError("no outdoor_fraction given for a dimensioning query")
        from .dimension import DimensionQuery
        return DimensionQuery(self.to_scenario(noise_limited, region), target, throughput_bps,
                              outdoor_fraction, m_ceiling)


# Every key of the format, in canonical order: (section, key, kind, absent).
KEYS = tuple((f.metadata["section"], f.name, f.metadata["kind"], f.metadata["absent"])
             for f in fields(ScenarioFile))


def parse_scenario(text: str, name: str = "<scenario>") -> ScenarioFile:
    """The document a scenario text states; each refusal is a ScenarioError naming `name`."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ScenarioError(f"{name}: {exc}") from None

    known = {(section, key) for section, key, _, _ in KEYS}
    values = {}
    try:
        for section in parser.sections():
            if section not in {s for s, _ in known}:
                raise ScenarioError(f"unknown section [{section}]")
            for key in parser[section]:
                if (section, key) not in known:
                    raise ScenarioError(f"unknown key {key!r} in [{section}]")
        for section, key, kind, default in KEYS:
            raw = parser.get(section, key, fallback=default)
            if raw is REQUIRED:
                raise ScenarioError(f"missing required key {key!r} in [{section}]")
            values[key] = None if raw is None else kind(section, key, raw)
        return ScenarioFile(**values)
    except PrbdimError as exc:
        raise ScenarioError(f"{name}: {exc}") from None


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
