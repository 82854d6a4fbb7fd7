"""Loading of preset files: materials, coupling constants, MCS tables.

The shipped files (``materials.json`` and ``mcs_80211.csv``) are parsed on
first use and kept for the life of the process as one immutable value,
``shipped()``: its materials, coupling constants, preset version and MCS
table.  Every loader called without a path reads that value.  A file given
by path is parsed on every call.  A material file given by path is YAML and
holds only a ``materials`` section; any other section is refused, so the
calibration is written only in ``materials.json``.  The shipped presets are
JSON so that a command that reads no YAML file never imports PyYAML: only
the functions that parse YAML import it.

The shipped material presets are model defaults, not measured constants:

- The alpha/beta anchor tables cover 0.9-6.0 GHz and are linearly
  interpolated in between; queries outside the range are rejected.  The
  alpha anchors lie on a sqrt(f) curve (skin-effect-like loss growth); the
  beta anchors correspond to a constant phase velocity per material (0.55c
  spraypaint, 0.50c cloth), so interpolated beta stays exactly proportional
  to f.
- They are calibrated so that a -3 dBm transmitter leaves >= -70 dBm across
  a 16 ft spraypaint surface at 2.4 GHz, with loss increasing with
  frequency.
- The coupling section holds the calibration scalars of the composite
  (surface<->air) channel terms and the local contact<->antenna coupling on
  a device sitting on the surface.
"""

from __future__ import annotations

import csv
import functools
import json
from collections.abc import Mapping
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .errors import DomainError, PresetError
from .mimo import McsRow, McsTable
from .propagation import MaterialParams


def data_dir():
    return resources.files("surfmimo") / "presets"


def _read_text(path) -> str:
    return Path(path).read_text() if not hasattr(path, "read_text") else path.read_text()


def load_yaml(text):
    """(data, root node) of one YAML document, composed once.

    libyaml's parser is used when PyYAML was built with it, the pure-Python
    one otherwise.  Both feed PyYAML's Python resolver and safe constructor,
    so the data is the same either way.  The root is None for an empty
    document.  Raises yaml.YAMLError with a ``problem_mark`` on bad syntax.
    """
    import yaml

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(text)
    try:
        root = loader.get_single_node()
        return (None if root is None else loader.construct_document(root)), root
    finally:
        loader.dispose()


def _materials(doc, path) -> dict:
    if not isinstance(doc, dict) or "materials" not in doc:
        raise PresetError(f"material preset file {path} has no 'materials' section")
    out = {}
    for name, spec in doc["materials"].items():
        try:
            bands = sorted(spec["bands"], key=lambda b: float(b["frequency_hz"]))
            out[name] = MaterialParams(
                name=name,
                d0_m=float(spec["d0_m"]),
                refl_coeff=float(spec["refl_coeff"]),
                freqs_hz=tuple(float(b["frequency_hz"]) for b in bands),
                alphas_np_per_m=tuple(float(b["alpha_np_per_m"]) for b in bands),
                betas_rad_per_m=tuple(float(b["beta_rad_per_m"]) for b in bands),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PresetError(f"material {name!r}: malformed preset entry ({exc})") from exc
    if not out:
        raise PresetError("material preset file defines no materials")
    return out


@dataclass(frozen=True)
class CouplingConstants:
    """Calibration scalars for the composite channel terms; the calibrated
    values are written only in the shipped ``materials.json``."""

    c1: float
    c2: float
    c3: float
    near_field_coupling: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "near_field_coupling"):
            value = getattr(self, name)
            if not value >= 0:
                raise DomainError(f"coupling constant {name} must be >= 0, got {value}")


_COUPLING_KEYS = tuple(f.name for f in fields(CouplingConstants))


def _coupling(doc: dict) -> CouplingConstants:
    """The constants of the shipped file's coupling section, which must set
    every constant."""
    c = doc.get("coupling") or {}
    if not isinstance(c, dict):
        raise PresetError("the coupling section must be a mapping")
    missing = [key for key in _COUPLING_KEYS if key not in c]
    if missing:
        raise PresetError([f"coupling section has no {key!r}" for key in missing])
    try:
        return CouplingConstants(**{key: float(c[key]) for key in _COUPLING_KEYS})
    except (TypeError, ValueError) as exc:
        raise PresetError(f"malformed coupling section: {exc}") from exc


def load_material(name_or_path: str) -> MaterialParams:
    """A shipped material by preset name, or the material of a custom file."""
    materials = shipped().materials
    if name_or_path in materials:
        return materials[name_or_path]
    p = Path(name_or_path)
    if p.suffix in (".yaml", ".yml") and p.exists():
        custom = load_materials(p)
        if len(custom) == 1:
            return next(iter(custom.values()))
        raise PresetError(
            f"{name_or_path} defines {len(custom)} materials; pass the material name"
        )
    raise PresetError(
        f"unknown material {name_or_path!r}; available: {sorted(materials)}"
    )


def load_materials(path=None) -> dict:
    """All material presets of a YAML file given by path, which holds only a
    'materials' section (default: the shipped presets)."""
    if path is None:
        return dict(shipped().materials)
    import yaml

    try:
        doc, root = load_yaml(_read_text(path))
    except yaml.YAMLError as exc:
        raise PresetError(f"cannot parse material preset file {path}: {exc}") from exc
    if isinstance(doc, dict):
        others = [f"material preset file {path}, line {key.start_mark.line + 1}: a "
                  f"{key.value!r} section is refused; a file given by path holds only "
                  "'materials'" for key, _ in root.value if key.value != "materials"]
        if others:
            raise PresetError(others)
    return _materials(doc, path)


def load_coupling() -> CouplingConstants:
    """The shipped coupling constants."""
    return shipped().coupling


def load_mcs_table(path=None) -> McsTable:
    """MCS table from a CSV file (default: the shipped 802.11 table), with the
    rows of every bandwidth it holds; McsTable.for_bandwidth selects one."""
    if path is None:
        return shipped().mcs_table
    rows = []
    try:
        reader = csv.DictReader(_read_text(path).splitlines())
        for rec in reader:
            rows.append(
                McsRow(
                    mcs_index=int(rec["mcs_index"]),
                    modulation=rec["modulation"],
                    coding_rate=rec["coding_rate"],
                    bandwidth_mhz=float(rec["bandwidth_mhz"]),
                    guard_interval_ns=float(rec["guard_interval_ns"]),
                    phy_rate_bps=float(rec["phy_rate_mbps"]) * 1e6,
                    min_snr_db=float(rec["min_snr_db"]),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise PresetError(f"malformed MCS table {path}: {exc}") from exc
    if not rows:
        raise PresetError(f"MCS table {path} is empty")
    return McsTable(tuple(rows))


@dataclass(frozen=True)
class ShippedPresets:
    """The shipped material presets, coupling constants, preset version and
    MCS table; the materials are a read-only mapping."""

    materials: Mapping
    coupling: CouplingConstants
    version: str
    mcs_table: McsTable


@functools.cache
def shipped() -> ShippedPresets:
    """The shipped preset files, parsed on the first call and shared by every
    later one; ``shipped.cache_clear()`` makes the next call parse them again.
    The value is immutable, so no caller can change what another reads."""
    path = data_dir() / "materials.json"
    doc = json.loads(_read_text(path))
    return ShippedPresets(MappingProxyType(_materials(doc, path)), _coupling(doc),
                          str(doc["version"]), load_mcs_table(data_dir() / "mcs_80211.csv"))


def scene_path(name: str):
    """Resolve a scene preset name to its shipped file."""
    p = data_dir() / "scenes" / f"{name}.yaml"
    if not p.is_file():
        available = sorted(f.name[:-5] for f in (data_dir() / "scenes").iterdir()
                           if f.name.endswith(".yaml"))
        raise PresetError(f"unknown scene preset {name!r}; available: {available}")
    return p
