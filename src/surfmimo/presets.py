"""Loading of shipped preset files: materials, coupling constants, MCS tables."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .channel import CouplingConstants
from .errors import PresetError
from .mimo import McsRow, McsTable
from .propagation import MaterialParams


def data_dir():
    return resources.files("surfmimo") / "presets"


def _read_text(path) -> str:
    if path is None:
        raise PresetError("no preset path given")
    return Path(path).read_text() if not hasattr(path, "read_text") else path.read_text()


def load_yaml(text):
    """(data, root node) of one YAML document, composed once.

    libyaml's parser is used when PyYAML was built with it, the pure-Python
    one otherwise.  Both feed PyYAML's Python resolver and safe constructor,
    so the data is the same either way.  The root is None for an empty
    document.  Raises yaml.YAMLError with a ``problem_mark`` on bad syntax.
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(text)
    try:
        root = loader.get_single_node()
        return (None if root is None else loader.construct_document(root)), root
    finally:
        loader.dispose()


def _load_materials_doc(path=None) -> dict:
    src = path if path is not None else data_dir() / "materials.yaml"
    try:
        doc, _ = load_yaml(_read_text(src))
    except yaml.YAMLError as exc:
        raise PresetError(f"cannot parse material preset file {src}: {exc}") from exc
    if not isinstance(doc, dict) or "materials" not in doc:
        raise PresetError(f"material preset file {src} has no 'materials' section")
    return doc


def _version(doc: dict) -> str:
    return str(doc.get("version", "unversioned"))


def _materials(doc: dict) -> dict:
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


def _coupling(doc: dict) -> CouplingConstants:
    c = doc.get("coupling", {})
    try:
        return CouplingConstants(
            c1=float(c.get("c1", 0.0)),
            c2=float(c.get("c2", 0.0)),
            c3=float(c.get("c3", 0.0)),
            near_field_coupling=float(c.get("near_field_coupling", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise PresetError(f"malformed coupling section: {exc}") from exc


def _pick_material(materials: dict, name_or_path: str) -> MaterialParams:
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


def preset_version(path=None) -> str:
    return _version(_load_materials_doc(path))


def load_materials(path=None) -> dict:
    """All material presets from a file (default: the shipped presets)."""
    return _materials(_load_materials_doc(path))


def load_material(name_or_path: str, path=None) -> MaterialParams:
    """A material by preset name, or every material from a custom file path."""
    return _pick_material(load_materials(path), name_or_path)


def load_coupling(path=None) -> CouplingConstants:
    return _coupling(_load_materials_doc(path))


@dataclass(frozen=True)
class MaterialPresets:
    """Everything a material preset file holds, from one parse of it."""

    materials: dict
    coupling: CouplingConstants
    version: str

    def material(self, name_or_path: str) -> MaterialParams:
        """Like load_material, without parsing this file again."""
        return _pick_material(self.materials, name_or_path)


def load_presets(path=None) -> MaterialPresets:
    """Materials, coupling constants and version of one preset file
    (default: the shipped presets), parsed once."""
    doc = _load_materials_doc(path)
    return MaterialPresets(_materials(doc), _coupling(doc), _version(doc))


def load_mcs_table(path=None) -> McsTable:
    """MCS table from a CSV file (default: the shipped 802.11 table), with the
    rows of every bandwidth it holds; McsTable.for_bandwidth selects one."""
    src = path if path is not None else data_dir() / "mcs_80211.csv"
    rows = []
    try:
        reader = csv.DictReader(_read_text(src).splitlines())
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
        raise PresetError(f"malformed MCS table {src}: {exc}") from exc
    if not rows:
        raise PresetError(f"MCS table {src} is empty")
    return McsTable(tuple(rows))


def scene_path(name: str):
    """Resolve a scene preset name to its shipped file."""
    p = data_dir() / "scenes" / f"{name}.yaml"
    if not p.is_file():
        available = sorted(f.name[:-5] for f in (data_dir() / "scenes").iterdir()
                           if f.name.endswith(".yaml"))
        raise PresetError(f"unknown scene preset {name!r}; available: {available}")
    return p
