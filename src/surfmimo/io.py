"""Scenario configuration parsing and result serialization.

Configs are YAML with a fixed schema (surface, band, nodes, obstacles,
analysis, seed).  Parsing collects *all* problems — unknown keys, bad types,
scene violations, out-of-range analysis values — with line positions before
raising, so a config can be fixed in one pass.  The band and analysis
sections become the one LinkSettings every scene command reads, with the
defaults and range checks of the settings dataclasses.  A result set is
named columns of cells, each column of one type, written as CSV a column at
a time under a header of its column types and sorted metadata.  Every cell
reads back as the value written (floats by repr), and equal inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from io import StringIO

import numpy as np

from . import __version__, presets
from .channel import ChannelParams, NoiseModel, subcarrier_frequencies
from .errors import ConfigError, ResultIOError, SurfMimoError
from .experiments import FOOT_M, LinkSettings, SceneTemplate
from .geometry import CONTACT, Node, Obstacle, Scene, SurfaceSpec, validate_scene
from .mimo import capacity, condition_number
from .propagation import FrequencyBand

DEFAULT_SEED = 1905

_TOP_KEYS = {"name", "surface", "band", "nodes", "obstacles", "analysis", "seed"}
_SURFACE_KEYS = {"material", "width_m", "height_m"}
_BAND_KEYS = {"center_hz", "center_ghz", "bandwidth_hz", "bandwidth_mhz", "band_id"}
_NODE_KEYS = {"id", "role", "contacts", "antennas"}
_OBSTACLE_KEYS = {"x_min", "y_min", "x_max", "y_max", "kind", "perturbation_db"}

# analysis key -> (the dataclass that owns it, its field there); each
# dataclass gives the key's default and range check
_ANALYSIS_KEYS = {
    **{f.name: (NoiseModel, f) for f in fields(NoiseModel)},
    **{f.name: (ChannelParams, f) for f in fields(ChannelParams)
       if f.name not in ("coupling", "air_multipath")},
    **{("subcarriers" if f.name == "n_subcarriers" else f.name): (LinkSettings, f)
       for f in fields(LinkSettings) if f.name not in ("band", "noise", "params")},
}


def _position_index(root) -> dict:
    """Map (key, path, tuples) -> 1-based line numbers, via the YAML node tree."""
    import yaml

    idx: dict = {}

    def walk(node, path):
        idx.setdefault(path, node.start_mark.line + 1)
        if isinstance(node, yaml.MappingNode):
            for key, value in node.value:
                if isinstance(key, yaml.ScalarNode):
                    sub = path + (key.value,)
                    idx[sub] = key.start_mark.line + 1
                    walk(value, sub)
        elif isinstance(node, yaml.SequenceNode):
            for i, value in enumerate(node.value):
                walk(value, path + (i,))

    walk(root, ())
    return idx


class _Collector:
    """Problems found in a config; the line index is built on the first one."""

    def __init__(self, root):
        self.root = root
        self.positions = None
        self.problems: list = []

    def add(self, path, message: str):
        if self.positions is None:
            self.positions = _position_index(self.root)
        line = self.positions.get(tuple(path))
        where = f"line {line}: " if line else ""
        self.problems.append(f"{where}{message}")

    def number(self, data, path, default=None, required=False, integer=False):
        key = path[-1]
        if key not in data or data[key] is None:
            if required:
                self.add(path[:-1], f"missing required key {key!r}")
            return default
        v = data[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.add(path, f"{key!r} must be a number, got {v!r}")
            return default
        if integer and int(v) != v:
            self.add(path, f"{key!r} must be an integer, got {v!r}")
            return default
        return int(v) if integer else float(v)

    def unknown_keys(self, data, allowed, path):
        for key in data:
            if key not in allowed:
                self.add(path + (key,), f"unknown key {key!r}")


def _parse_points(raw, dim, what, path, col: _Collector):
    if raw is None:
        return ()
    if not isinstance(raw, list):
        col.add(path, f"{what} must be a list of points")
        return ()
    pts = []
    for i, p in enumerate(raw):
        if (not isinstance(p, list) or len(p) != dim
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in p)):
            col.add(path + (i,), f"{what}[{i}] must be {dim} numbers")
            continue
        pts.append(tuple(float(v) for v in p))
    return tuple(pts)


def parse_config(text) -> "ScenarioConfig":
    """Parse and validate a scenario config; raises ConfigError listing every
    problem found (with line positions where available)."""
    import yaml

    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    try:
        data, root = presets.load_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}: " if mark else ""
        detail = getattr(exc, "problem", None) or "invalid syntax"
        raise ConfigError([f"{where}{detail}"]) from exc
    if data is None:
        raise ConfigError(["config is empty"])
    if not isinstance(data, dict):
        raise ConfigError([f"config must be a mapping, got {type(data).__name__}"])

    col = _Collector(root)
    col.unknown_keys(data, _TOP_KEYS, ())
    name = data.get("name", "")
    if not isinstance(name, str):
        col.add(("name",), "name must be a string")
        name = ""

    # surface -------------------------------------------------------------
    surface = None
    raw_surface = data.get("surface")
    if not isinstance(raw_surface, dict):
        col.add(("surface",), "missing or invalid 'surface' section")
    else:
        col.unknown_keys(raw_surface, _SURFACE_KEYS, ("surface",))
        material_ref = raw_surface.get("material", "")
        width = col.number(raw_surface, ("surface", "width_m"), required=True)
        height = col.number(raw_surface, ("surface", "height_m"), required=True)
        if not isinstance(material_ref, str) or not material_ref:
            col.add(("surface", "material"), "surface needs a material preset name or path")
        elif width is not None and height is not None:
            try:
                surface = SurfaceSpec(width, height, presets.load_material(material_ref))
            except SurfMimoError as exc:
                col.add(("surface", "material"), str(exc))
            except OSError as exc:
                col.add(("surface", "material"), f"cannot read material file: {exc}")

    # band ------------------------------------------------------------------
    band = None
    raw_band = data.get("band") or {}
    if not isinstance(raw_band, dict):
        col.add(("band",), "'band' must be a mapping")
        raw_band = {}
    col.unknown_keys(raw_band, _BAND_KEYS, ("band",))
    if "center_hz" in raw_band and "center_ghz" in raw_band:
        col.add(("band",), "give either center_hz or center_ghz, not both")
    center = col.number(raw_band, ("band", "center_hz"))
    if center is None:
        ghz = col.number(raw_band, ("band", "center_ghz"))
        center = ghz * 1e9 if ghz is not None else 2.437e9
    if "bandwidth_hz" in raw_band and "bandwidth_mhz" in raw_band:
        col.add(("band",), "give either bandwidth_hz or bandwidth_mhz, not both")
    bw = col.number(raw_band, ("band", "bandwidth_hz"))
    if bw is None:
        mhz = col.number(raw_band, ("band", "bandwidth_mhz"))
        bw = mhz * 1e6 if mhz is not None else 40e6
    band_id = raw_band.get("band_id")
    try:
        band = FrequencyBand(center, bw, band_id or None)
    except SurfMimoError as exc:
        col.add(("band",), str(exc))

    # nodes -------------------------------------------------------------------
    nodes = []
    raw_nodes = data.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        col.add(("nodes",), "missing or empty 'nodes' list")
    else:
        for i, raw_node in enumerate(raw_nodes):
            path = ("nodes", i)
            if not isinstance(raw_node, dict):
                col.add(path, f"node {i} must be a mapping")
                continue
            col.unknown_keys(raw_node, _NODE_KEYS, path)
            node_id = raw_node.get("id")
            if not isinstance(node_id, str) or not node_id:
                col.add(path, f"node {i} needs a string 'id'")
                node_id = f"node{i}"
            role = raw_node.get("role", "")
            contacts = _parse_points(raw_node.get("contacts"), 2, "contacts",
                                     path + ("contacts",), col)
            antennas = _parse_points(raw_node.get("antennas"), 3, "antennas",
                                     path + ("antennas",), col)
            nodes.append(Node(node_id, role, contacts=contacts, antennas=antennas))

    # obstacles -----------------------------------------------------------------
    obstacles = []
    raw_obstacles = data.get("obstacles") or []
    if not isinstance(raw_obstacles, list):
        col.add(("obstacles",), "'obstacles' must be a list")
        raw_obstacles = []
    for i, raw_ob in enumerate(raw_obstacles):
        path = ("obstacles", i)
        if not isinstance(raw_ob, dict):
            col.add(path, f"obstacle {i} must be a mapping")
            continue
        col.unknown_keys(raw_ob, _OBSTACLE_KEYS, path)
        vals = [col.number(raw_ob, path + (k,), required=True)
                for k in ("x_min", "y_min", "x_max", "y_max")]
        if any(v is None for v in vals):
            continue
        obstacles.append(Obstacle(
            *vals,
            kind=raw_ob.get("kind", "metal"),
            perturbation_db=col.number(raw_ob, path + ("perturbation_db",), default=3.0),
        ))

    # analysis ---------------------------------------------------------------
    raw_analysis = data.get("analysis") or {}
    if not isinstance(raw_analysis, dict):
        col.add(("analysis",), "'analysis' must be a mapping")
        raw_analysis = {}
    col.unknown_keys(raw_analysis, _ANALYSIS_KEYS, ("analysis",))
    settings = _analysis_settings(raw_analysis, band, col)

    seed = col.number(data, ("seed",), default=DEFAULT_SEED, integer=True)
    if seed is None or seed < 0:
        col.add(("seed",), "seed must be a non-negative integer")
        seed = DEFAULT_SEED

    scene = None
    if surface is not None and nodes:
        scene = Scene(surface, nodes=tuple(nodes), obstacles=tuple(obstacles))
        for problem in validate_scene(scene):
            col.add(("nodes",), problem)

    if col.problems:
        raise ConfigError(col.problems)

    return ScenarioConfig(name=name, scene=scene, seed=seed, settings=settings)


def _analysis_settings(raw: dict, band, col: _Collector):
    """The LinkSettings an analysis section sets.  Each key given is typed
    here; defaults and range checks are those of LinkSettings, NoiseModel and
    ChannelParams, whose problems are reported at the line of the section.
    None when a range check fails."""
    given = {NoiseModel: {}, ChannelParams: {}, LinkSettings: {}}
    for key, value in raw.items():
        if key not in _ANALYSIS_KEYS or value is None:
            continue
        cls, f = _ANALYSIS_KEYS[key]
        path = ("analysis", key)
        if f.name == "mcs_table":
            value = _rate_table(value, path, col)
        else:
            value = col.number(raw, path, integer=f.type.startswith("int"))
        if value is not None:
            given[cls][f.name] = value

    def build(cls, **resolved):
        try:
            return cls(**resolved, **given[cls])
        except ConfigError as exc:
            for problem in exc.problems:
                col.add(("analysis",), problem)
            return None

    # a failed ChannelParams still lets LinkSettings report its own problems
    params = build(ChannelParams) or ChannelParams()
    return build(LinkSettings, band=band, noise=build(NoiseModel), params=params)


def _rate_table(value, path, col: _Collector):
    """The MCS table at the path an analysis section names, or None."""
    if not isinstance(value, str):
        col.add(path, "mcs_table must be a file path")
        return None
    try:
        return presets.load_mcs_table(value)
    except (SurfMimoError, OSError) as exc:
        col.add(path, str(exc))
        return None


def load_config(path) -> "ScenarioConfig":
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError([f"{path}: {p}" for p in exc.problems]) from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario: scene, seed, and the link settings of its
    band and analysis section (coupling constants and rate table resolved)."""

    name: str
    scene: Scene
    seed: int
    settings: LinkSettings

    def template(self) -> SceneTemplate:
        """Sweep template anchored at the first transmitter port, refused for obstacles."""
        if self.scene.obstacles:
            raise ConfigError("obstacles: a sweep template keeps only the surface and "
                              "cannot place them; run channel or analyze on this scene")
        tx = self.scene.transmitters()[0]
        kind, pos = tx.ports[0]
        return SceneTemplate(self.scene.surface, tx_x_m=pos[0], link_y_m=pos[1])


def config_hash(value) -> str:
    """16 hex digits of SHA-256 over a canonical JSON of value, then the tool
    version.  A command hashes ``{"command": name, **inputs}``, where inputs
    are the exact arguments it passed to the library.  A ScenarioConfig
    hashes as the dataclass it is: its resolved scene and settings.

    Dataclasses go in as their type name and fields, dicts (str keys) with
    their keys sorted, tuples and lists as arrays, floats by repr.  Any
    other type raises TypeError, so no hash can depend on an object's
    identity or on iteration order."""
    text = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return _SHA256((text + __version__).encode()).hexdigest()[:16]


def _sha256():
    """The interpreter's built-in SHA-256 (``_sha2`` on 3.12+, ``_sha256``
    before), as ``random`` takes its SHA-512; ``hashlib`` only when neither
    is built in, because importing it loads OpenSSL (~3.6 MB) into every
    command.  The digest is the same from all three.  Resolved once, into
    ``_SHA256``: a failed import searches every ``sys.path`` entry again."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


_SHA256 = _sha256()


def _canonical(v):
    """v as JSON data; only dataclasses and dicts become JSON objects, each
    tagged with its own key, so the two can never read alike."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v  # json writes a float by its repr (NaN and Infinity included)
    if isinstance(v, (tuple, list)):
        return [_canonical(x) for x in v]
    if isinstance(v, dict):
        if not all(isinstance(k, str) for k in v):
            raise TypeError(f"config_hash: dict keys must be str, got {list(v)!r}")
        return {"dict": {k: _canonical(x) for k, x in v.items()}}
    if is_dataclass(v) and not isinstance(v, type):
        return {"dataclass": type(v).__name__,
                "fields": {f.name: _canonical(getattr(v, f.name)) for f in fields(v)}}
    raise TypeError(f"config_hash cannot hash a {type(v).__name__}")


# --- result sets ------------------------------------------------------------------

_MAGIC = "# surfmimo-results v2"
_TYPES_LINE = "# types: "

# the cell types of a column (with None) -> its name on the types line and
# its text (text is quoted as the row width needs); a name -> its parser
_FORMATS = {int: ("int", int.__repr__), float: ("float", float.__repr__),
            bool: ("bool", {True: "true", False: "false"}.__getitem__), str: ("text", None)}
_PARSERS = {"int": int, "float": float, "bool": {"true": True, "false": False}.__getitem__,
            "text": str}

# Rows per chunk that write_results formats before writing them.
_WRITE_ROWS = 128


class _Quoted(dict):
    """Cell text -> the cell as csv.writer writes it in a row of `width`
    cells on the running Python (a one-cell row of "" is '""'); the csv
    module quotes each distinct text once."""

    def __init__(self, width: int):
        self.pad = [""] * (width > 1)

    def __missing__(self, text):
        buf = StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text, *self.pad])
        self[text] = buf.getvalue()[:-1 - len(self.pad)]
        return self[text]


def _column_format(name, cells, quoted: _Quoted) -> tuple:
    """(type name, cell -> text) of one column: the one type of its cells
    other than None, text when it has none.  A column of several types or
    of another type, or with a text cell that would not read back (an empty
    one reads as None), is refused."""
    kinds = set(map(type, cells))
    nullable = type(None) in kinds
    kinds.discard(type(None))
    if len(kinds) > 1 or not kinds <= _FORMATS.keys():
        raise ResultIOError(f"column {name!r} holds {sorted(k.__name__ for k in kinds)} "
                            f"cells; a column holds one of int, float, bool or str, and None")
    kind, fmt = _FORMATS[kinds.pop() if kinds else str]
    if fmt is None:
        # csv writes a carriage return bare, where it reads as a row break
        if any(t == "" or "\r" in t for t in set(cells) - {None}):
            raise ResultIOError(f"column {name!r} holds an empty text cell or one with a "
                                f"carriage return, which would not read back as itself")
        fmt = quoted.__getitem__
    if nullable:
        empty = quoted[""]
        return kind, lambda v, fmt=fmt: empty if v is None else fmt(v)
    return kind, fmt


@dataclass(frozen=True)
class ResultSet:
    """Tabular experiment output plus reproducibility metadata: one tuple of
    cells per column name, all of one length; ``rows`` is a view of them."""

    columns: tuple
    cells: tuple
    metadata: dict

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        # tuple() keeps a tuple: a copy with new metadata shares every column
        object.__setattr__(self, "cells", tuple(map(tuple, self.cells)))
        object.__setattr__(
            self, "metadata", {str(k): str(v) for k, v in self.metadata.items()}
        )
        # an item is one '# key: value' line, split on ':' and stripped; every
        # break str.splitlines knows is whitespace, so strip finds them at the ends
        for key, value in self.metadata.items():
            if not key or ":" in key or any(
                    t != t.strip() or len(t.splitlines()) > 1 for t in (key, value)):
                raise ResultIOError(f"metadata {key!r}: {value!r} would not read back as itself")
        # the header is the first line not starting with '#', and csv writes a
        # carriage return bare, where it reads as a row break
        for i, name in enumerate(self.columns):
            if not isinstance(name, str) or "\r" in name or (i == 0 and name.startswith("#")):
                raise ResultIOError(f"column name {name!r} would not read back as itself")
        if len(self.cells) != len(self.columns) or len(set(map(len, self.cells))) > 1:
            raise ResultIOError(f"{len(self.columns)} column names need as many columns of "
                                f"cells of one length, got {[len(c) for c in self.cells]}")

    @property
    def n_rows(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    @property
    def rows(self) -> tuple:
        return tuple(zip(*self.cells))


def write_results(rs: ResultSet, path) -> None:
    """CSV with a '#' header: the format line, the column types, then the
    metadata; deterministic byte-for-byte.  Each column is formatted by the
    one formatter of its type, a chunk of rows at a time, and the chunk is
    one write.  A column it cannot type is refused before the file is opened."""
    quoted = _Quoted(len(rs.columns))
    formats = [_column_format(name, cells, quoted) for name, cells in zip(rs.columns, rs.cells)]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"{_MAGIC}\n{_TYPES_LINE}{','.join(kind for kind, _ in formats)}\n")
            for key in sorted(rs.metadata):
                fh.write(f"# {key}: {rs.metadata[key]}\n")
            fh.write(",".join(map(quoted.__getitem__, rs.columns)) + "\n")
            for lo in range(0, rs.n_rows, _WRITE_ROWS):
                texts = [list(map(fmt, cells[lo:lo + _WRITE_ROWS]))
                         for (_, fmt), cells in zip(formats, rs.cells)]
                fh.write("\n".join(map(",".join, zip(*texts))) + "\n")
    except OSError as exc:
        raise ResultIOError(f"cannot write results to {path}: {exc}") from exc


def read_results(path) -> ResultSet:
    """The result set write_results wrote to path: each column parsed as
    the type its types line states, an empty cell as None."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()  # at \n, \r and \r\n only, as csv splits rows
    except OSError as exc:
        raise ResultIOError(f"cannot read results from {path}: {exc}") from exc
    body_start = next((i for i, line in enumerate(lines) if not line.startswith("#")),
                      len(lines))
    head = [line.rstrip("\r\n") for line in lines[:body_start]]
    if not head or head[0] != _MAGIC:
        raise ResultIOError(f"{path} is not a surfmimo results file: its first line "
                            f"is not {_MAGIC!r}")
    if len(head) < 2 or not head[1].startswith(_TYPES_LINE):
        raise ResultIOError(f"{path} has no {_TYPES_LINE.strip()!r} line after its first")
    kinds = head[1][len(_TYPES_LINE):].split(",") if head[1] != _TYPES_LINE else []
    metadata = {key.strip(): value.strip()
                for key, _, value in (line[1:].partition(":") for line in head[2:])}
    body = list(csv.reader(lines[body_start:]))
    if not body:
        raise ResultIOError(f"{path} has no column header")
    columns, rows = tuple(body[0]), body[1:]
    if len(kinds) != len(columns) or not set(kinds) <= _PARSERS.keys():
        raise ResultIOError(f"{path} types {kinds} do not name one of "
                            f"{sorted(_PARSERS)} for each of {len(columns)} columns")
    widths = {len(row) for row in rows} - {len(columns)}
    if widths:
        raise ResultIOError(f"row width {min(widths)} does not match {len(columns)} columns")
    cells = []
    for name, kind, texts in zip(columns, kinds, zip(*rows) if rows else [()] * len(columns)):
        parse = _PARSERS[kind]
        try:
            cells.append([None if t == "" else parse(t) for t in texts])
        except (KeyError, ValueError) as exc:
            raise ResultIOError(f"{path}: a cell of {kind} column {name!r} does not "
                                f"parse: {exc}") from exc
    return ResultSet(columns, cells, metadata)


# --- experiment-specific result builders ----------------------------------------


def _port_labels(kinds) -> list:
    labels, counts = [], {}
    for kind in kinds:
        short = "contact" if kind == CONTACT else "antenna"
        counts[short] = counts.get(short, 0)
        labels.append(f"{short}{counts[short]}")
        counts[short] += 1
    return labels


def channel_result_set(matrix) -> ResultSet:
    """Per-subcarrier complex entries of a ChannelMatrix, in subcarrier,
    receive port, transmit port order."""
    columns = ("subcarrier_index", "rx_port", "tx_port", "re", "im",
               "mag_db", "phase_rad")
    h = matrix.tones
    rx = _port_labels(matrix.rx_port_kinds)
    tx = _port_labels(matrix.tx_port_kinds)
    # the magnitude stays a scalar abs per entry: np.abs over the array
    # rounds some entries differently
    mag_db = [20.0 * math.log10(abs(h_ij)) if h_ij else float("-inf")
              for h_ij in h.ravel().tolist()]
    return ResultSet(columns, (
        np.repeat(np.arange(len(h)), len(rx) * len(tx)).tolist(),
        [label for label in rx for _ in tx] * len(h), tx * (len(h) * len(rx)),
        h.real.ravel().tolist(), h.imag.ravel().tolist(), mag_db,
        np.angle(h).ravel().tolist(),
    ), {})


def analyze_result_set(matrix, snr_linear) -> ResultSet:
    """Capacity and condition number of a ChannelMatrix at each subcarrier."""
    columns = ("subcarrier_index", "frequency_hz", "capacity_bps_hz",
               "condition_number")
    h = matrix.tones
    return ResultSet(columns, (
        range(len(h)), subcarrier_frequencies(matrix.frequency, len(h)).tolist(),
        capacity(h, snr_linear).tolist(), condition_number(h).tolist(),
    ), {})


def sweep_result_set(rows_by_mode: dict, mac_efficiency: float) -> ResultSet:
    """rows_by_mode: {mode_name: [(distance_m, LinkResult), ...]}.

    n_streams and tx_columns name the winning transmit-column subset (0 and
    "none" for a dead link); stream_snrs_db is empty (None) with no streams."""
    columns = ("mode", "distance_m", "distance_ft", "capacity_mbps",
               "condition_number", "stream_snrs_db", "phy_rate_mbps",
               "throughput_mbps", "n_streams", "tx_columns")
    modes = [mode for mode, pairs in rows_by_mode.items() for _ in pairs]
    ds = [d for pairs in rows_by_mode.values() for d, _ in pairs]
    rs = [r for pairs in rows_by_mode.values() for _, r in pairs]
    return ResultSet(columns, (
        modes, ds, [d / FOOT_M for d in ds],
        [r.capacity_bps / 1e6 for r in rs], [r.condition_number for r in rs],
        [";".join(repr(float(s)) for s in r.stream_snrs_db) or None for r in rs],
        [r.phy_rate_bps / 1e6 for r in rs],
        [r.phy_rate_bps * mac_efficiency / 1e6 for r in rs],
        [len(r.tx_columns) for r in rs],
        [";".join(str(c) for c in r.tx_columns) or "none" for r in rs],
    ), {})


def separation_result_set(rows_by_mode: dict, mac_efficiency: float) -> ResultSet:
    columns = ("mode", "separation_m", "separation_cm", "mean_capacity_mbps",
               "max_condition_number", "mean_snr_db", "mean_phy_rate_mbps",
               "mean_throughput_mbps")
    modes = [mode for mode, pairs in rows_by_mode.items() for _ in pairs]
    seps = [sep for pairs in rows_by_mode.values() for sep, _ in pairs]
    rs = [r for pairs in rows_by_mode.values() for _, r in pairs]
    return ResultSet(columns, (
        modes, seps, [sep * 100.0 for sep in seps],
        [r.capacity_bps / 1e6 for r in rs], [r.condition_number for r in rs],
        [float(r.stream_snrs_db[0]) for r in rs], [r.phy_rate_bps / 1e6 for r in rs],
        [r.phy_rate_bps * mac_efficiency / 1e6 for r in rs],
    ), {})


def aggregate_result_set(sweep_rows, plan) -> ResultSet:
    """sweep_rows: [(distance_m, total_bps, [ChainResult, ...]), ...]; each
    distance's chains are followed by its total row.  The metadata holds the
    plan name and its total bandwidth."""
    columns = ("distance_m", "label", "center_hz", "bandwidth_hz", "dfs",
               "conversion_loss_db", "esnr_db", "phy_rate_mbps")
    cells = tuple([] for _ in columns)
    ds, labels, centers, widths, dfs, losses, esnrs, rates = cells
    for d, total, chains in sweep_rows:
        ds += [d] * (len(chains) + 1)
        labels += [c.label for c in chains] + ["total"]
        centers += [c.center_hz for c in chains] + [None]
        widths += [c.bandwidth_hz for c in chains] + [plan.total_bandwidth_hz]
        dfs += [c.dfs for c in chains] + [False]
        losses += [c.conversion_loss_db for c in chains] + [0.0]
        esnrs += [c.esnr_db for c in chains] + [None]
        rates += [c.phy_rate_bps / 1e6 for c in chains] + [total / 1e6]
    return ResultSet(columns, cells, {
        "plan": plan.name, "total_bandwidth_mhz": repr(plan.total_bandwidth_hz / 1e6)})


def radiation_result_set(samples) -> ResultSet:
    columns = ("x_m", "y_m", "z_m", "hemisphere", "reference_dbm",
               "surface_fed_dbm", "offset_db")
    x, y, z = ([s.position[k] for s in samples] for k in range(3))
    return ResultSet(columns, (
        x, y, z, ["front" if zi >= 0 else "back" for zi in z],
        [s.reference_dbm for s in samples], [s.surface_fed_dbm for s in samples],
        [s.offset_db for s in samples],
    ), {})


def share_result_set(results) -> ResultSet:
    columns = ("pair_index", "channel", "solo_rate_mbps", "win_fraction",
               "throughput_mbps")
    return ResultSet(columns, (
        [r.pair_index for r in results], [r.channel for r in results],
        [r.solo_rate_bps / 1e6 for r in results], [r.win_fraction for r in results],
        [r.throughput_bps / 1e6 for r in results],
    ), {})


def pulse_result_set(profile) -> ResultSet:
    columns = ("time_ns", "re", "im", "magnitude")
    y = profile.samples
    # the builtin abs of each sample: np.abs rounds some magnitudes differently
    return ResultSet(columns, (
        (profile.time_s * 1e9).tolist(), y.real.tolist(), y.imag.tolist(),
        list(map(abs, y.tolist())),
    ), {
        "sample_rate_hz": repr(profile.sample_rate_hz),
        "rms_delay_spread_s": repr(profile.response.rms_delay_spread())})


# --- plot script emission ---------------------------------------------------------

_PLOT_SPECS = {
    "sweep": ("distance_ft", ("throughput_mbps",), "mode"),
    "separation": ("separation_cm", ("mean_throughput_mbps",), "mode"),
    "pulse": ("time_ns", ("magnitude",), None),
    "aggregate": ("distance_m", ("phy_rate_mbps",), "label"),
    "radiation": ("z_m", ("surface_fed_dbm", "reference_dbm"), None),
    "share": ("pair_index", ("throughput_mbps",), None),
    "analyze": ("subcarrier_index", ("capacity_bps_hz", "condition_number"), None),
    "channel": ("subcarrier_index", ("mag_db",), None),
}

_PLOT_TEMPLATE = '''"""Auto-generated plot script for {csv_path!r}."""
import csv

import matplotlib.pyplot as plt

with open({csv_path!r}) as fh:
    lines = [l for l in fh.read().splitlines() if not l.startswith("#")]
rows = list(csv.DictReader(lines))

group_col = {group!r}
groups = sorted({{r[group_col] for r in rows}}) if group_col else [None]
for g in groups:
    sel = [r for r in rows if group_col is None or r[group_col] == g]
    xs = [float(r[{x!r}]) for r in sel]
    for y_col in {ys!r}:
        ys = [float(r[y_col]) for r in sel]
        label = y_col if g is None else f"{{g}}: {{y_col}}"
        plt.plot(xs, ys, marker="o", label=label)
plt.xlabel({x!r})
plt.legend()
plt.grid(True)
plt.savefig({png_path!r}, dpi=150)
print("wrote", {png_path!r})
'''


def write_plot_script(kind: str, csv_path, script_path) -> None:
    """Emit a small matplotlib script that renders the given results CSV."""
    if kind not in _PLOT_SPECS:
        raise ConfigError([f"no plot layout for result kind {kind!r}"])
    x, ys, group = _PLOT_SPECS[kind]
    text = _PLOT_TEMPLATE.format(
        csv_path=str(csv_path), x=x, ys=tuple(ys), group=group,
        png_path=str(csv_path) + ".png",
    )
    try:
        with open(script_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ResultIOError(f"cannot write plot script to {script_path}: {exc}") from exc
