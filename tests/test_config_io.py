"""Config parsing, result serialization, reproducibility hashes."""

import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surfmimo
from surfmimo import io as rio
from surfmimo import presets
from surfmimo.channel import ChannelMatrix, build_mimo, csi, subcarrier_frequencies
from surfmimo.errors import ConfigError, PresetError, ResultIOError
from surfmimo.experiments import (
    ChainResult,
    LinkResult,
    LinkSettings,
    RadiationSample,
    ShareResult,
    scenario2_plan,
)
from surfmimo.geometry import ANTENNA, CONTACT
from surfmimo.io import (
    DEFAULT_SEED,
    ResultSet,
    aggregate_result_set,
    analyze_result_set,
    channel_result_set,
    config_hash,
    load_config,
    parse_config,
    pulse_result_set,
    read_results,
    radiation_result_set,
    separation_result_set,
    share_result_set,
    sweep_result_set,
    write_plot_script,
    write_results,
)

GOOD = textwrap.dedent("""\
    name: unit
    surface:
      material: spraypaint
      width_m: 3.0
      height_m: 1.0
    nodes:
      - id: tx
        role: transmitter
        contacts: [[0.5, 0.5]]
      - id: rx
        role: receiver
        contacts: [[1.5, 0.5]]
""")


def test_parse_minimal_config_defaults():
    cfg = parse_config(GOOD)
    assert cfg.name == "unit"
    assert cfg.settings.band.center_hz == 2.437e9
    assert cfg.settings.band.bandwidth_hz == 40e6
    assert cfg.settings.band.band_id == "2.4GHz"
    assert cfg.seed == DEFAULT_SEED == 1905
    assert cfg.settings.grid == 32
    assert cfg.settings.mac_efficiency == 0.65
    assert cfg.scene.surface.material.name == "spraypaint"
    assert len(cfg.scene.nodes) == 2
    # template anchors the sweep at the first transmitter port
    tpl = cfg.template()
    assert tpl.anchor() == (0.5, 0.5)


def test_parse_config_units_and_overrides():
    cfg = parse_config(GOOD + textwrap.dedent("""\
        band:
          center_ghz: 5.19
          bandwidth_mhz: 20
        analysis:
          grid: 16
          snr_db: 25
        seed: 7
    """))
    assert cfg.settings.band.center_hz == 5.19e9
    assert cfg.settings.band.band_id == "5GHz"
    assert cfg.settings.band.bandwidth_hz == 20e6
    assert cfg.seed == 7
    s = cfg.settings
    assert s.grid == 16 and s.snr_db == 25.0
    assert s.band.bandwidth_hz == 20e6
    assert s.params.coupling.near_field_coupling == 0.95


BAD = textwrap.dedent("""\
    name: broken
    turbo: on
    surface:
      material: spraypaint
      width_m: wide
      height_m: 1.0
      gloss: 1
    nodes:
      - id: tx
        role: transmitter
        contacts: [[0.5, 0.5, 9]]
      - role: receiver
        contacts: [[1.5, 0.5]]
    analysis:
      grid: 3.7
    seed: -4
""")


def test_parse_config_collects_every_problem_with_lines():
    with pytest.raises(ConfigError) as err:
        parse_config(BAD)
    problems = err.value.problems
    joined = "\n".join(problems)
    assert "unknown key 'turbo'" in joined
    assert "unknown key 'gloss'" in joined
    assert "'width_m' must be a number" in joined
    assert "contacts[0] must be 2 numbers" in joined
    assert "needs a string 'id'" in joined
    assert "'grid' must be an integer" in joined
    assert "seed must be a non-negative integer" in joined
    assert len(problems) >= 7
    # positions come from the YAML node tree
    assert any(p.startswith("line 2:") for p in problems)   # turbo
    assert any(p.startswith("line 5:") for p in problems)   # width_m


def test_parse_config_rejects_degenerate_documents():
    with pytest.raises(ConfigError, match="config is empty"):
        parse_config("")
    with pytest.raises(ConfigError, match="must be a mapping"):
        parse_config("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("name: x\n  bad_indent: [\n")


def test_parse_config_rejects_ambiguous_units():
    with pytest.raises(ConfigError, match="not both"):
        parse_config(GOOD + "band: {center_hz: 2.4e9, center_ghz: 2.4}\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config(GOOD + "band: {bandwidth_hz: 2.0e7, bandwidth_mhz: 20}\n")


def test_parse_config_surfaces_scene_violations():
    with pytest.raises(ConfigError, match="outside"):
        parse_config(GOOD.replace("[[1.5, 0.5]]", "[[9.0, 0.5]]"))
    with pytest.raises(ConfigError, match="transmitter"):
        parse_config(GOOD.replace("role: transmitter", "role: receiver"))


def test_parse_config_obstacles():
    cfg = parse_config(GOOD + textwrap.dedent("""\
        obstacles:
          - {x_min: 0.9, y_min: 0.2, x_max: 1.1, y_max: 0.8, perturbation_db: 5}
    """))
    ob = cfg.scene.obstacles[0]
    assert (ob.x_min, ob.y_max) == (0.9, 0.8)
    assert ob.perturbation_db == 5.0
    assert ob.kind == "metal"


def test_load_config_prefixes_path(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text(GOOD + "turbo: on\n")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert all(str(p) in problem for problem in err.value.problems)
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.yaml")


def test_config_consumers_agree_with_direct_calls():
    cfg = parse_config(GOOD + "analysis: {grid: 8, subcarriers: 2}\n")
    m = build_mimo(cfg.scene, cfg.settings.band, grid=8, params=cfg.settings.params)
    assert m.entries.shape == (1, 1)
    assert m.rx_port_kinds == (CONTACT,)


# --- YAML loaders ---------------------------------------------------------------


def _under_both_loaders(monkeypatch, fn):
    """fn() with the loader load_yaml picks (libyaml when PyYAML has it), then
    with the pure-Python one, as on an install without libyaml."""
    default = fn()
    with monkeypatch.context() as m:
        m.delattr(yaml, "CSafeLoader", raising=False)
        pure = fn()
    return default, pure


def _problems(text) -> list:
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.problems


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_load_yaml_uses_libyaml_when_present(monkeypatch):
    made = []

    class Counted(yaml.CSafeLoader):
        def __init__(self, stream):
            made.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Counted)
    presets.shipped.cache_clear()
    parse_config(GOOD)
    assert made == [GOOD]  # the shipped material presets are JSON


def test_shipped_scenes_parse_equal_under_both_loaders(monkeypatch):
    names = sorted(f.name[:-5] for f in (presets.data_dir() / "scenes").iterdir()
                   if f.name.endswith(".yaml"))
    assert len(names) >= 4

    def parse_all():
        return [load_config(presets.scene_path(n)) for n in names]

    default, pure = _under_both_loaders(monkeypatch, parse_all)
    assert default == pure


def test_presets_equal_under_both_loaders(monkeypatch, file_reads, tmp_path):
    custom = tmp_path / "materials.yaml"
    custom.write_text(MATERIALS_YAML)

    def load_all():
        presets.shipped.cache_clear()
        return presets.shipped(), presets.load_materials(custom)

    default, pure = _under_both_loaders(monkeypatch, load_all)
    # under each loader: the shipped JSON once, and the custom file by path as YAML
    assert file_reads["materials.json"] == 2
    assert file_reads["materials.yaml"] == 2
    assert default == pure
    shipped, by_path = default
    assert by_path == dict(shipped.materials)


# the shipped materials as a material file given by path: PyYAML reads 0.9e9
# (no exponent sign) as a string, which float() takes
MATERIALS_YAML = textwrap.dedent("""\
    materials:
      spraypaint:
        d0_m: 0.1
        refl_coeff: 0.6
        bands:
          - {frequency_hz: 0.9e9, alpha_np_per_m: 0.242437, beta_rad_per_m: 34.295646}
          - {frequency_hz: 2.45e9, alpha_np_per_m: 0.400000, beta_rad_per_m: 93.360369}
          - {frequency_hz: 6.0e9, alpha_np_per_m: 0.625969, beta_rad_per_m: 228.637639}
      cloth:
        d0_m: 0.1
        refl_coeff: 0.6
        bands:
          - {frequency_hz: 0.9e9, alpha_np_per_m: 0.333350, beta_rad_per_m: 37.725210}
          - {frequency_hz: 2.45e9, alpha_np_per_m: 0.550000, beta_rad_per_m: 102.696406}
          - {frequency_hz: 6.0e9, alpha_np_per_m: 0.860707, beta_rad_per_m: 251.501403}
    """)


def test_shipped_json_presets_equal_the_same_data_read_as_yaml(tmp_path):
    custom = tmp_path / "materials.yaml"
    custom.write_text(MATERIALS_YAML)
    assert presets.load_materials(custom) == dict(presets.shipped().materials)
    # the calibration and the version are the shipped file's alone
    custom.write_text("version: 1\ncoupling: {c1: 5.0}\n" + MATERIALS_YAML)
    with pytest.raises(PresetError) as exc:
        presets.load_materials(custom)
    assert exc.value.problems == [
        f"material preset file {custom}, line {n}: a {key!r} section is refused; "
        "a file given by path holds only 'materials'"
        for n, key in ((1, "version"), (2, "coupling"))]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_preset_file_is_package_data():
    import tomllib

    package = Path(surfmimo.__file__).resolve().parent
    pyproject = package.parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("surfmimo is not imported from its source tree")
    globs = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]["surfmimo"]
    shipped = {p for g in globs for p in package.glob(g)}
    files = [p for p in (package / "presets").rglob("*") if p.is_file()]
    assert "materials.json" in {p.name for p in files}
    assert [str(p.relative_to(package)) for p in files if p not in shipped] == []


def test_shipped_presets_cannot_be_changed_by_a_caller():
    materials = presets.load_materials()
    materials.pop("spraypaint")
    assert "spraypaint" in presets.load_materials()
    with pytest.raises(TypeError):
        presets.shipped().materials["spraypaint"] = None
    assert presets.shipped() is presets.shipped()


def test_analysis_section_is_checked_by_the_settings_dataclasses():
    problems = _problems(GOOD + "analysis: {esm_beta: 0, mac_efficiency: 0,"
                                " antenna_height_m: -1, max_image_order: -1, grid: 2.5}\n")
    assert problems == [
        "line 13: 'grid' must be an integer, got 2.5",
        "line 13: max_image_order must be >= 0, got -1",
        "line 13: mac_efficiency must be in (0, 1], got 0.0",
        "line 13: esm_beta must be positive, got 0.0",
        "line 13: antenna_height_m must be >= 0, got -1.0",
    ]
    with pytest.raises(ConfigError) as err:
        LinkSettings(esm_beta=0.0, mac_efficiency=0.0)
    assert len(err.value.problems) == 2


def test_analysis_keys_default_to_the_dataclass_defaults():
    cfg = parse_config(GOOD)
    assert cfg.settings == LinkSettings()
    assert parse_config(GOOD + "analysis: {grid: 32, snr_db: null}\n") == cfg


def test_parsed_channel_params_are_channel_params():
    from surfmimo.channel import ChannelParams

    assert parse_config(GOOD).settings.params == ChannelParams()
    friis = parse_config(GOOD + "analysis: {air_exponent: 1.0}\n")
    assert friis.settings.params == ChannelParams(air_exponent=1.0)


def test_analysis_link_budget_values_must_be_finite():
    problems = _problems(GOOD + "analysis: {snr_db: .nan, tx_power_dbm: .inf,"
                                " noise_floor_dbm_per_hz: -.inf, noise_figure_db: .nan}\n")
    assert problems == [
        "line 13: noise_floor_dbm_per_hz must be finite, got -inf",
        "line 13: noise_figure_db must be finite, got nan",
        "line 13: tx_power_dbm must be finite, got inf",
        "line 13: snr_db must be finite, got nan",
    ]


def test_analysis_channel_params_must_be_finite():
    problems = _problems(GOOD + "analysis: {air_ref_m: .inf, air_exponent: .nan,"
                                " near_field_radius_m: -.inf}\n")
    assert problems == [
        "line 13: air_ref_m must be finite, got inf",
        "line 13: air_exponent must be finite, got nan",
        "line 13: near_field_radius_m must be finite, got -inf",
    ]


def test_invalid_config_problems_equal_under_both_loaders(monkeypatch):
    default, pure = _under_both_loaders(monkeypatch, lambda: _problems(BAD))
    assert default == pure
    assert any(p.startswith("line 2:") for p in pure)


@pytest.mark.parametrize("text, line", [
    ("name: x\n  bad_indent: [\n", 2),
    ("name: x\nnodes: [1, 2\nseed: 3\n", 3),
    ("name: 'open\n", 2),
])
def test_syntax_error_line_under_both_loaders(monkeypatch, text, line):
    default, pure = _under_both_loaders(monkeypatch, lambda: _problems(text))
    for problems in (default, pure):
        assert len(problems) == 1
        assert problems[0].startswith(f"line {line}: ")


def test_merged_key_problem_reports_the_line_it_is_written_on():
    text = GOOD.replace("  width_m: 3.0\n", "  <<: *base\n").replace(
        "name: unit\n", "name: unit\n_base: &base {width_m: wide}\n")
    problems = _problems(text)
    assert "line 2: 'width_m' must be a number, got 'wide'" in problems


def test_valid_config_builds_no_line_index(monkeypatch):
    def refuse(root):
        raise AssertionError("line index built for a valid config")

    monkeypatch.setattr(rio, "_position_index", refuse)
    assert parse_config(GOOD).name == "unit"
    with pytest.raises(AssertionError, match="line index"):
        parse_config(BAD)


# --- hashes -------------------------------------------------------------------


def test_config_hash_stable_and_sensitive():
    a = config_hash(parse_config(GOOD))
    b = config_hash(parse_config(GOOD))
    c = config_hash(parse_config(GOOD.replace("width_m: 3.0", "width_m: 3.5")))
    assert a == b
    assert a != c
    assert len(a) == 16


def test_config_hash_of_dict_is_order_insensitive():
    a = config_hash({"x": 1, "y": 2.0})
    b = config_hash({"y": 2.0, "x": 1})
    c = config_hash({"x": 1, "y": 2.5})
    assert a == b != c


def test_config_hash_refuses_types_without_a_canonical_form():
    for value in ({"x": object()}, {"x": {1, 2}}, {"x": np.float32(1.0)}, {1: "x"},
                  {"x": np.array([1.0])}):
        with pytest.raises(TypeError):
            config_hash(value)


def test_config_hash_tells_close_and_lookalike_values_apart():
    from surfmimo.presets import CouplingConstants

    one = config_hash({"x": 0.1})
    assert one != config_hash({"x": math.nextafter(0.1, 1.0)})  # floats by repr
    assert config_hash({"x": 1}) != config_hash({"x": 1.0}) != config_hash({"x": "1.0"})
    assert config_hash({"x": True}) != config_hash({"x": 1})
    assert config_hash({"x": None}) != config_hash({"x": "None"})
    # a dataclass is its type name and fields, never the dict of its fields
    c = CouplingConstants(0.02, 0.02, 0.02, 0.95)
    fields = {"c1": c.c1, "c2": c.c2, "c3": c.c3,
              "near_field_coupling": c.near_field_coupling}
    assert config_hash(c) != config_hash(fields)
    assert config_hash(c) == config_hash(CouplingConstants(0.02, 0.02, 0.02, 0.95))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


@pytest.mark.parametrize("builtin", [True, False])
@settings(max_examples=60, deadline=None)
@given(value=JSON_VALUES)
def test_config_hash_is_sha256_of_the_canonical_text(builtin, value):
    # SHA-256 comes from the interpreter's built-in module, so that no command
    # loads OpenSSL; hidden, hashlib gives it, and the digest is the same
    text = json.dumps(rio._canonical(value), sort_keys=True, separators=(",", ":"))
    expected = hashlib.sha256((text + surfmimo.__version__).encode()).hexdigest()[:16]
    hidden = {} if builtin else {"_sha2": None, "_sha256": None}
    with mock.patch.dict(sys.modules, hidden):
        assert (rio._sha256() is hashlib.sha256) is not builtin
        assert config_hash(value) == expected


def test_config_hash_looks_up_no_module(monkeypatch):
    # a failed import searches every sys.path entry again, so the SHA-256
    # constructor is resolved once, when io is imported
    from importlib.machinery import PathFinder

    looked_up = []
    real = PathFinder.find_spec
    monkeypatch.setattr(PathFinder, "find_spec", lambda name, path=None, target=None:
                        looked_up.append(name) or real(name, path, target))
    config_hash({"command": "radiation"})
    config_hash({"command": "share"})
    assert looked_up == []


# --- result sets ---------------------------------------------------------------


def test_result_set_round_trip(tmp_path):
    rs = ResultSet(
        ("a", "b", "c", "d"),
        ((math.pi, 1.0000000000000002), (-3, 0), (True, False), (None, "text")),
        {"seed": 1905, "zeta": "last", "alpha": "first"},
    )
    p = tmp_path / "out.csv"
    write_results(rs, p)
    back = read_results(p)
    assert back == rs
    assert back.rows[0][0] == math.pi               # repr round-trips floats
    assert back.rows[1][0] == 1.0000000000000002
    assert [list(map(type, c)) for c in back.cells] == [
        [float, float], [int, int], [bool, bool], [type(None), str]]
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == "# surfmimo-results v2"
    assert lines[1] == "# types: float,int,bool,text"
    assert lines[2:5] == ["# alpha: first", "# seed: 1905", "# zeta: last"]


def test_result_set_written_bytes_deterministic(tmp_path):
    rs = ResultSet(("x", "y"), ((0.1, 2.0), (2, None)), {"b": "2", "a": "1"})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(rs, p1)
    write_results(rs, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _reference_format(v) -> str:
    """The cell formatting write_results used before it dispatched on type."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


_TYPE_NAMES = {int: "int", float: "float", bool: "bool", str: "text"}


def _reference_bytes(columns, rows, metadata) -> bytes:
    """The file write_results wrote when it wrote rows: csv.writer over each
    row's cells, formatted by _reference_format, under a types line naming
    each column's first non-None cell type (text when it has none)."""
    kinds = [next((_TYPE_NAMES[type(v)] for v in col if v is not None), "text")
             for col in zip(*rows)] if rows else ["text"] * len(columns)
    want = io.StringIO()
    want.write("# surfmimo-results v2\n")
    want.write(f"# types: {','.join(kinds)}\n")
    for key in sorted(metadata):
        want.write(f"# {key}: {metadata[key]}\n")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_reference_format(v) for v in row])
    return want.getvalue().encode("utf-8")


# the cells of a column of each type; text, never empty (an empty cell is
# None) and without a carriage return (both are refused), holds the CSV's
# special characters, line breaks that are not CSV's, and the texts of
# other types
_COLUMN_CELLS = {
    type(None): st.none(),
    int: st.integers(),
    float: st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    bool: st.booleans(),
    str: st.text(alphabet=st.sampled_from('ab ,"\'\n;#:0.1-\x0b\x1c\x85\u2028'),
                 min_size=1, max_size=8)
    | st.sampled_from(["0", "-3", "1.5", "nan", "-inf", "true", "false", "none", "0;1"]),
}


@st.composite
def _typed_columns(draw):
    """(columns, cells): 1-4 columns of 0-6 cells, each of one drawn type or None."""
    n_rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(list(_COLUMN_CELLS)), min_size=1, max_size=4))
    cells = [draw(st.lists(_COLUMN_CELLS[k] | st.none(), min_size=n_rows, max_size=n_rows))
             for k in kinds]
    return tuple(f"c{i}" for i in range(len(kinds))), cells


@settings(max_examples=200, deadline=None)
@given(_typed_columns())
def test_written_cells_match_reference_formatting(table):
    from surfmimo import io as rio

    columns, cells = table
    rows = list(zip(*cells))
    want = _reference_bytes(columns, rows, {"k": "v"})
    # the default chunk of rows, and chunks of two rows whose columns can
    # hold None in one chunk and none in the next
    for chunk in (rio._WRITE_ROWS, 2):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(rio, "_WRITE_ROWS", chunk):
            path = os.path.join(tmp, "r.csv")
            write_results(ResultSet(columns, cells, {"k": "v"}), path)
            got = open(path, "rb").read()
        assert got == want


def _same_cells(a: ResultSet, b: ResultSet) -> bool:
    """Whether a and b hold the same columns of cells, each of the same type
    and value (by repr, so NaN equals NaN and 0.0 differs from -0.0)."""
    return a.columns == b.columns and repr(a.cells) == repr(b.cells)


@settings(max_examples=200, deadline=None)
@given(_typed_columns())
def test_typed_columns_read_back_as_written(table):
    rs = ResultSet(*table, {"k": "v"})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csv")
        write_results(rs, path)
        back = read_results(path)
    assert _same_cells(back, rs) and back.metadata == rs.metadata


@pytest.mark.parametrize("cells", [
    (1, 2.0), (True, 1), (1.0, "1.0"), (None, 0, False),         # several types
    (np.float64(1.0), np.float64(2.0)), (np.int64(1),), (np.bool_(True),),
    ((1, 2),), ([0.5],), (1j,),                                    # other types
    ("a", ""), ("a", "x\ry"),                      # an empty text, a carriage return
])
def test_columns_that_would_not_read_back_are_refused(tmp_path, cells):
    path = tmp_path / "r.csv"
    with pytest.raises(ResultIOError, match="column 'bad' holds"):
        write_results(ResultSet(("ok", "bad"), ([0.5] * len(cells), cells), {}), path)
    assert not path.exists()  # refused before the file is opened


def test_files_without_their_column_types_are_refused(tmp_path):
    cases = {
        "# surfmimo-results v1\na,b\n1,x\n": "not a surfmimo results file",
        "# surfmimo-results v2\n": "no '# types:' line",
        "# surfmimo-results v2\n# k: v\na,b\n1,x\n": "no '# types:' line",
        "# surfmimo-results v2\n# types: int\na,b\n1,x\n": r"types \['int'\] do not name",
        "# surfmimo-results v2\n# types: int,text,float\na,b\n1,x\n": "do not name",
        "# surfmimo-results v2\n# types: int,string\na,b\n1,x\n": "do not name",
        "# surfmimo-results v2\n# types: int,text\na,b\n1.5,x\n": "int column 'a'",
        "# surfmimo-results v2\n# types: float,text\na,b\nx,x\n": "float column 'a'",
        "# surfmimo-results v2\n# types: bool,text\na,b\nTrue,x\n": "bool column 'a'",
    }
    for i, (text, message) in enumerate(cases.items()):
        path = tmp_path / f"{i}.csv"
        path.write_text(text)
        with pytest.raises(ResultIOError, match=message):
            read_results(path)
    # a types line is the second line, whatever metadata follows
    path = tmp_path / "types_key.csv"
    path.write_text("# surfmimo-results v2\n# types: text\n# types: int\na\nx\n")
    assert read_results(path) == ResultSet(("a",), (("x",),), {"types": "int"})


def test_result_set_validation_and_read_errors(tmp_path):
    with pytest.raises(ResultIOError, match=r"2 column names need as many columns of cells "
                                            r"of one length, got \[1\]"):
        ResultSet(("a", "b"), ((1,),), {})
    with pytest.raises(ResultIOError, match=r"got \[1, 0\]"):
        ResultSet(("a", "b"), ((1,), ()), {})
    plain = tmp_path / "plain.csv"
    plain.write_text("a,b\n1,2\n")
    with pytest.raises(ResultIOError, match="not a surfmimo results file"):
        read_results(plain)
    headerless = tmp_path / "h.csv"
    headerless.write_text("# surfmimo-results v2\n# types: int\n# k: v\n")
    with pytest.raises(ResultIOError, match="no column header"):
        read_results(headerless)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("# surfmimo-results v2\n# types: int,int\na,b\n1,2\n3\n")
    with pytest.raises(ResultIOError, match="row width 1 does not match 2 columns"):
        read_results(ragged)
    with pytest.raises(ResultIOError, match="cannot read"):
        read_results(tmp_path / "nope.csv")
    with pytest.raises(ResultIOError, match="cannot write"):
        write_results(ResultSet(("a",), ((),), {}), tmp_path / "no" / "dir.csv")


# metadata text that is mostly the characters the header line format uses:
# the separator, the comment mark, spaces and every line break str.splitlines
# knows
_META_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from(" :#ab\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\xa0\u2028\u2029"),
    st.characters()), max_size=6)


def _header_line_reads_back(key, value) -> bool:
    """Whether the item has a key (a line '# : v' names nothing) and the
    header line write_results writes for it is one line that parses back to
    the same key and value."""
    lines = f"# {key}: {value}\n".splitlines()
    k, _, v = lines[0][1:].partition(":")
    return key != "" and len(lines) == 1 and (k.strip(), v.strip()) == (key, value)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_META_TEXT, _META_TEXT, max_size=4))
def test_metadata_reads_back_as_itself_or_is_refused(metadata):
    try:
        rs = ResultSet(("a",), ([1.0, 2.0],), metadata)
    except ResultIOError:
        assert not all(_header_line_reads_back(k, v) for k, v in metadata.items())
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csv")
        write_results(rs, path)
        assert read_results(path) == rs


def test_metadata_that_would_not_read_back_is_refused():
    # a value with a line break once wrote the cells ('a', 1.0, 2.0) under a
    # column named 'lines', and a key with ':' read back as another key
    for metadata in ({"note": "two\nlines"}, {"k:x": "v"}, {"": "v"}, {" k": "v"},
                     {"k": "v "}, {"k\r": "v"}):
        with pytest.raises(ResultIOError, match="would not read back"):
            ResultSet(("a",), ([1.0, 2.0],), metadata)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=4), min_size=1, max_size=3))
@example(["#id", "x"])  # once read back with the first row as its column names
@example(["a\rb", "x"])  # once failed to read at all
@example(["x", "#y"])
@example(["x", 5])  # once read back as the text '5'
def test_column_names_read_back_as_themselves_or_are_refused(names):
    # the header is the first line not starting with '#', and csv writes a
    # carriage return bare, where it reads as a row break
    unreadable = (not all(isinstance(n, str) for n in names) or names[0].startswith("#")
                  or any("\r" in n for n in names))
    try:
        rs = ResultSet(tuple(names), [(1, 2)] * len(names), {})
    except ResultIOError as exc:
        assert unreadable and "would not read back" in str(exc)
        return
    assert not unreadable
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csv")
        write_results(rs, path)
        assert read_results(path) == rs


def test_result_set_is_its_columns():
    rs = ResultSet(("a", "b"), ([1, 2], ("x", None)), {})
    assert rs.cells == ((1, 2), ("x", None))
    assert rs.rows == ((1, "x"), (2, None))
    assert rs.n_rows == 2
    assert ResultSet(("a",), ((),), {}).rows == ()
    # stamping metadata copies no cell: the copy shares every column
    stamped = replace(rs, metadata={"seed": 7})
    assert stamped.metadata == {"seed": "7"}
    assert all(a is b for a, b in zip(stamped.cells, rs.cells))


# --- builders -------------------------------------------------------------------


def _fake_matrix():
    from surfmimo.propagation import FrequencyBand

    entries = np.array([[1e-3 + 0j, 0j], [1j * 1e-4, 2e-3 + 0j]])
    return ChannelMatrix(entries, FrequencyBand(2.437e9, 40e6),
                         (CONTACT, ANTENNA), (CONTACT, CONTACT))


def test_channel_result_set_labels_and_zero_magnitude():
    rs = channel_result_set(_fake_matrix())
    assert rs.columns[:3] == ("subcarrier_index", "rx_port", "tx_port")
    by_ports = {(r[1], r[2]): r for r in rs.rows}
    assert set(by_ports) == {("contact0", "contact0"), ("contact0", "contact1"),
                             ("antenna0", "contact0"), ("antenna0", "contact1")}
    assert by_ports[("contact0", "contact1")][5] == float("-inf")
    assert by_ports[("contact0", "contact0")][5] == pytest.approx(-60.0)


def test_channel_result_set_cells_are_the_per_entry_scalar_forms():
    # one pass over the stacked entries writes, to the last digit, what
    # scalar arithmetic on each entry gives
    cfg = load_config(presets.scene_path("default_3x3"))
    matrix = csi(cfg.scene, cfg.settings.band, 16, 8)
    want = []
    for s, i, j in np.ndindex(matrix.entries.shape):
        h = matrix.entries[s, i, j]
        mag_db = 20.0 * math.log10(abs(h)) if abs(h) > 0 else float("-inf")
        want.append((s, i, j, h.real, h.imag, mag_db, float(np.angle(h))))
    rows = channel_result_set(matrix).rows
    assert [r[0] for r in rows] == [w[0] for w in want]
    assert all(type(v) is float for r in rows for v in r[3:])
    assert [[repr(v) for v in r[3:]] for r in rows] == [
        [repr(float(v)) for v in w[3:]] for w in want]


def test_analyze_result_set_columns():
    rs = analyze_result_set(_fake_matrix(), snr_linear=1e4)
    assert rs.columns == ("subcarrier_index", "frequency_hz", "capacity_bps_hz",
                          "condition_number")
    assert rs.rows[0][2] > 0


def test_result_sets_read_one_matrix_as_a_stack_of_one_tone():
    cfg = load_config(presets.scene_path("default_3x3"))
    s = cfg.settings
    m = build_mimo(cfg.scene, s.band, 8, s.params)
    stack = ChannelMatrix(m.entries[None], m.frequency, m.rx_port_kinds, m.tx_port_kinds)
    assert channel_result_set(m) == channel_result_set(stack)
    assert analyze_result_set(m, 1e3) == analyze_result_set(stack, 1e3)
    assert [r[1] for r in analyze_result_set(m, 1e3).rows] == [s.band.center_hz]
    # the frequency column is the subcarriers csi synthesized at
    tones = csi(cfg.scene, s.band, 5, 8, s.params)
    assert ([r[1] for r in analyze_result_set(tones, 1e3).rows]
            == subcarrier_frequencies(s.band, 5).tolist())


def _link_result(rate=120e6):
    return LinkResult(capacity_bps=3e8, condition_number=12.5,
                      stream_snrs_db=(21.0, 18.0), phy_rate_bps=rate,
                      mode="MIMO-2x2")


def test_sweep_result_set_applies_mac_efficiency():
    rs = sweep_result_set({"surface-2x2": [(0.3048, _link_result())]},
                          mac_efficiency=0.65)
    row = rs.rows[0]
    assert row[0] == "surface-2x2"
    assert row[2] == 1.0                     # distance in feet
    assert row[6] == 120.0                   # PHY stays un-scaled
    assert row[7] == pytest.approx(78.0)     # throughput = phy * mac
    assert row[5] == "21.0;18.0"


def test_separation_result_set_columns():
    rs = separation_result_set({"surface-2x2": [(0.01, _link_result())]}, 0.65)
    assert rs.rows[0][2] == 1.0  # separation in cm
    assert rs.rows[0][7] == pytest.approx(78.0)


def test_aggregate_result_set_has_total_rows():
    plan = scenario2_plan()
    rows = aggregate_result_set([(0.3048, 500e6, [])], plan)
    assert rows.rows[-1][1] == "total"
    assert rows.rows[-1][3] == plan.total_bandwidth_hz
    assert rows.rows[-1][-1] == 500.0


def test_radiation_and_share_result_sets():
    samples = [RadiationSample((0.0, 0.0, 1.0), -40.0, -53.0, 13.0),
               RadiationSample((0.0, 0.0, -1.0), -40.0, -65.0, 25.0)]
    rs = radiation_result_set(samples)
    assert rs.rows[0][3] == "front" and rs.rows[1][3] == "back"
    assert rs.rows[0][5] == -53.0

    share = share_result_set([ShareResult(0, 6, 100e6, 0.5, 50e6)])
    assert share.rows[0] == (0, 6, 100.0, 0.5, 50.0)


def _pulse_fixture():
    from surfmimo.experiments import pulse_profile

    cfg = load_config(presets.scene_path("cloth_10ft"))
    tx = cfg.scene.transmitters()[0].ports[0]
    rx = cfg.scene.receivers()[0].ports[0]
    return pulse_result_set(pulse_profile(cfg.scene, tx, rx, band=cfg.settings.band, grid=8))


def test_pulse_result_set_carries_spread_metadata():
    rs = _pulse_fixture()
    assert rs.columns == ("time_ns", "re", "im", "magnitude")
    assert set(rs.metadata) == {"rms_delay_spread_s", "sample_rate_hz"}
    assert float(rs.metadata["rms_delay_spread_s"]) > 0
    assert rs.metadata["sample_rate_hz"] == repr(4e9)


def _two_tone_matrix():
    m = _fake_matrix()
    return ChannelMatrix(np.stack([m.entries, -1j * m.entries]), m.frequency,
                         m.rx_port_kinds, m.tx_port_kinds)


_DEAD_LINK = LinkResult(capacity_bps=0.0, condition_number=math.inf, stream_snrs_db=(),
                        phy_rate_bps=0.0, mode="MIMO-3x3")

# one small result set from each `*_result_set`, with text, None, bool, int and
# float cells, -inf and empty cells among them
_RESULT_SET_FIXTURES = {
    "channel": lambda: channel_result_set(_two_tone_matrix()),
    "analyze": lambda: analyze_result_set(_two_tone_matrix(), 1e4),
    "sweep": lambda: sweep_result_set(
        {"siso": [(0.3048, _link_result())],
         "surface-3x3": [(0.3048, replace(_link_result(), tx_columns=(0, 2))),
                         (0.6096, _DEAD_LINK)]}, 0.65),
    "separation": lambda: separation_result_set(
        {"surface-2x2": [(0.01, _link_result()), (0.03, _link_result(90e6))],
         "air-mimo": [(0.01, _link_result(60e6))]}, 0.65),
    "aggregate": lambda: aggregate_result_set(
        [(0.3048, 350e6, [ChainResult("5ghz-ch38", 5.19e9, 40e6, False, 0.0, 31.5, 200e6),
                          ChainResult("5ghz-ch54", 5.27e9, 40e6, True, 1.5, 27.25, 150e6)]),
         (0.6096, 0.0, [])], scenario2_plan()),
    "radiation": lambda: radiation_result_set(
        [RadiationSample((0.5, 0.0, 0.25), -40.0, -53.0, 13.0),
         RadiationSample((0.5, 0.0, -0.25), -40.0, -65.0, 25.0)]),
    "share": lambda: share_result_set([ShareResult(0, 6, 100e6, 0.5, 50e6),
                                       ShareResult(1, 11, 150e6, 1.0, 150e6)]),
    "pulse": _pulse_fixture,
}


@pytest.mark.parametrize("kind", sorted(_RESULT_SET_FIXTURES))
def test_result_set_bytes_match_the_row_writer(kind, tmp_path):
    rs = _RESULT_SET_FIXTURES[kind]()
    assert rs.n_rows > 1
    path = tmp_path / "out.csv"
    write_results(rs, path)
    assert path.read_bytes() == _reference_bytes(rs.columns, rs.rows, rs.metadata)


@pytest.mark.parametrize("kind", sorted(_RESULT_SET_FIXTURES))
def test_every_result_set_reads_back_as_written(kind, tmp_path):
    # the sweep's list cells are text: a one-stream tx_columns cell is '0',
    # not the int 0, as a two-stream one is '0;2'
    rs = _RESULT_SET_FIXTURES[kind]()
    path = tmp_path / "out.csv"
    write_results(rs, path)
    back = read_results(path)
    assert back == rs and _same_cells(back, rs)


def test_a_sweep_of_every_mode_reads_back_as_written(tmp_path):
    from surfmimo.experiments import SWEEP_MODES, default_template, multi_mode_sweep

    s = LinkSettings(snr_db=25.0, grid=8, n_subcarriers=2)
    rs = sweep_result_set(multi_mode_sweep(default_template(), (0.3048, 0.6096),
                                           SWEEP_MODES, s), s.mac_efficiency)
    n_streams = rs.cells[rs.columns.index("n_streams")]
    assert 1 in n_streams and max(n_streams) > 1  # one- and multi-stream rows
    path = tmp_path / "sweep.csv"
    write_results(rs, path)
    back = read_results(path)
    assert back == rs and _same_cells(back, rs)
    assert path.read_text().splitlines()[1] == (
        "# types: text,float,float,float,float,text,float,float,int,text")


def test_write_plot_script(tmp_path):
    script = tmp_path / "plot.py"
    write_plot_script("sweep", tmp_path / "sweep.csv", script)
    text = script.read_text()
    compile(text, str(script), "exec")  # emitted code must at least parse
    assert "sweep.csv" in text
    with pytest.raises(ConfigError, match="no plot layout"):
        write_plot_script("mystery", tmp_path / "x.csv", script)
