"""End-to-end CLI runs (in process, and once in a fresh interpreter) and
exit-code contract."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import surfmimo
from surfmimo.cli import EXIT_CONFIG, EXIT_IO, EXIT_MODEL, EXIT_OK, main
from surfmimo.io import read_results

FAST_SWEEP = ["--snr-db", "25", "--grid", "8", "--subcarriers", "2"]


def _tiny_scene(tmp_path, **analysis):
    a = {"grid": 8, "subcarriers": 2, **analysis}
    body = textwrap.dedent("""\
        name: tiny
        surface: {material: spraypaint, width_m: 3.0, height_m: 1.0}
        nodes:
          - {id: tx, role: transmitter, contacts: [[0.5, 0.5]]}
          - {id: rx, role: receiver, contacts: [[1.5, 0.5]]}
        analysis: {%s}
    """) % ", ".join(f"{k}: {v}" for k, v in a.items())
    p = tmp_path / "tiny.yaml"
    p.write_text(body)
    return p


def test_the_commands_load_no_openssl(tmp_path):
    # config_hash takes SHA-256 from the interpreter's built-in module: the
    # hashlib import loaded OpenSSL's libcrypto (~3.6 MB) into every command.
    # share is the exception: numpy's random generator imports secrets, which
    # imports hmac and with it _hashlib
    script = textwrap.dedent("""\
        import sys
        from surfmimo.cli import main

        for name, argv in {
            "sweep": ["sweep", "--mode", "all", "--distances-ft", "1,2", "--grid", "8",
                      "--subcarriers", "2"],
            "channel": ["channel", "--scene", "default_3x3"],
            "pulse": ["pulse", "--scene", "default_3x3"],
            "analyze": ["analyze", "--scene", "default_2x2"],
            "separation": ["separation", "--mode", "all", "--separations-cm", "1,6",
                           "--grid", "8", "--subcarriers", "2"],
            "aggregate": ["aggregate", "--distances-ft", "1"],
            "radiation": ["radiation"],
        }.items():
            assert main(argv + ["--out", f"{sys.argv[1]}/{name}.csv"]) == 0, name
        print(sorted({"_hashlib", "ssl"} & set(sys.modules)))
    """)
    proc = _fresh(script, tmp_path)
    assert proc.stdout.splitlines()[-1] == "[]"  # after the "wrote" lines


def _fresh(script, *args):
    """The completed run of script in a fresh interpreter, which must exit 0."""
    src = str(Path(surfmimo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_only_a_yaml_file_loads_pyyaml(tmp_path):
    # the shipped material presets are JSON: a command given no scene or
    # preset file loads no YAML parser, and a scene loads it when parsed
    script = textwrap.dedent("""\
        import sys
        from surfmimo.cli import main

        for name, argv in {
            "sweep": ["sweep", "--mode", "all", "--distances-ft", "1,2", "--grid", "8",
                      "--subcarriers", "2"],
            "separation": ["separation", "--mode", "all", "--separations-cm", "1,6",
                           "--grid", "8", "--subcarriers", "2"],
            "aggregate": ["aggregate", "--distances-ft", "1"],
            "radiation": ["radiation"],
            "share": ["share", "--channels", "6,11", "--slots", "100"],
            "channel": ["channel", "--scene", "default_3x3"],
        }.items():
            assert main(argv + ["--out", f"{sys.argv[1]}/{name}.csv"]) == 0, name
            print(name, "yaml" in sys.modules)
    """)
    lines = _fresh(script, tmp_path).stdout.splitlines()
    loaded = [line for line in lines if not line.startswith("wrote")]
    assert loaded == ["sweep False", "separation False", "aggregate False",
                      "radiation False", "share False", "channel True"]


MALFORMED = {
    "scene": "name: bad\nsurface: {material: spraypaint, width_m: 3.0, height_m: 1.0}\n"
             "nodes:\n  - {id: tx, role: transmitter\n  - {id: rx}\n",
    "preset": "version: 1\nmaterials:\n  plate: {d0_m: 0.1\n  bad: [\n",
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_a_malformed_first_yaml_file_is_reported(tmp_path, kind):
    # PyYAML is imported inside the functions that parse YAML; the first
    # parse of a process must still catch its syntax error
    path = tmp_path / f"{kind}.yaml"
    path.write_text(MALFORMED[kind])
    script = textwrap.dedent("""\
        import sys
        from surfmimo import presets
        from surfmimo.cli import main
        from surfmimo.errors import PresetError

        assert "yaml" not in sys.modules
        kind, path = sys.argv[1:]
        if kind == "scene":
            print(main(["channel", "--scene", path, "--out", path + ".csv"]))
        else:
            try:
                presets.load_materials(path)
            except PresetError as exc:
                print(exc)
    """)
    proc = _fresh(script, kind, path)
    # the wording after the line depends on whether PyYAML has libyaml
    if kind == "scene":
        assert proc.stdout == f"{EXIT_CONFIG}\n"
        assert proc.stderr.startswith(f"config error: {path}: line 5: ")
    else:
        assert proc.stdout.startswith(f"cannot parse material preset file {path}: ")
        assert "line 4, column 6" in proc.stdout


def test_version_banner(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "surfmimo" in capsys.readouterr().out


def test_version_text_is_built_only_for_version(monkeypatch, capsys):
    from surfmimo import __version__, presets
    from surfmimo.cli import build_parser

    calls = []
    real = presets.shipped
    monkeypatch.setattr(presets, "shipped", lambda: calls.append(1) or real())
    build_parser()
    assert calls == []
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == f"surfmimo {__version__} (presets {real().version})\n"


def test_channel_from_config_path(tmp_path, capsys):
    out = tmp_path / "ch.csv"
    code = main(["channel", "--scene", str(_tiny_scene(tmp_path)),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert f"wrote {out}" in capsys.readouterr().out
    rs = read_results(out)
    assert rs.columns[0] == "subcarrier_index"
    assert len(rs.rows) == 2  # 2 subcarriers x 1x1 matrix
    for key in ("tool_version", "preset_version", "config_hash", "seed", "command"):
        assert key in rs.metadata
    assert rs.metadata["command"] == "channel"


def test_channel_from_preset_name(tmp_path):
    out = tmp_path / "ch.csv"
    assert main(["channel", "--scene", "default_2x2", "--out", str(out)]) == EXIT_OK
    rs = read_results(out)
    ports = {(r[1], r[2]) for r in rs.rows}
    assert ("contact0", "contact0") in ports and ("antenna0", "antenna0") in ports


def test_analyze_prints_summary(tmp_path, capsys):
    out = tmp_path / "an.csv"
    code = main(["analyze", "--scene", str(_tiny_scene(tmp_path)),
                 "--snr-db", "25", "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "capacity" in text and "Mbps" in text
    assert read_results(out).columns[2] == "capacity_bps_hz"


def test_analyze_synthesizes_csi_once(tmp_path, monkeypatch):
    from surfmimo import channel

    calls = []

    def counting_synthesize(*args, **kwargs):
        calls.append(args)
        return synthesize(*args, **kwargs)

    synthesize = channel._synthesize
    monkeypatch.setattr(channel, "_synthesize", counting_synthesize)
    code = main(["analyze", "--scene", str(_tiny_scene(tmp_path)),
                 "--snr-db", "25", "--out", str(tmp_path / "an.csv")])
    assert code == EXIT_OK
    assert len(calls) == 1


def test_sweep_all_modes_synthesizes_twice(tmp_path, monkeypatch):
    from surfmimo import channel

    calls = []
    synthesize = channel._synthesize
    monkeypatch.setattr(channel, "_synthesize",
                        lambda *args: calls.append(args) or synthesize(*args))
    code = main(["sweep", "--mode", "all", "--distances-ft", "1,2", *FAST_SWEEP,
                 "--out", str(tmp_path / "sw.csv")])
    assert code == EXIT_OK
    assert len(calls) == 2  # surface-3x3 (holding siso and surface-2x2) and air-mimo


@pytest.mark.parametrize("command", [
    ["channel"], ["analyze", "--snr-db", "25"], ["pulse", "--duration-ns", "50"],
    ["sweep", "--mode", "siso", "--distances-ft", "1,2"],
])
def test_scene_commands_parse_each_yaml_file_once(tmp_path, monkeypatch, command):
    # the shipped material presets are JSON, so the scene is the one YAML file
    from surfmimo import presets

    presets.shipped.cache_clear()
    parsed = []
    real = presets.load_yaml
    monkeypatch.setattr(presets, "load_yaml", lambda text: parsed.append(text) or real(text))
    scene = _tiny_scene(tmp_path)
    code = main(command + ["--scene", str(scene), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_OK
    assert parsed == [scene.read_text()]


SHIPPED_ONCE = {"materials.json": 1, "mcs_80211.csv": 1}


@pytest.mark.parametrize("command", [
    ["sweep", "--distances-ft", "1,2"], ["separation", "--separations-cm", "1,6"],
])
def test_sweep_commands_parse_presets_once_for_all_modes(tmp_path, file_reads, command):
    code = main(command + ["--mode", "all", *FAST_SWEEP, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_OK
    assert file_reads == SHIPPED_ONCE


@pytest.mark.parametrize("command", [
    ["channel"], ["pulse", "--duration-ns", "50"], ["analyze"],
    ["sweep", "--mode", "all", "--distances-ft", "1,2"],
])
def test_every_scene_command_parses_the_scene_rate_table(tmp_path, file_reads, command):
    from surfmimo import presets

    table = tmp_path / "table.csv"
    table.write_text((presets.data_dir() / "mcs_80211.csv").read_text())
    scene = _tiny_scene(tmp_path, mcs_table=table)
    code = main(command + ["--scene", str(scene), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_OK
    assert file_reads == {**SHIPPED_ONCE, "table.csv": 1}


def test_scene_rate_table_problems_exit_2(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("mcs_index,modulation\n0,BPSK\n")
    for ref in (table, tmp_path / "missing.csv"):
        scene = _tiny_scene(tmp_path, mcs_table=ref)
        assert main(["channel", "--scene", str(scene), "--out",
                     str(tmp_path / "o.csv")]) == EXIT_CONFIG
        assert "line 6: " in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", [
    ["channel"], ["pulse", "--duration-ns", "50"], ["analyze"],
    ["sweep", "--mode", "siso", "--distances-ft", "1,2"],
])
@pytest.mark.parametrize("bad", [{"esm_beta": 0}, {"mac_efficiency": 0}])
def test_scene_commands_reject_analysis_values_alike(tmp_path, capsys, command, bad):
    scene = _tiny_scene(tmp_path, **bad)
    out = tmp_path / "o.csv"
    assert main(command + ["--scene", str(scene), "--out", str(out)]) == EXIT_CONFIG
    (key,) = bad
    assert f"line 6: {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_every_bad_analysis_value_is_listed(tmp_path, capsys):
    scene = _tiny_scene(tmp_path, esm_beta=0, mac_efficiency=1.5, antenna_height_m=-1,
                        max_image_order=-1)
    assert main(["channel", "--scene", str(scene), "--out",
                 str(tmp_path / "o.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    for key in ("esm_beta", "mac_efficiency", "antenna_height_m", "max_image_order"):
        assert sum(f"line 6: {key} must be" in line for line in err) == 1


@pytest.mark.parametrize("command", [
    ["aggregate", "--distances-ft", "1"],
    ["aggregate", "--no-dfs", "--material", "cloth", "--distances-ft", "1"],
    ["share", "--channels", "6,11", "--slots", "100"],
    ["share", "--channels", "6,6", "--solo-rate-mbps", "100,100", "--slots", "100"],
    ["radiation"],
])
def test_band_commands_parse_presets_once(tmp_path, file_reads, command):
    assert main(command + ["--out", str(tmp_path / "o.csv")]) == EXIT_OK
    assert file_reads == SHIPPED_ONCE


def test_shipped_presets_are_parsed_once_per_process(tmp_path, file_reads):
    for command in (["radiation"], ["aggregate", "--distances-ft", "1"],
                    ["channel", "--scene", "default_2x2"],
                    ["sweep", "--mode", "siso", "--distances-ft", "1", *FAST_SWEEP]):
        assert main(command + ["--out", str(tmp_path / "o.csv")]) == EXIT_OK
    assert file_reads == SHIPPED_ONCE


@pytest.mark.parametrize("command", ["aggregate", "radiation", "share"])
def test_commands_without_a_scene_reject_scene(tmp_path, command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scene", "default_2x2", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --scene" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--mode", "surface-2x2", "--distances-ft", "2,4"],
    ["separation", "--mode", "surface-2x2", "--separations-cm", "1"],
])
def test_template_commands_refuse_a_scene_with_obstacles(tmp_path, capsys, command):
    # a sweep rebuilds the link on the scene's bare surface, so it would
    # drop the obstacle and write the rows and config_hash of the scene
    # without it
    text = Path(surfmimo.presets.scene_path("sweep_spraypaint")).read_text()
    bare = tmp_path / "bare.yaml"
    bare.write_text(text)
    blocked = tmp_path / "blocked.yaml"
    blocked.write_text(text + "obstacles:\n  - {x_min: 0.5, y_min: 0.0, x_max: 0.7, "
                       "y_max: 0.6096, kind: metal, perturbation_db: 20.0}\n")
    argv = command + ["--grid", "8", "--subcarriers", "4"]
    out = tmp_path / "o.csv"
    assert main(argv + ["--scene", str(blocked), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{blocked}: obstacles:" in err
    assert not out.exists()
    assert main(argv + ["--scene", str(bare), "--out", str(out)]) == EXIT_OK


def test_sweep_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--mode", "surface-2x2", "--distances-ft", "1,2",
            *FAST_SWEEP]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    rs = read_results(a)
    assert [r[2] for r in rs.rows] == [1.0, 2.0]


def test_sweep_range_and_all_modes(tmp_path):
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--mode", "all", "--distances-ft", "1:2",
                 *FAST_SWEEP, "--out", str(out)]) == EXIT_OK
    rs = read_results(out)
    assert {r[0] for r in rs.rows} == {"siso", "air-mimo", "surface-2x2",
                                       "surface-3x3"}
    assert len(rs.rows) == 8


@pytest.mark.parametrize("command", [
    ["sweep", "--mode", "surface-2x2", "--distances-ft", "1"],
    ["separation", "--separations-cm", "1"],
])
def test_sweep_config_hash_covers_subcarriers_and_scene(tmp_path, command):
    # separation sweeps the default 1-16 ft, so the scenes are 6 and 5.5 m wide
    wide, narrow = tmp_path / "wide.yaml", tmp_path / "narrow.yaml"
    text = _tiny_scene(tmp_path).read_text()
    wide.write_text(text.replace("width_m: 3.0", "width_m: 6.0"))
    narrow.write_text(text.replace("width_m: 3.0", "width_m: 5.5"))

    def config_hash(*flags):
        out = tmp_path / "o.csv"
        assert main(command + ["--snr-db", "25", "--grid", "8", *flags,
                               "--out", str(out)]) == EXIT_OK
        return read_results(out).metadata["config_hash"]

    assert config_hash("--subcarriers", "2") == config_hash("--subcarriers", "2")
    assert config_hash("--subcarriers", "2") != config_hash("--subcarriers", "3")
    assert config_hash("--scene", str(wide)) == config_hash("--scene", str(wide))
    assert config_hash("--scene", str(wide)) != config_hash("--scene", str(narrow))
    assert config_hash("--scene", str(wide)) != config_hash("--subcarriers", "2")


def test_separation_command(tmp_path):
    out = tmp_path / "sep.csv"
    assert main(["separation", "--separations-cm", "1,6",
                 *FAST_SWEEP, "--out", str(out)]) == EXIT_OK
    rs = read_results(out)
    assert [r[2] for r in rs.rows] == [1.0, 6.0]
    assert rs.rows[0][7] == rs.rows[1][7]  # surface mode: separation-insensitive


def test_sweep_with_plot_script(tmp_path):
    out, script = tmp_path / "sw.csv", tmp_path / "plot.py"
    assert main(["sweep", "--mode", "surface-2x2", "--distances-ft", "1",
                 *FAST_SWEEP, "--out", str(out),
                 "--plot-script", str(script)]) == EXIT_OK
    compile(script.read_text(), str(script), "exec")


def test_pulse_command_and_port_validation(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(["pulse", "--duration-ns", "400", "--out", str(out)]) == EXIT_OK
    rs = read_results(out)
    assert rs.columns == ("time_ns", "re", "im", "magnitude")
    assert float(rs.metadata["rms_delay_spread_s"]) > 0

    assert main(["pulse", "--tx-port", "9", "--out", str(out)]) == EXIT_CONFIG
    assert "port index out of range" in capsys.readouterr().err
    for rate in ("0.5", "nan", "inf"):
        assert main(["pulse", "--sample-rate-ghz", rate, "--out", str(out)]) == EXIT_CONFIG


@pytest.mark.parametrize("duration_ns", ["0", "-5", "inf"])
def test_pulse_rejects_a_duration_that_is_not_positive(tmp_path, capsys, duration_ns):
    out = tmp_path / "p.csv"
    assert main(["pulse", "--scene", "default_2x2", f"--duration-ns={duration_ns}",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "duration must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ports", [["--tx-port", "-1"], ["--rx-port", "-2"],
                                   ["--tx-port", "-1", "--rx-port", "-2"]])
def test_pulse_rejects_negative_port_indices(tmp_path, capsys, ports):
    out = tmp_path / "p.csv"
    assert main(["pulse", "--scene", "default_3x3", *ports, "--out", str(out)]) == EXIT_CONFIG
    assert "port index out of range: tx has 3, rx has 3" in capsys.readouterr().err
    assert not out.exists()


def test_pulse_ports_index_every_node_in_the_order_channel_labels_them(tmp_path):
    # channel labels the contact of the second receiver contact1, so pulse
    # --rx-port 1 is that port, as if the scene held that receiver alone
    nodes = {"rxa": "  - {id: rxa, role: receiver, contacts: [[1.5, 0.3]]}\n",
             "rxb": "  - {id: rxb, role: receiver, contacts: [[1.5, 0.7]]}\n"}

    def scene(name, *receivers):
        p = tmp_path / f"{name}.yaml"
        p.write_text("surface: {material: spraypaint, width_m: 3.0, height_m: 1.0}\n"
                     "nodes:\n  - {id: tx, role: transmitter, contacts: [[0.5, 0.5]]}\n"
                     + "".join(nodes[r] for r in receivers)
                     + "analysis: {grid: 8, subcarriers: 2}\n")
        return str(p)

    def body(path):
        return [line for line in Path(path).read_text().splitlines()
                if not line.startswith("# config_hash")]

    both, alone = scene("both", "rxa", "rxb"), scene("alone", "rxb")
    out = tmp_path / "ch.csv"
    assert main(["channel", "--scene", both, "--out", str(out)]) == EXIT_OK
    assert {row[1] for row in read_results(out).rows} == {"contact0", "contact1"}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["pulse", "--scene", both, "--rx-port", "1", "--out", str(a)]) == EXIT_OK
    assert main(["pulse", "--scene", alone, "--out", str(b)]) == EXIT_OK
    assert body(a) == body(b)


SECTIONS = {"coupling": "coupling: {c1: 5.0, c2: 0.02, c3: 0.02, near_field_coupling: 0.95}",
            "version": "version: 2"}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_a_material_file_given_by_path_holds_only_materials(tmp_path, capsys, section):
    # the calibration is the shipped file's alone: a coupling section here was
    # read, checked and then dropped without a word
    plate = ("materials:\n  plate: {d0_m: 0.1, refl_coeff: 0.5, bands: ["
             "{frequency_hz: 1.0e9, alpha_np_per_m: 0.3, beta_rad_per_m: 40.0}, "
             "{frequency_hz: 6.0e9, alpha_np_per_m: 0.6, beta_rad_per_m: 240.0}]}\n")
    material = tmp_path / "plate.yaml"
    scene = tmp_path / "scene.yaml"
    scene.write_text(_tiny_scene(tmp_path).read_text().replace("spraypaint", str(material)))
    out = tmp_path / "o.csv"
    material.write_text(plate)
    assert main(["channel", "--scene", str(scene), "--out", str(out)]) == EXIT_OK
    out.unlink()
    capsys.readouterr()
    material.write_text(plate + SECTIONS[section] + "\n")
    assert main(["channel", "--scene", str(scene), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {scene}: line 2: material preset file {material}, line 3: a "
        f"{section!r} section is refused; a file given by path holds only 'materials'\n")
    assert not out.exists()


def test_aggregate_command(tmp_path):
    out = tmp_path / "agg.csv"
    assert main(["aggregate", "--distances-ft", "1", "--out", str(out)]) == EXIT_OK
    rs = read_results(out)
    assert rs.metadata["plan"] == "scenario1"
    assert rs.metadata["total_bandwidth_mhz"] == "260.0"
    assert len(rs.rows) == 8  # 7 chains + total
    total = [r for r in rs.rows if r[1] == "total"][0]
    assert total[-1] == 1286.7

    assert main(["aggregate", "--no-dfs", "--distances-ft", "1",
                 "--out", str(out)]) == EXIT_OK
    assert read_results(out).metadata["plan"] == "scenario2"


def test_radiation_command(tmp_path):
    out = tmp_path / "rad.csv"
    assert main(["radiation", "--front-db", "10", "--back-db", "20",
                 "--out", str(out)]) == EXIT_OK
    rs = read_results(out)
    offsets = {r[3]: r[6] for r in rs.rows}
    assert offsets == {"front": 10.0, "back": 20.0}
    for r in rs.rows:
        assert r[5] == r[4] - r[6]


def test_share_command(tmp_path):
    out = tmp_path / "sh.csv"
    assert main(["share", "--channels", "6,6", "--slots", "2000",
                 "--solo-rate-mbps", "100,100", "--out", str(out)]) == EXIT_OK
    rs = read_results(out)
    assert len(rs.rows) == 2
    assert rs.rows[0][3] + rs.rows[1][3] == 1.0
    assert main(["share", "--channels", "6,six", "--out", str(out)]) == EXIT_CONFIG
    assert main(["share", "--channels", "6.7,6", "--solo-rate-mbps", "100,100",
                 "--out", str(out)]) == EXIT_CONFIG
    assert main(["share", "--channels", "6.0,11", "--slots", "2000",
                 "--solo-rate-mbps", "100,100", "--out", str(out)]) == EXIT_OK
    assert [r[1] for r in read_results(out).rows] == [6, 11]
    assert main(["share", "--channels", "6,6", "--solo-rate-mbps", "100",
                 "--out", str(out)]) == EXIT_CONFIG


@pytest.mark.parametrize("command, key", [
    (["sweep", "--mode", "siso", "--distances-ft", "1", "--snr-db", "nan"], "snr_db"),
    (["sweep", "--mode", "siso", "--distances-ft", "1", "--snr-db", "inf"], "snr_db"),
    (["sweep", "--mode", "siso", "--distances-ft", "1", "--tx-power-dbm", "nan"],
     "tx_power_dbm"),
    (["separation", "--separations-cm", "1", "--snr-db=-inf"], "snr_db"),
    (["analyze", "--snr-db", "nan"], "snr_db"),
    (["aggregate", "--distances-ft", "1", "--tx-power-dbm", "nan"], "tx_power_dbm"),
    (["separation", "--separations-cm", "inf", *FAST_SWEEP], "antenna_height_m"),
    (["separation", "--mode", "air-mimo", "--separations-cm", "inf", *FAST_SWEEP],
     "air_antenna_spacing_m"),
])
def test_non_finite_link_budget_flags_exit_2(tmp_path, capsys, command, key):
    out = tmp_path / "o.csv"
    assert main(command + ["--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["snr_db", "tx_power_dbm", "noise_floor_dbm_per_hz",
                                 "noise_figure_db"])
def test_non_finite_link_budget_analysis_values_exit_2(tmp_path, capsys, key):
    out = tmp_path / "o.csv"
    scene = str(_tiny_scene(tmp_path, **{key: ".nan"}))
    assert main(["analyze", "--scene", scene, "--out", str(out)]) == EXIT_CONFIG
    assert f"line 6: {key} must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, shown", [
    ("esm_beta", ".inf", "inf"), ("esm_beta", ".nan", "nan"), ("antenna_height_m", ".inf", "inf"),
    ("contact_spacing_m", ".nan", "nan"), ("air_antenna_spacing_m", ".nan", "nan"),
    ("air_antenna_spacing_m", "-.inf", "-inf"),
])
def test_non_finite_link_settings_exit_2_at_the_analysis_line(tmp_path, capsys, key, value,
                                                              shown):
    # refused where the scene is read: an infinite beta used to pool every
    # stream SNR to nan and a live link to 0 bps, and the geometry values to
    # fail only after the synthesis
    out = tmp_path / "o.csv"
    scene = str(_tiny_scene(tmp_path, **{key: value}))
    assert main(["sweep", "--scene", scene, "--mode", "all", "--distances-ft", "1",
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"line 6: {key} must be finite, got {shown}" in err
    assert err.count(f"{key} must") == 1  # not named again by its range check
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("contact_spacing_m", "0"), ("contact_spacing_m", "-0.4"), ("air_antenna_spacing_m", "0"),
])
def test_non_positive_spacings_exit_2_at_the_analysis_line(tmp_path, capsys, key, value):
    # these used to run: the surface-3x3 row of spacing 0 read kappa = inf
    # with two streams, -0.4 three streams, and air-mimo at 0 one stream
    out = tmp_path / "o.csv"
    scene = str(_tiny_scene(tmp_path, **{key: value}))
    assert main(["sweep", "--scene", scene, "--mode", "all", "--distances-ft", "1",
                 "--out", str(out)]) == EXIT_CONFIG
    assert f"line 6: {key} must be positive, got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["all", "air-mimo"])
def test_separation_zero_exits_2_where_it_sets_the_air_spacing(tmp_path, capsys, mode):
    out = tmp_path / "o.csv"
    assert main(["separation", "--mode", mode, "--separations-cm", "0", *FAST_SWEEP,
                 "--out", str(out)]) == EXIT_CONFIG
    assert ("config error: air_antenna_spacing_m must be positive, got 0.0"
            in capsys.readouterr().err)
    assert not out.exists()
    # a surface mode's separation is the antenna height, and a height of 0 is legal
    assert main(["separation", "--mode", "surface-2x2", "--separations-cm", "0",
                 *FAST_SWEEP, "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("command", [["sweep", "--mode", "siso", "--distances-ft", "1"],
                                     ["separation", "--separations-cm", "1"]])
def test_material_is_refused_with_a_scene(tmp_path, capsys, command):
    # the scene sets the surface, so a --material beside it would be ignored
    out = tmp_path / "o.csv"
    for material in ("nosuch", "spraypaint"):
        assert main(command + ["--scene", "default_2x2", "--material", material,
                               "--out", str(out)]) == EXIT_CONFIG
        assert "--material cannot be given with --scene" in capsys.readouterr().err
        assert not out.exists()
    # without a scene the default surface is spraypaint, named or not
    named = tmp_path / "named.csv"
    assert main(command + [*FAST_SWEEP, "--out", str(out)]) == EXIT_OK
    assert main(command + [*FAST_SWEEP, "--material", "spraypaint", "--out", str(named)]) == EXIT_OK
    assert out.read_bytes() == named.read_bytes()


@pytest.mark.parametrize("command", ["channel", "analyze", "pulse"])
@pytest.mark.parametrize("key, value, shown", [("air_exponent", ".nan", "nan"),
                                               ("air_ref_m", ".inf", "inf"),
                                               ("near_field_radius_m", ".nan", "nan")])
def test_non_finite_channel_params_exit_2_at_the_analysis_line(tmp_path, capsys, command,
                                                               key, value, shown):
    # refused where the scene is read, before any synthesis
    out = tmp_path / "o.csv"
    scene = str(_tiny_scene(tmp_path, **{key: value}))
    assert main([command, "--scene", scene, "--out", str(out)]) == EXIT_CONFIG
    assert f"line 6: {key} must be finite, got {shown}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["channel", "pulse"])
@pytest.mark.parametrize("rx_antenna, perturbation_db, message", [
    ("[0.273, 0.3048, .nan]", "2.0", "antenna 0 at (0.273, 0.3048, nan) has a non-finite"),
    ("[.inf, 0.3048, 0.02]", "2.0", "antenna 0 at (inf, 0.3048, 0.02) has a non-finite"),
    ("[0.273, 0.3048, 0.02]", ".nan", "obstacle 0: perturbation_db must be >= 0"),
], ids=["antenna-z-nan", "antenna-x-inf", "obstacle-loss-nan"])
def test_non_finite_scene_geometry_exits_2(tmp_path, capsys, command, rx_antenna,
                                           perturbation_db, message):
    # these used to pass the scene checks: pulse then died in a traceback or
    # wrote nan rows, and channel exited 3 on a non-finite matrix
    scene = tmp_path / "scene.yaml"
    scene.write_text(textwrap.dedent(f"""\
        name: nonfinite
        surface: {{material: spraypaint, width_m: 1.2, height_m: 0.6096}}
        nodes:
          - {{id: tx, role: transmitter, contacts: [[0.15, 0.3048]], antennas: [[0.15, 0.3048, 0.02]]}}
          - {{id: rx, role: receiver, contacts: [[0.9, 0.3048]], antennas: [{rx_antenna}]}}
        obstacles:
          - {{x_min: 0.4, y_min: 0.1, x_max: 0.55, y_max: 0.5, kind: wood, perturbation_db: {perturbation_db}}}
        analysis: {{grid: 8, subcarriers: 2}}
    """))
    out = tmp_path / "o.csv"
    assert main([command, "--scene", str(scene), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, code, message", [
    (["radiation", "--front-db", "nan"], EXIT_CONFIG, "radiation offsets must be >= 0"),
    (["radiation", "--back-db", "nan"], EXIT_CONFIG, "radiation offsets must be >= 0"),
    (["radiation", "--tx-power-dbm", "nan"], EXIT_CONFIG, "tx_power_dbm must be finite"),
    (["radiation", "--tx-power-dbm", "inf"], EXIT_CONFIG, "tx_power_dbm must be finite"),
    (["share", "--channels", "6,6", "--solo-rate-mbps", "nan,1"], EXIT_CONFIG,
     "solo_rate_bps must be finite and >= 0"),
    (["share", "--channels", "6,6", "--solo-rate-mbps", "inf,1"], EXIT_CONFIG,
     "solo_rate_bps must be finite and >= 0"),
    (["share", "--channels", "6,6", "--solo-rate-mbps=-1,1"], EXIT_CONFIG,
     "solo_rate_bps must be finite and >= 0"),
    (["radiation", "--front-db=-1"], EXIT_CONFIG, "radiation offsets must be >= 0"),
    (["share", "--slots", "0"], EXIT_CONFIG, "n_slots must be positive, got 0"),
])
def test_non_finite_radiation_and_share_values_are_refused(tmp_path, capsys, command,
                                                           code, message):
    out = tmp_path / "o.csv"
    assert main(command + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["channel"], ["analyze"], ["pulse"],
    ["sweep", "--mode", "siso", "--distances-ft", "1", *FAST_SWEEP],
    ["separation", "--mode", "siso", "--separations-cm", "1", *FAST_SWEEP],
    ["aggregate", "--distances-ft", "1"], ["radiation"],
    ["share", "--channels", "6,11", "--slots", "100"],
])
def test_a_negative_seed_exits_2_on_every_command(tmp_path, capsys, command):
    # share crashed in numpy's seeding, and the other commands recorded the seed
    if command[0] in ("channel", "analyze", "pulse"):
        command = command + ["--scene", str(_tiny_scene(tmp_path))]
    out = tmp_path / "o.csv"
    assert main(command + ["--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_bad_scene_inputs_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    bad = tmp_path / "bad.yaml"
    bad.write_text("surface: {material: spraypaint}\n")
    assert main(["channel", "--scene", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    nan_band = tmp_path / "nan_band.yaml"
    nan_band.write_text(_tiny_scene(tmp_path).read_text() + "band: {center_hz: .nan}\n")
    for command in ("channel", "pulse"):
        assert main([command, "--scene", str(nan_band), "--out", str(out)]) == EXIT_CONFIG
        assert "center_hz must be positive, got nan" in capsys.readouterr().err
    assert main(["channel", "--scene", "no_such_preset",
                 "--out", str(out)]) == EXIT_CONFIG


@pytest.mark.parametrize("analysis", [{"esm_beta": 0}, {"esm_beta": -2},
                                      {"max_image_order": -1}])
def test_analysis_values_outside_the_model_exit_2(tmp_path, capsys, analysis):
    out = tmp_path / "o.csv"
    scene = str(_tiny_scene(tmp_path, **analysis))
    assert main(["analyze", "--scene", scene, "--out", str(out)]) == EXIT_CONFIG
    (key,) = analysis
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--distances-ft", "16:1"], ["sweep", "--distances-ft", ","],
    ["aggregate", "--distances-ft", "9:1"], ["separation", "--separations-cm", "6:1"],
])
def test_reversed_or_empty_lists_exit_2(tmp_path, capsys, command):
    out = tmp_path / "o.csv"
    assert main([*command, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {command[1]}" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exits_4(tmp_path):
    dest = tmp_path / "missing-dir" / "out.csv"
    assert main(["radiation", "--out", str(dest)]) == EXIT_IO


def test_help_reads_no_preset_file(tmp_path, monkeypatch, capsys):
    from surfmimo import presets

    presets.shipped.cache_clear()
    monkeypatch.setattr(presets, "data_dir", lambda: tmp_path)  # holds no presets
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: surfmimo" in capsys.readouterr().out
