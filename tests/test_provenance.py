"""Provenance: a CSV's config_hash is the hash of the inputs its command ran.

Each command hashes ``{"command": name, **inputs}``, where the inputs are
the exact arguments it passed to the library.  Equal inputs must give equal
hashes, and a change to any one of them a different hash.  The seed is
recorded from --seed, else the scene config, else the default, and only
``share``, which draws from it, hashes it.
"""

import copy
import math
import textwrap
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfmimo import cli
from surfmimo import io as rio
from surfmimo.cli import EXIT_OK, main
from surfmimo.io import DEFAULT_SEED, config_hash, read_results

FAST = ["--snr-db", "25", "--grid", "8", "--subcarriers", "2"]


def _scene(tmp_path, seed=None):
    body = textwrap.dedent("""\
        name: two-port
        surface: {material: spraypaint, width_m: 1.2, height_m: 0.6}
        nodes:
          - {id: tx, role: transmitter, contacts: [[0.2, 0.3]], antennas: [[0.2, 0.3, 0.02]]}
          - {id: rx, role: receiver, contacts: [[0.5, 0.3]], antennas: [[0.5, 0.3, 0.02]]}
        analysis: {grid: 8, subcarriers: 2}
    """)
    p = tmp_path / f"scene-{seed}.yaml"
    p.write_text(body if seed is None else body + f"seed: {seed}\n")
    return str(p)


def _commands(scene):
    return [
        ["channel", "--scene", scene],
        ["analyze", "--scene", scene, "--snr-db", "20"],
        ["pulse", "--scene", scene, "--duration-ns", "40", "--tx-port", "1"],
        ["sweep", "--mode", "all", "--distances-ft", "1,2", *FAST],
        ["separation", "--mode", "all", "--separations-cm", "1", *FAST],
        ["aggregate", "--distances-ft", "1"],
        ["radiation", "--front-db", "12"],
        ["share", "--channels", "6,11", "--solo-rate-mbps", "100,80", "--slots", "50"],
    ]


def _run(tmp_path, argv):
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    return read_results(out).metadata


# the library call each command makes with its resolved inputs as keywords
RUNNERS = {"channel": "csi", "pulse": "pulse_profile", "sweep": "multi_mode_sweep",
           "separation": "multi_mode_separation_sweep", "aggregate": "aggregate_sweep",
           "radiation": "radiation_benchmark", "share": "share_sim"}


@pytest.fixture(scope="module")
def resolved(tmp_path_factory):
    """({command: [the value main hashed, on each of two runs]},
    {command: [(library function, args, kwargs), ...] of its first run})."""
    tmp = tmp_path_factory.mktemp("provenance")
    scene = _scene(tmp)
    hashed, ran = {}, {}
    real = rio.config_hash

    def recording(value):
        hashed.setdefault(value["command"], []).append(value)
        return real(value)

    def spy(name):
        fn = getattr(cli, name)

        def call(*args, **kwargs):
            if command not in hashed:  # the first run, which main hashes after
                ran.setdefault(command, []).append((name, args, kwargs))
            return fn(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rio, "config_hash", recording)
        for name in {*RUNNERS.values(), "analyze_link"}:
            mp.setattr(cli, name, spy(name))
        for argv in _commands(scene) * 2:
            command = argv[0]
            _run(tmp, argv)
    return hashed, ran


def _leaves(value, path=()):
    """(path, value) of every scalar inside value."""
    if is_dataclass(value):
        for f in fields(value):
            yield from _leaves(getattr(value, f.name), path + (f.name,))
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


def _with(value, path, leaf):
    """value with the scalar at path replaced by leaf; dataclasses are copied
    without running their checks, since a hash must not depend on them."""
    if not path:
        return leaf
    key, rest = path[0], path[1:]
    if is_dataclass(value):
        out = copy.copy(value)
        object.__setattr__(out, key, _with(getattr(value, key), rest, leaf))
        return out
    if isinstance(value, dict):
        return {**value, key: _with(value[key], rest, leaf)}
    items = list(value)
    items[key] = _with(items[key], rest, leaf)
    return type(value)(items)


def _changed(leaf):
    """The nearest different value of the same kind."""
    if leaf is None:
        return 0.0
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, int):
        return leaf + 1
    if isinstance(leaf, float):
        return math.nextafter(leaf, math.inf) if math.isfinite(leaf) else 0.0
    return leaf + "'"


def _equal_copy(leaf):
    """An equal leaf that is a different object where Python allows one."""
    if isinstance(leaf, float):
        return float(repr(leaf))
    if isinstance(leaf, str):
        return "".join(list(leaf))
    return leaf


def test_every_command_hashes_what_it_runs(resolved):
    hashed, ran = resolved
    assert sorted(hashed) == sorted(a[0] for a in _commands("s"))
    for command, (first, second) in hashed.items():
        assert first == second  # equal flags resolve to equal inputs
        assert config_hash(first) == config_hash(second)
        inputs = {k: v for k, v in first.items() if k != "command"}
        if command in RUNNERS:
            assert ran[command] == [(RUNNERS[command], (), inputs)]
    s = hashed["analyze"][0]["settings"]
    (_, csi_args, _), (_, link_args, _) = ran["analyze"]
    assert csi_args == (hashed["analyze"][0]["scene"], s.band, s.n_subcarriers, s.grid,
                        s.params)
    assert link_args[1] == s
    assert "seed" in hashed["share"][0]
    assert all("seed" not in v[0] for c, v in hashed.items() if c != "share")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_changing_any_one_input_changes_the_hash(resolved, data):
    hashed, _ = resolved
    command = data.draw(st.sampled_from(sorted(hashed)))
    value = hashed[command][0]
    path, leaf = data.draw(st.sampled_from(list(_leaves(value))), label="leaf")
    assert config_hash(_with(value, path, _changed(leaf))) != config_hash(value)
    assert config_hash(_with(value, path, _equal_copy(leaf))) == config_hash(value)
    reordered = dict(reversed(list(value.items())))
    assert config_hash(reordered) == config_hash(value)


# --- regressions: runs with different rows that once shared a hash ----------


def test_snr_override_is_hashed(tmp_path):
    analyze = ["analyze", "--scene", "default_2x2"]
    at_10 = _run(tmp_path, analyze + ["--snr-db", "10"])["config_hash"]
    assert at_10 == _run(tmp_path, analyze + ["--snr-db", "10"])["config_hash"]
    assert at_10 != _run(tmp_path, analyze + ["--snr-db", "20"])["config_hash"]


def test_channel_and_analyze_of_one_scene_differ(tmp_path):
    channel = _run(tmp_path, ["channel", "--scene", "default_2x2"])["config_hash"]
    analyze = _run(tmp_path, ["analyze", "--scene", "default_2x2"])["config_hash"]
    assert channel != analyze


def test_pulse_sample_rate_and_ports_are_hashed(tmp_path):
    at_4 = _run(tmp_path, ["pulse", "--scene", "cloth_10ft"])["config_hash"]
    at_8 = _run(tmp_path, ["pulse", "--scene", "cloth_10ft", "--sample-rate-ghz", "8"])
    assert at_4 != at_8["config_hash"]
    pulse = ["pulse", "--scene", "default_2x2", "--duration-ns", "40"]
    hashes = {_run(tmp_path, pulse + ports)["config_hash"]
              for ports in ([], ["--tx-port", "1"], ["--rx-port", "1"])}
    assert len(hashes) == 3


# --- the seed -------------------------------------------------------------------


def test_seed_is_the_flag_else_the_scene_config_else_the_default(tmp_path):
    scene = _scene(tmp_path, seed=7)
    from_config = _run(tmp_path, ["channel", "--scene", scene])
    from_flag = _run(tmp_path, ["channel", "--scene", scene, "--seed", "3"])
    assert from_config["seed"] == "7" and from_flag["seed"] == "3"
    assert from_config["config_hash"] == from_flag["config_hash"]  # channel draws nothing
    assert _run(tmp_path, ["radiation"])["seed"] == str(DEFAULT_SEED)
    sweep = ["sweep", "--mode", "siso", "--scene", scene, "--distances-ft", "1", *FAST]
    assert _run(tmp_path, sweep)["seed"] == "7"


def test_only_share_hashes_the_seed(tmp_path):
    share = ["share", "--channels", "6,6", "--solo-rate-mbps", "100,100", "--slots", "50"]
    one, two = (_run(tmp_path, share + ["--seed", s]) for s in ("1", "2"))
    assert (one["seed"], two["seed"]) == ("1", "2")
    assert one["config_hash"] != two["config_hash"]
    radiation = [_run(tmp_path, ["radiation", "--seed", s]) for s in ("1", "2")]
    assert radiation[0]["config_hash"] == radiation[1]["config_hash"]
