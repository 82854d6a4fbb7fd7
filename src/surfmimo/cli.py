"""Command-line interface.

Exit codes group failures by category: 0 success, 2 configuration problems
(bad config files, presets, flags), 3 model-domain errors (invalid physics
inputs, singular channels), 4 I/O failures.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

from . import __version__, presets
from . import io as rio
from .channel import _scene_ports, csi
from .errors import ConfigError, ResultIOError, SurfMimoError
from .experiments import (
    FOOT_M,
    MODE_2X2,
    SWEEP_MODES,
    LinkSettings,
    RadiationProfile,
    SharingConfig,
    SharingPair,
    aggregate_sweep,
    aggregate_template,
    aggregation_plan,
    analyze_link,
    default_template,
    multi_mode_separation_sweep,
    multi_mode_sweep,
    pulse_profile,
    radiation_benchmark,
    share_sim,
    share_template,
)
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_IO = 4


def _version_string() -> str:
    return f"surfmimo {__version__} (presets {presets.shipped().version})"


class _VersionAction(argparse.Action):
    """``--version`` that reads the preset version only when the flag is given."""

    def __init__(self, option_strings, dest):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_string())
        parser.exit()


def _parse_float_list(text: str, flag: str):
    """Comma list ('1,2,3') or inclusive integer range ('1:16'), not empty."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":")
            values = [float(v) for v in range(int(lo), int(hi) + 1)]
        else:
            values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError([f"{flag}: cannot parse {text!r} ({exc})"]) from exc
    if not values:
        raise ConfigError([f"{flag}: {text!r} gives no values"])
    return values


def _load_scene_config(ref: str) -> rio.ScenarioConfig:
    """A config path, or a shipped scene preset name."""
    if os.path.exists(ref):
        return rio.load_config(ref)
    return rio.load_config(presets.scene_path(ref))


def _seed(args, cfg=None) -> int:
    """--seed when given, else the scene config's seed, else DEFAULT_SEED.
    A negative --seed is refused, as a config's seed is."""
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError([f"--seed must be a non-negative integer, got {args.seed}"])
        return args.seed
    return rio.DEFAULT_SEED if cfg is None else cfg.seed


def _sweep_settings(args) -> tuple:
    """(template, settings, seed) from --scene or the sweep-style flags."""
    cfg = None
    if args.scene and args.material is not None:
        raise ConfigError(["--material cannot be given with --scene: the scene sets the surface"])
    if args.scene:
        cfg = _load_scene_config(args.scene)
        try:
            template, settings = cfg.template(), cfg.settings
        except ConfigError as exc:
            raise ConfigError([f"{args.scene}: {p}" for p in exc.problems]) from exc
    else:
        template = default_template() if args.material is None else default_template(args.material)
        settings = LinkSettings()
    overrides = {"tx_power_dbm": args.tx_power_dbm, "snr_db": args.snr_db,
                 "grid": args.grid, "n_subcarriers": args.subcarriers}
    settings = replace(settings, **{k: v for k, v in overrides.items() if v is not None})
    return template, settings, _seed(args, cfg)


# --- subcommand bodies ----------------------------------------------------------
#
# Each body resolves its inputs once into the exact arguments it passes to the
# library, runs it, and returns (inputs, rows, seed); main writes the rows with
# provenance whose config_hash is the hash of those inputs.


def _cmd_channel(args) -> tuple:
    cfg = _load_scene_config(args.scene)
    s = cfg.settings
    inputs = {"scene": cfg.scene, "band": s.band, "n_subcarriers": s.n_subcarriers,
              "grid": s.grid, "params": s.params}
    return inputs, rio.channel_result_set(csi(**inputs)), _seed(args, cfg)


def _cmd_analyze(args) -> tuple:
    cfg = _load_scene_config(args.scene)
    settings = cfg.settings
    if args.snr_db is not None:
        settings = replace(settings, snr_db=args.snr_db)
    inputs = {"scene": cfg.scene, "settings": settings}
    matrix = csi(cfg.scene, settings.band, settings.n_subcarriers, settings.grid,
                 settings.params)
    result = analyze_link(matrix, settings)
    print(
        f"{result.mode}: capacity {result.capacity_bps / 1e6:.1f} Mbps, "
        f"condition {result.condition_number:.3g}, "
        f"phy rate {result.phy_rate_bps / 1e6:.1f} Mbps"
    )
    rs = rio.analyze_result_set(matrix, settings.snr_linear())
    return inputs, rs, _seed(args, cfg)


def _modes(args) -> tuple:
    return SWEEP_MODES if args.mode == "all" else (args.mode,)


def _cmd_sweep(args) -> tuple:
    template, settings, seed = _sweep_settings(args)
    feet = _parse_float_list(args.distances_ft, "--distances-ft")
    inputs = {"template": template, "distances_m": tuple(d * FOOT_M for d in feet),
              "modes": _modes(args), "settings": settings}
    rs = rio.sweep_result_set(multi_mode_sweep(**inputs), settings.mac_efficiency)
    return inputs, rs, seed


def _cmd_separation(args) -> tuple:
    template, settings, seed = _sweep_settings(args)
    cm = _parse_float_list(args.separations_cm, "--separations-cm")
    inputs = {"template": template, "separations_m": tuple(s / 100.0 for s in cm),
              "modes": _modes(args), "settings": settings}
    rs = rio.separation_result_set(multi_mode_separation_sweep(**inputs),
                                   settings.mac_efficiency)
    return inputs, rs, seed


def _cmd_pulse(args) -> tuple:
    cfg = _load_scene_config(args.scene)
    # the ports in the order of the channel matrix and the channel command's labels
    rx, _, tx, _ = _scene_ports(cfg.scene)
    if not (0 <= args.tx_port < len(tx) and 0 <= args.rx_port < len(rx)):
        raise ConfigError([f"port index out of range: tx has {len(tx)}, rx has {len(rx)}"])
    inputs = {
        "scene": cfg.scene, "tx_port": tx[args.tx_port],
        "rx_port": rx[args.rx_port], "band": cfg.settings.band,
        "sample_rate_hz": args.sample_rate_ghz * 1e9,
        "duration_s": None if args.duration_ns is None else args.duration_ns * 1e-9,
        "grid": cfg.settings.grid, "params": cfg.settings.params,
    }
    rs = rio.pulse_result_set(pulse_profile(**inputs))
    return inputs, rs, _seed(args, cfg)


def _cmd_aggregate(args) -> tuple:
    settings = LinkSettings()
    if args.tx_power_dbm is not None:
        settings = replace(settings, tx_power_dbm=args.tx_power_dbm)
    feet = _parse_float_list(args.distances_ft, "--distances-ft")
    inputs = {"plan": aggregation_plan(no_dfs=args.no_dfs),
              "distances_m": tuple(d * FOOT_M for d in feet),
              "template": aggregate_template(args.material),
              "settings": settings}
    rs = rio.aggregate_result_set(aggregate_sweep(**inputs), inputs["plan"])
    return inputs, rs, _seed(args)


def _cmd_radiation(args) -> tuple:
    inputs = {"profile": RadiationProfile(args.front_db, args.back_db),
              "tx_power_dbm": args.tx_power_dbm}
    rs = rio.radiation_result_set(radiation_benchmark(**inputs))
    return inputs, rs, _seed(args)


def _cmd_share(args) -> tuple:
    channels = _parse_float_list(args.channels, "--channels")
    solo = None
    if args.solo_rate_mbps:
        solo = _parse_float_list(args.solo_rate_mbps, "--solo-rate-mbps")
        if len(solo) != len(channels):
            raise ConfigError(["--solo-rate-mbps needs one value per channel"])
    template = share_template(args.material)
    surface = template.surface
    n = len(channels)
    pairs = []
    for i, ch in enumerate(channels):
        y = surface.height_m * (i + 1) / (n + 1)
        pairs.append(SharingPair(
            client=(0.3, y), ap=(surface.width_m - 0.3, y), channel=ch,
            solo_rate_bps=None if solo is None else solo[i] * 1e6,
        ))
    seed = _seed(args)
    inputs = {"config": SharingConfig(tuple(pairs), ambient_busy_fraction=args.busy),
              "n_slots": args.slots, "template": template,
              "settings": LinkSettings(), "seed": seed}
    return inputs, rio.share_result_set(share_sim(**inputs)), seed


# --- parser -----------------------------------------------------------------------


def _add_common(sp, scene=True, scene_default=None):
    seed_default = str(rio.DEFAULT_SEED)
    if scene:
        sp.add_argument("--scene", default=scene_default,
                        help="scenario config path or shipped scene preset name")
        seed_default = f"the scene config's seed, else {seed_default}"
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of share's contention draws, recorded in output "
                         f"metadata (default: {seed_default})")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--plot-script", default=None,
                    help="also emit a matplotlib script rendering the CSV")


def _add_sweep_flags(sp):
    sp.add_argument("--material", default=None,
                    help="material preset for the default surface (spraypaint); not with --scene")
    sp.add_argument("--tx-power-dbm", type=float, default=None)
    sp.add_argument("--snr-db", type=float, default=None,
                    help="fixed SNR override (skips the link budget)")
    sp.add_argument("--grid", type=int, default=None,
                    help="integration grid points across the surface width")
    sp.add_argument("--subcarriers", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfmimo",
        description="Simulate and analyze MIMO links over conductive surfaces.",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("channel", help="per-subcarrier channel matrices for a scene")
    _add_common(sp, scene_default="default_2x2")
    sp.set_defaults(func=_cmd_channel)

    sp = sub.add_parser("analyze", help="capacity/conditioning analysis for a scene")
    _add_common(sp, scene_default="default_2x2")
    sp.add_argument("--snr-db", type=float, default=None)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("sweep", help="throughput vs distance for each mode")
    _add_common(sp)
    _add_sweep_flags(sp)
    sp.add_argument("--mode", default="all", choices=list(SWEEP_MODES) + ["all"])
    sp.add_argument("--distances-ft", default="1:16",
                    help="comma list or lo:hi range, in feet")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("separation", help="rate sensitivity to antenna separation")
    _add_common(sp)
    _add_sweep_flags(sp)
    sp.add_argument("--mode", default=MODE_2X2, choices=list(SWEEP_MODES) + ["all"])
    sp.add_argument("--separations-cm", default="1,3,6")
    sp.set_defaults(func=_cmd_separation)

    sp = sub.add_parser("pulse", help="sampled response to a 1 ns probe pulse")
    _add_common(sp, scene_default="cloth_10ft")
    sp.add_argument("--tx-port", type=int, default=0)
    sp.add_argument("--rx-port", type=int, default=0)
    sp.add_argument("--sample-rate-ghz", type=float, default=4.0)
    sp.add_argument("--duration-ns", type=float, default=None)
    sp.set_defaults(func=_cmd_pulse)

    sp = sub.add_parser("aggregate", help="multi-band aggregated rate vs distance")
    _add_common(sp, scene=False)
    sp.add_argument("--no-dfs", action="store_true",
                    help="use the DFS-free channel plan")
    sp.add_argument("--material", default="spraypaint")
    sp.add_argument("--tx-power-dbm", type=float, default=None)
    sp.add_argument("--distances-ft", default="1:9")
    sp.set_defaults(func=_cmd_aggregate)

    sp = sub.add_parser("radiation", help="surface-fed vs antenna emission offsets")
    _add_common(sp, scene=False)
    sp.add_argument("--front-db", type=float, default=13.0)
    sp.add_argument("--back-db", type=float, default=25.0)
    sp.add_argument("--tx-power-dbm", type=float, default=0.0)
    sp.set_defaults(func=_cmd_radiation)

    sp = sub.add_parser("share", help="carrier-sense sharing of one surface")
    _add_common(sp, scene=False)
    sp.add_argument("--channels", default="6,6",
                    help="comma list: one channel id per client/AP pair")
    sp.add_argument("--busy", type=float, default=0.0,
                    help="ambient airtime fraction consumed by other networks")
    sp.add_argument("--slots", type=int, default=100000)
    sp.add_argument("--material", default="spraypaint")
    sp.add_argument("--solo-rate-mbps", default=None,
                    help="override per-pair solo rates instead of synthesizing them")
    sp.set_defaults(func=_cmd_share)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call of the process shares, built on the first."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        inputs, rs, seed = args.func(args)
        rs = replace(rs, metadata={
            **rs.metadata, "tool_version": __version__,
            "preset_version": presets.shipped().version,
            "config_hash": rio.config_hash({"command": args.command, **inputs}),
            "seed": seed, "command": args.command,
        })
        rio.write_results(rs, args.out)
        print(f"wrote {args.out} ({rs.n_rows} rows)")
        if args.plot_script:
            rio.write_plot_script(args.command, args.out, args.plot_script)
            print(f"wrote {args.plot_script}")
        return EXIT_OK
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except ResultIOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SurfMimoError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
