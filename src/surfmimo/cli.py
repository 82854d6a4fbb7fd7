"""Command-line interface.

Exit codes group failures by category: 0 success, 2 configuration problems
(bad config files, presets, flags), 3 model-domain errors (invalid physics
inputs, singular channels), 4 I/O failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as rio
from . import presets
from .channel import ChannelParams, subcarrier_count
from .errors import ConfigError, ResultIOError, SurfMimoError
from .experiments import (
    FOOT_M,
    MODE_2X2,
    SWEEP_MODES,
    LinkSettings,
    RadiationProfile,
    SharingConfig,
    SharingPair,
    _resolved,
    aggregate_sweep,
    aggregation_plan,
    analyze_link,
    default_template,
    multi_mode_sweep,
    pulse_profile,
    radiation_benchmark,
    separation_sweep,
    share_sim,
    share_template,
)
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_IO = 4


def _version_string() -> str:
    from . import __version__

    return f"surfmimo {__version__} (presets {presets.preset_version()})"


class _VersionAction(argparse.Action):
    """``--version`` that reads the preset version only when the flag is given."""

    def __init__(self, option_strings, dest):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_string())
        parser.exit()


def _parse_float_list(text: str, flag: str):
    """Comma list ('1,2,3') or inclusive integer range ('1:16')."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return [float(v) for v in range(int(lo), int(hi) + 1)]
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError([f"{flag}: cannot parse {text!r} ({exc})"]) from exc


def _load_scene_config(ref: str) -> rio.ScenarioConfig:
    """A config path, or a shipped scene preset name."""
    if os.path.exists(ref):
        return rio.load_config(ref)
    return rio.load_config(presets.scene_path(ref))


def _scene_metadata(cfg: rio.ScenarioConfig, command: str, seed) -> dict:
    from . import __version__

    return {
        "tool_version": __version__,
        "preset_version": cfg.preset_version,
        "config_hash": rio.config_hash(cfg),
        "seed": cfg.seed if seed is None else seed,
        "command": command,
    }


def _param_metadata(command: str, seed: int, params: dict, preset_version=None) -> dict:
    """Metadata of a flag-driven command; preset_version, when the command
    already parsed the presets, spares a parse of materials.yaml."""
    from . import __version__

    return {
        "tool_version": __version__,
        "preset_version": presets.preset_version() if preset_version is None else preset_version,
        "config_hash": rio.parameter_hash({"command": command, "seed": seed, **params}),
        "seed": seed,
        "command": command,
    }


def _emit(rs, args, kind: str) -> int:
    rio.write_results(rs, args.out)
    print(f"wrote {args.out} ({len(rs.rows)} rows)")
    if getattr(args, "plot_script", None):
        rio.write_plot_script(kind, args.out, args.plot_script)
        print(f"wrote {args.plot_script}")
    return EXIT_OK


def _sweep_settings(args) -> tuple:
    """(template, settings, hash params, preset version) resolved from
    --scene or the sweep-style flags, from one parse of materials.yaml.  The
    settings carry the parsed coupling constants and rate table, so the
    sweeps of every mode share them.  The hash params name the scene config
    by its config_hash and the subcarrier count the run resolves to."""
    scene_hash = None
    if args.scene:
        cfg = _load_scene_config(args.scene)
        template = cfg.template()
        settings = cfg.settings()
        scene_hash = rio.config_hash(cfg)
        version = cfg.preset_version
    else:
        shipped = presets.load_presets()
        template = default_template(shipped.material(args.material))
        settings = LinkSettings(params=ChannelParams(coupling=shipped.coupling))
        version = shipped.version
    overrides = {}
    if args.tx_power_dbm is not None:
        overrides["tx_power_dbm"] = args.tx_power_dbm
    if args.snr_db is not None:
        overrides["snr_db"] = args.snr_db
    if args.grid is not None:
        overrides["grid"] = args.grid
    if args.subcarriers is not None:
        overrides["n_subcarriers"] = args.subcarriers
    if overrides:
        from dataclasses import replace

        settings = replace(settings, **overrides)
    settings = _resolved(settings)
    return template, settings, {
        "material": template.surface.material.name, "scene": scene_hash,
        "n_subcarriers": subcarrier_count(settings.band, settings.n_subcarriers),
        "tx_power_dbm": settings.tx_power_dbm, "snr_db": settings.snr_db,
        "grid": settings.grid,
    }, version


# --- subcommand bodies ----------------------------------------------------------


def _cmd_channel(args) -> int:
    cfg = _load_scene_config(args.scene)
    settings = cfg.settings()
    from .channel import csi

    matrices = csi(cfg.scene, cfg.band, settings.n_subcarriers, settings.grid,
                   settings.params)
    rs = rio.channel_result_set(matrices, _scene_metadata(cfg, "channel", args.seed))
    return _emit(rs, args, "channel")


def _cmd_analyze(args) -> int:
    cfg = _load_scene_config(args.scene)
    settings = cfg.settings()
    if args.snr_db is not None:
        from dataclasses import replace

        settings = replace(settings, snr_db=args.snr_db)
    from .channel import csi

    matrices = csi(cfg.scene, cfg.band, settings.n_subcarriers, settings.grid,
                   settings.params)
    result = analyze_link(matrices, settings)
    print(
        f"{result.mode}: capacity {result.capacity_bps / 1e6:.1f} Mbps, "
        f"condition {result.condition_number:.3g}, "
        f"phy rate {result.phy_rate_bps / 1e6:.1f} Mbps"
    )
    rs = rio.analyze_result_set(matrices, settings.snr_linear(),
                                _scene_metadata(cfg, "analyze", args.seed))
    return _emit(rs, args, "analyze")


def _cmd_sweep(args) -> int:
    template, settings, hashed, version = _sweep_settings(args)
    distances = [d * FOOT_M for d in _parse_float_list(args.distances_ft, "--distances-ft")]
    modes = list(SWEEP_MODES) if args.mode == "all" else [args.mode]
    rows_by_mode = multi_mode_sweep(template, distances, modes, settings)
    meta = _param_metadata("sweep", args.seed, {
        **hashed, "distances_ft": args.distances_ft, "modes": modes,
    }, version)
    rs = rio.sweep_result_set(rows_by_mode, settings.mac_efficiency, meta)
    return _emit(rs, args, "sweep")


def _cmd_separation(args) -> int:
    template, settings, hashed, version = _sweep_settings(args)
    seps = [s / 100.0 for s in _parse_float_list(args.separations_cm, "--separations-cm")]
    modes = list(SWEEP_MODES) if args.mode == "all" else [args.mode]
    rows_by_mode = {
        mode: separation_sweep(template, seps, mode, settings) for mode in modes
    }
    meta = _param_metadata("separation", args.seed, {
        **hashed, "separations_cm": args.separations_cm, "modes": modes,
    }, version)
    rs = rio.separation_result_set(rows_by_mode, settings.mac_efficiency, meta)
    return _emit(rs, args, "separation")


def _cmd_pulse(args) -> int:
    cfg = _load_scene_config(args.scene)
    tx = cfg.scene.transmitters()[0]
    rx = cfg.scene.receivers()[0]
    try:
        tx_port = tx.ports[args.tx_port]
        rx_port = rx.ports[args.rx_port]
    except IndexError as exc:
        raise ConfigError([
            f"port index out of range: tx has {len(tx.ports)}, rx has {len(rx.ports)}"
        ]) from exc
    settings = cfg.settings()
    profile = pulse_profile(
        cfg.scene, tx_port, rx_port, band=cfg.band,
        sample_rate_hz=args.sample_rate_ghz * 1e9,
        duration_s=None if args.duration_ns is None else args.duration_ns * 1e-9,
        grid=settings.grid, params=settings.params,
    )
    meta = _scene_metadata(cfg, "pulse", args.seed)
    rs = rio.pulse_result_set(profile, meta)
    return _emit(rs, args, "pulse")


def _cmd_aggregate(args) -> int:
    plan = aggregation_plan(no_dfs=args.no_dfs)
    distances = [d * FOOT_M for d in _parse_float_list(args.distances_ft, "--distances-ft")]
    settings = LinkSettings()
    if args.tx_power_dbm is not None:
        from dataclasses import replace

        settings = replace(settings, tx_power_dbm=args.tx_power_dbm)
    template = None
    if args.material != "spraypaint":
        from .experiments import aggregate_template

        template = aggregate_template(args.material)
    rows = aggregate_sweep(plan, distances, template, settings)
    meta = _param_metadata("aggregate", args.seed, {
        "plan": plan.name, "material": args.material,
        "distances_ft": args.distances_ft, "tx_power_dbm": settings.tx_power_dbm,
    })
    meta["plan"] = plan.name
    meta["total_bandwidth_mhz"] = repr(plan.total_bandwidth_hz / 1e6)
    rs = rio.aggregate_result_set(rows, plan, meta)
    return _emit(rs, args, "aggregate")


def _cmd_radiation(args) -> int:
    profile = RadiationProfile(args.front_db, args.back_db)
    samples = radiation_benchmark(profile, tx_power_dbm=args.tx_power_dbm)
    meta = _param_metadata("radiation", args.seed, {
        "front_db": args.front_db, "back_db": args.back_db,
        "tx_power_dbm": args.tx_power_dbm,
    })
    rs = rio.radiation_result_set(samples, meta)
    return _emit(rs, args, "radiation")


def _cmd_share(args) -> int:
    channels = [int(c) for c in _parse_float_list(args.channels, "--channels")]
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
    config = SharingConfig(tuple(pairs), ambient_busy_fraction=args.busy)
    results = share_sim(config, args.slots, template, seed=args.seed)
    meta = _param_metadata("share", args.seed, {
        "channels": channels, "busy": args.busy, "slots": args.slots,
        "material": args.material,
        "solo_rate_mbps": None if solo is None else solo,
    })
    rs = rio.share_result_set(results, meta)
    return _emit(rs, args, "share")


# --- parser -----------------------------------------------------------------------


def _add_common(sp, scene_default=None):
    sp.add_argument("--scene", default=scene_default,
                    help="scenario config path or shipped scene preset name")
    sp.add_argument("--seed", type=int, default=rio.DEFAULT_SEED,
                    help="random seed recorded in output metadata")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--plot-script", default=None,
                    help="also emit a matplotlib script rendering the CSV")


def _add_sweep_flags(sp):
    sp.add_argument("--material", default="spraypaint",
                    help="material preset for the default surface")
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
    _add_common(sp)
    sp.add_argument("--no-dfs", action="store_true",
                    help="use the DFS-free channel plan")
    sp.add_argument("--material", default="spraypaint")
    sp.add_argument("--tx-power-dbm", type=float, default=None)
    sp.add_argument("--distances-ft", default="1:9")
    sp.set_defaults(func=_cmd_aggregate)

    sp = sub.add_parser("radiation", help="surface-fed vs antenna emission offsets")
    _add_common(sp)
    sp.add_argument("--front-db", type=float, default=13.0)
    sp.add_argument("--back-db", type=float, default=25.0)
    sp.add_argument("--tx-power-dbm", type=float, default=0.0)
    sp.set_defaults(func=_cmd_radiation)

    sp = sub.add_parser("share", help="carrier-sense sharing of one surface")
    _add_common(sp)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
