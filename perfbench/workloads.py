"""Seeded inputs for the three benchmark workloads.

Each workload is a list of CLI commands (argv lists for ``surfmimo.cli.main``)
plus the files they read, made from a seed alone.  The same seed and size
always give byte-identical inputs.  Every generated input stays inside the
model domain: transmitter-to-receiver contact and antenna separations stay
well above the material reference distance ``d0_m`` (0.1 m) and the air
reference distance ``air_ref_m`` (0.1 m), so no ``NearFieldError`` and no
direct-path clamp warning can occur.
"""

from __future__ import annotations

import random

FOOT_M = 0.3048

# Output columns at the commit that introduced the benchmark; a later change
# may add columns but must keep these.
CHANNEL_COLUMNS = ("subcarrier_index", "rx_port", "tx_port", "re", "im",
                   "mag_db", "phase_rad")
PULSE_COLUMNS = ("time_ns", "re", "im", "magnitude")
SWEEP_COLUMNS = ("mode", "distance_m", "distance_ft", "capacity_mbps",
                 "condition_number", "stream_snrs_db", "phy_rate_mbps",
                 "throughput_mbps")
AGGREGATE_COLUMNS = ("distance_m", "label", "center_hz", "bandwidth_hz", "dfs",
                     "conversion_loss_db", "esnr_db", "phy_rate_mbps")

SWEEP_MODES = 4            # siso, air-mimo, surface-2x2, surface-3x3
AGGREGATE_CHAINS = 7       # chains in each of the two shipped plans
DESK_PORTS = 3             # 2 contacts + 1 antenna per node

SIZES = {
    # distances per sweep, distances per aggregation plan, desk grid and tones
    "full": {"sweep_distances": 16, "sweep_subcarriers": None,
             "aggregate_distances": 2, "desk_grid": 32, "desk_subcarriers": 114},
    "tiny": {"sweep_distances": 2, "sweep_subcarriers": 4,
             "aggregate_distances": 1, "desk_grid": 8, "desk_subcarriers": 4},
}


def _distances_ft(rng: random.Random, n: int, lo: float, hi: float) -> list:
    return sorted(round(rng.uniform(lo, hi), 3) for _ in range(n))


def _fmt_list(values) -> str:
    return ",".join(repr(v) for v in values)


def sweep(seed: int, size: str = "full") -> dict:
    """``sweep --mode all`` over seeded distances in 1-16 ft on the default
    17.5 ft template (grid 32 -> 128 points, inside the kernel cache)."""
    sz = SIZES[size]
    rng = random.Random(f"sweep-{seed}")
    dist = _distances_ft(rng, sz["sweep_distances"], 1.0, 16.0)
    argv = ["sweep", "--mode", "all", "--distances-ft", _fmt_list(dist),
            "--out", "sweep.csv"]
    if sz["sweep_subcarriers"] is not None:
        argv += ["--subcarriers", str(sz["sweep_subcarriers"])]
    return {
        "inputs": {"distances_ft": dist},
        "files": {},
        "commands": [argv],
        "expect": {"sweep.csv": {"columns": SWEEP_COLUMNS,
                                 "rows": SWEEP_MODES * len(dist),
                                 "nullable": ()}},
    }


def aggregate(seed: int, size: str = "full") -> dict:
    """``aggregate`` for both shipped plans over the same seeded distances in
    1-9 ft on the 10 ft strip (grid 32 -> 192 points, above the cache cap)."""
    sz = SIZES[size]
    rng = random.Random(f"aggregate-{seed}")
    dist = _distances_ft(rng, sz["aggregate_distances"], 1.0, 9.0)
    text = _fmt_list(dist)
    rows = (AGGREGATE_CHAINS + 1) * len(dist)  # chains plus one total row
    spec = {"columns": AGGREGATE_COLUMNS, "rows": rows,
            "nullable": ("center_hz", "esnr_db")}
    return {
        "inputs": {"distances_ft": dist},
        "files": {},
        "commands": [
            ["aggregate", "--distances-ft", text, "--out", "aggregate_dfs.csv"],
            ["aggregate", "--no-dfs", "--distances-ft", text,
             "--out", "aggregate_nodfs.csv"],
        ],
        "expect": {"aggregate_dfs.csv": spec, "aggregate_nodfs.csv": dict(spec)},
    }


def _point(rng: random.Random, x_lo: float, x_hi: float) -> list:
    return [round(rng.uniform(x_lo, x_hi), 4), round(rng.uniform(0.08, 0.53), 4)]


def desk_scene(seed: int, size: str = "full") -> str:
    """Scene YAML: a 1.2 m x 0.61 m spray-painted desk, a transmitter with two
    contacts and one low antenna in the left third, a receiver likewise in the
    right third, and one wooden object between them.  Transmitter ports stay
    at x <= 0.38 m and receiver ports at x >= 0.82 m, so every
    transmitter-receiver separation is at least 0.44 m."""
    sz = SIZES[size]
    rng = random.Random(f"desk-{seed}")

    def node(x_lo, x_hi):
        contacts = [_point(rng, x_lo, x_hi), _point(rng, x_lo, x_hi)]
        antenna = _point(rng, x_lo, x_hi) + [round(rng.uniform(0.01, 0.05), 4)]
        return contacts, [antenna]

    tx_c, tx_a = node(0.05, 0.38)
    rx_c, rx_a = node(0.82, 1.15)
    ox = round(rng.uniform(0.45, 0.6), 4)
    oy = round(rng.uniform(0.05, 0.3), 4)
    lines = [
        f"name: desk-{seed}",
        "surface: {material: spraypaint, width_m: 1.2, height_m: 0.6096}",
        "band: {center_ghz: 2.437, bandwidth_mhz: 40}",
        "nodes:",
        f"  - {{id: tx, role: transmitter, contacts: {tx_c}, antennas: {tx_a}}}",
        f"  - {{id: rx, role: receiver, contacts: {rx_c}, antennas: {rx_a}}}",
        "obstacles:",
        f"  - {{x_min: {ox}, y_min: {oy}, x_max: {round(ox + 0.15, 4)}, "
        f"y_max: {round(oy + 0.25, 4)}, kind: wood, perturbation_db: 2.0}}",
        f"analysis: {{grid: {sz['desk_grid']}, subcarriers: {sz['desk_subcarriers']}}}",
        "",
    ]
    return "\n".join(lines)


def desk(seed: int, size: str = "full") -> dict:
    """``channel`` on the seeded desk scene, then ``pulse`` for each of the
    9 transmit/receive port pairs."""
    sz = SIZES[size]
    commands = [["channel", "--scene", "desk.yaml", "--out", "desk_channel.csv"]]
    expect = {"desk_channel.csv": {
        "columns": CHANNEL_COLUMNS,
        "rows": sz["desk_subcarriers"] * DESK_PORTS * DESK_PORTS,
        "nullable": ()}}
    for i in range(DESK_PORTS):
        for j in range(DESK_PORTS):
            name = f"desk_pulse_{i}{j}.csv"
            commands.append(["pulse", "--scene", "desk.yaml", "--tx-port", str(i),
                             "--rx-port", str(j), "--out", name])
            expect[name] = {"columns": PULSE_COLUMNS, "rows": None, "nullable": ()}
    scene = desk_scene(seed, size)
    return {
        "inputs": {"scene_yaml": scene},
        "files": {"desk.yaml": scene},
        "commands": commands,
        "expect": expect,
    }


WORKLOADS = {"sweep": sweep, "aggregate": aggregate, "desk": desk}


def make(name: str, seed: int, size: str = "full") -> dict:
    """The workload's commands, input files and output expectations."""
    return WORKLOADS[name](seed, size)
