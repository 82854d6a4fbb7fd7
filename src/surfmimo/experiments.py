"""Scenario runners: throughput-vs-distance sweeps, antenna-separation sweeps,
pulse/delay profiling, multi-band rate aggregation, radiation offsets, and
carrier-sense surface sharing.

All runners share one link pipeline: synthesize the channel stacked over
subcarriers, derive zero-forcing stream SNRs for every candidate
transmit-column subset, compress them with an effective-SNR mapping, look
the result up in the rate table, and keep the best (rate, stream-count)
choice.  Reported rates are PHY rates; MAC overhead is a separate scalar
applied only when results are written out.

In a distance sweep (``multi_mode_sweep``, and ``aggregate_sweep`` per
chain) only the receiver moves, so a sweep is one scene: one transmitter
node and one receiver node per distance (``build_link_scene``).  One
``csi`` call synthesizes it, its tones are read as an ``(F, D, n_rx, n_tx)``
array, and that array is analyzed in one pass of ``mimo.link_results``,
which owns the subset search: each column subset is decomposed once for
every distance, and the effective SNRs and rate lookups of all distances
are taken together.  A single link is the one-distance case.  A sweep over
several modes (``multi_mode_sweep``) synthesizes only the modes whose ports
no other mode of the sweep holds and reads the rest as index slices of those
stacks: ``--mode all`` is two engine passes, surface-3x3 and air-mimo, and
two per separation in ``multi_mode_separation_sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import presets
from .channel import ChannelParams, NoiseModel, csi, impulse_response
from .errors import ConfigError, DomainError
from .geometry import Node, Scene, SurfaceSpec
from .mimo import LinkResult, McsTable, link_results
from .propagation import FrequencyBand, air_gain, received_power_dbm

FOOT_M = 0.3048

MODE_SISO = "siso"
MODE_AIR_MIMO = "air-mimo"
MODE_2X2 = "surface-2x2"
MODE_3X3 = "surface-3x3"
SWEEP_MODES = (MODE_SISO, MODE_AIR_MIMO, MODE_2X2, MODE_3X3)


def default_distances_m():
    """1 through 16 ft in 1 ft steps."""
    return tuple(i * FOOT_M for i in range(1, 17))


@dataclass(frozen=True)
class LinkSettings:
    """Shared knobs for all link-level runs.

    snr_db, when set, bypasses the transmit-power/noise link budget.  The
    MAC-efficiency scalar never touches phy_rate_bps; writers multiply it in
    when producing throughput columns.  params=None is resolved to
    ChannelParams() and mcs_table=None to the shipped table when the
    settings are built, so every LinkSettings holds both.  mcs_table may hold
    the rows of any bandwidths; rate_table() takes the rows of the band's
    bandwidth from it, so one table serves links of every band.  Every value
    out of range is named in one ConfigError.
    """

    band: FrequencyBand = FrequencyBand(2.437e9, 40e6)
    grid: int = 32
    n_subcarriers: int | None = None
    tx_power_dbm: float = -10.0
    noise: NoiseModel = NoiseModel()
    snr_db: float | None = None
    esm_beta: float = 1.0
    mac_efficiency: float = 0.65
    antenna_height_m: float = 0.02
    contact_spacing_m: float = 0.025
    air_antenna_spacing_m: float = 0.0625
    params: ChannelParams | None = None
    mcs_table: McsTable | None = None

    def __post_init__(self):
        problems = []
        if not 0.0 < self.mac_efficiency <= 1.0:
            problems.append(f"mac_efficiency must be in (0, 1], got {self.mac_efficiency}")
        nonfinite = [name for name in ("tx_power_dbm", "snr_db", "esm_beta", "antenna_height_m",
                                       "contact_spacing_m", "air_antenna_spacing_m")
                     if (value := getattr(self, name)) is not None and not math.isfinite(value)]
        # a value named as not finite is not named again by its range
        for name, ok, rule in (("esm_beta", self.esm_beta > 0, "positive"),
                               ("antenna_height_m", self.antenna_height_m >= 0, ">= 0"),
                               ("contact_spacing_m", self.contact_spacing_m > 0, "positive"),
                               ("air_antenna_spacing_m", self.air_antenna_spacing_m > 0,
                                "positive")):
            if not ok and name not in nonfinite:
                problems.append(f"{name} must be {rule}, got {getattr(self, name)}")
        problems += [f"{name} must be finite, got {getattr(self, name)}" for name in nonfinite]
        if problems:
            raise ConfigError(problems)
        if self.params is None:
            object.__setattr__(self, "params", ChannelParams())
        if self.mcs_table is None:
            object.__setattr__(self, "mcs_table", presets.load_mcs_table())

    def snr_linear(self) -> float:
        if self.snr_db is not None:
            return 10.0 ** (self.snr_db / 10.0)
        noise_dbm = self.noise.noise_power_dbm(self.band.bandwidth_hz)
        return 10.0 ** ((self.tx_power_dbm - noise_dbm) / 10.0)

    def rate_table(self) -> McsTable:
        """The band's rows of mcs_table."""
        return self.mcs_table.for_bandwidth(self.band.bandwidth_hz / 1e6)


@dataclass(frozen=True)
class SceneTemplate:
    """A surface plus the transmitter anchor used to instantiate sweep scenes."""

    surface: SurfaceSpec
    tx_x_m: float = 0.1524
    link_y_m: float | None = None

    def anchor(self):
        y = self.surface.height_m / 2.0 if self.link_y_m is None else self.link_y_m
        return self.tx_x_m, y


def _strip(length_ft: float, material) -> SceneTemplate:
    """A length_ft x 2 ft surface of a material, given as its parameters or
    by preset name or path."""
    if isinstance(material, str):
        material = presets.load_material(material)
    return SceneTemplate(SurfaceSpec(length_ft * FOOT_M, 2.0 * FOOT_M, material))


def default_template(material="spraypaint") -> SceneTemplate:
    """A 17.5 ft x 2 ft surface of a material, given as its parameters or by
    preset name or path.

    The 16 ft sweep endpoint then sits about a foot from the far edge: close
    enough that the edge echo is strong and still carries enough excess delay
    to decorrelate across a 40 MHz band, which is what makes frequency
    diversity keep growing out to the last sweep point.
    """
    return _strip(17.5, material)


def build_link_scene(template: SceneTemplate, distances_m, mode: str,
                     settings: LinkSettings | None = None) -> Scene:
    """One TX node and, for each of distances_m in order, one RX node that
    distance along the surface from it: receivers rx0, rx1, ...  One
    distance is one link; several are a distance sweep, one ``csi`` call.

    Port layout per mode:
      siso         one antenna per node
      air-mimo     two antennas per node, spaced along y
      surface-2x2  one contact + one antenna directly above it
      surface-3x3  two contacts (spaced along x) + one antenna above the first

    Antenna positions coincide across modes so mode comparisons isolate the
    added surface ports.
    """
    settings = settings or LinkSettings()
    if mode not in SWEEP_MODES:
        raise ConfigError(f"unknown sweep mode {mode!r}; expected one of {SWEEP_MODES}")
    x0, y = template.anchor()
    h = settings.antenna_height_m
    dc = settings.contact_spacing_m
    sa = settings.air_antenna_spacing_m
    surface = template.surface

    def ports(x):
        if mode == MODE_SISO:
            return (), ((x, y, h),)
        if mode == MODE_AIR_MIMO:
            return (), ((x, y, h), (x, y + sa, h))
        if mode == MODE_2X2:
            return ((x, y),), ((x, y, h),)
        return ((x, y), (x + dc, y)), ((x, y, h),)

    nodes = [Node("tx", "transmitter", *ports(x0))]
    for i, d in enumerate(distances_m):
        if d <= 0:
            raise DomainError(f"link distance must be positive, got {d}")
        x1 = x0 + d
        far_x = x1 + (dc if mode == MODE_3X3 else 0.0)
        if not surface.contains(x0, y) or not surface.contains(far_x, y):
            raise DomainError(
                f"link from x={x0:.4g} to x={far_x:.4g} m does not fit on the "
                f"{surface.width_m:.4g} m surface"
            )
        nodes.append(Node(f"rx{i}", "receiver", *ports(x1)))
    return Scene(surface, nodes=tuple(nodes))


def run_link(scene: Scene, settings: LinkSettings | None = None) -> LinkResult:
    """Full link analysis for one scene: synthesize its channel over the
    subcarriers, then analyze it (see analyze_link)."""
    settings = settings or LinkSettings()
    return analyze_link(csi(scene, settings.band, settings.n_subcarriers, settings.grid,
                            settings.params), settings)


def analyze_link(matrix, settings: LinkSettings | None = None) -> LinkResult:
    """Link analysis of a ChannelMatrix over its tones: capacity, conditioning,
    stream SNRs, and the best achievable table rate over all transmit-column
    subsets: mimo.link_results of the tones as one distance."""
    return _analyze(matrix.tones[:, None], settings or LinkSettings())[0]


def _analyze(h, settings: LinkSettings) -> list:
    """mimo.link_results of a channel stacked as (F, D, n_rx, n_tx), at the
    SNR, ESM beta, rate table and bandwidth of settings."""
    return link_results(h, settings.snr_linear(), settings.esm_beta, settings.rate_table(),
                        settings.band.bandwidth_hz)


def _sweep_stack(scene: Scene, settings: LinkSettings) -> np.ndarray:
    """The channel of a sweep scene (build_link_scene: one receiver node per
    distance, each with as many ports) at the subcarriers of settings, from
    one csi call, as an (F, D, n_rx, n_tx) stack."""
    tones = csi(scene, settings.band, settings.n_subcarriers, settings.grid,
                settings.params).tones
    return tones.reshape(tones.shape[0], len(scene.receivers()), -1, tones.shape[-1])


def multi_mode_sweep(template: SceneTemplate | None = None, distances_m=None,
                     modes=SWEEP_MODES, settings: LinkSettings | None = None) -> dict:
    """Rate, capacity and conditioning of each mode across link distances:
    {mode: [(distance_m, LinkResult), ...]} in the order of modes.

    Every mode's scenes are built and checked.  A mode whose transmit ports,
    and receive ports at every distance, are all found by value among the
    ports of another mode of the sweep is read as index slices of that
    mode's channel stack instead of being synthesized again.  Antenna
    positions coincide across modes, so siso and surface-2x2 come out of
    surface-3x3, and the four modes take two engine passes."""
    template = template or default_template()
    settings = settings or LinkSettings()
    distances_m = default_distances_m() if distances_m is None else tuple(distances_m)
    scenes = {mode: build_link_scene(template, distances_m, mode, settings) for mode in modes}
    if not distances_m:
        return {mode: [] for mode in scenes}
    stacks, results = {}, {}
    # largest first (the transmitter's ports and one receiver's), so a mode
    # meets every mode that could hold it as a host; each mode is analyzed as
    # soon as it is read, before the next mode's stack is made, which keeps
    # the peak memory of the analysis down
    for mode in sorted(scenes, key=lambda m: -sum(len(n.ports) for n in scenes[m].nodes[:2])):
        for host in stacks:
            index = _port_index(scenes[mode], scenes[host])
            if index is not None:
                h = stacks[host][(slice(None),) + index]
                break
        else:
            h = stacks[mode] = _sweep_stack(scenes[mode], settings)
        results[mode] = _analyze(h, settings)
    return {mode: list(zip(map(float, distances_m), results[mode])) for mode in scenes}


def _port_index(scene: Scene, host: Scene):
    """Index arrays (distance, receive port, transmit port) that read the
    (F, D, n_rx, n_tx) stack of the sweep scene out of the stack of the sweep
    scene host, or None when one of its ports is not among the host's."""
    (tx,), (host_tx,) = scene.transmitters(), host.transmitters()
    try:
        rx = [[h.ports.index(p) for p in r.ports]
              for r, h in zip(scene.receivers(), host.receivers())]
        cols = [host_tx.ports.index(p) for p in tx.ports]
    except ValueError:
        return None
    return np.arange(len(rx))[:, None, None], np.array(rx)[:, :, None], np.array(cols)


def multi_mode_separation_sweep(template: SceneTemplate | None = None,
                                separations_m=(0.01, 0.03, 0.06), modes=(MODE_2X2,),
                                settings: LinkSettings | None = None) -> dict:
    """Distance sweeps of each mode over ``default_distances_m()`` (1-16 ft),
    repeated at several antenna separations: {mode: [(separation_m,
    LinkResult), ...]} in the order of modes.

    For siso and the surface modes the separation is the antenna height
    above its contact; for the air-MIMO baseline it is the array element
    spacing.  Each entry aggregates a full distance sweep: mean rate and
    capacity, worst-case condition number, mean pooled stream SNR.  At each
    separation, the modes of antenna height are one multi_mode_sweep and
    air-mimo is another, so all four modes take two engine passes per
    separation."""
    settings = settings or LinkSettings()
    groups = {"antenna_height_m": tuple(m for m in modes if m != MODE_AIR_MIMO),
              "air_antenna_spacing_m": tuple(m for m in modes if m == MODE_AIR_MIMO)}
    out = {mode: [] for mode in modes}
    for sep in separations_m:
        rows = {}
        for knob, group in groups.items():
            if group:
                rows.update(multi_mode_sweep(template, default_distances_m(), group,
                                             replace(settings, **{knob: float(sep)})))
        for mode in out:
            out[mode].append((float(sep), _sweep_summary(rows[mode])))
    return out


def _sweep_summary(rows) -> LinkResult:
    """One distance sweep's rows as one LinkResult: mean rate and capacity,
    worst condition number, mean of each distance's mean stream SNR."""
    return LinkResult(
        capacity_bps=float(np.mean([r.capacity_bps for _, r in rows])),
        condition_number=float(np.max([r.condition_number for _, r in rows])),
        stream_snrs_db=(float(np.mean([float(np.mean(r.stream_snrs_db))
                                       for _, r in rows])),),
        phy_rate_bps=float(np.mean([r.phy_rate_bps for _, r in rows])),
        mode=rows[0][1].mode,
    )


# --- pulse profiling -----------------------------------------------------------

PULSE_WIDTH_S = 1e-9  # the width of the rectangular probe pulse, in seconds


@dataclass(frozen=True)
class PulseProfile:
    """Sampled receive waveform for a short probe pulse through one link."""

    time_s: np.ndarray
    samples: np.ndarray
    response: object  # the underlying ImpulseResponse
    sample_rate_hz: float

    def peak_amplitude(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def residual_after(self, t_s: float) -> float:
        """Largest |sample| after t_s as a fraction of the overall peak."""
        tail = np.abs(self.samples[self.time_s > t_s])
        if tail.size == 0:
            return 0.0
        return float(np.max(tail) / self.peak_amplitude())


def pulse_profile(scene: Scene, tx_port, rx_port,
                  band: FrequencyBand | None = None,
                  sample_rate_hz: float = 4e9, duration_s: float | None = None,
                  grid: int = 32, params: ChannelParams | None = None) -> PulseProfile:
    """Convolve the rectangular 1 ns probe pulse (``PULSE_WIDTH_S``) with the
    link's impulse response.

    Ports are (kind, position) pairs as produced by Node.ports.  The default
    horizon extends well past the last tap so late-time residuals can be read
    directly off the waveform.
    """
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz >= 1e9):
        raise ConfigError(f"sample rate must be finite and >= 1 GHz, got {sample_rate_hz:.3g}")
    if duration_s is not None and not (math.isfinite(duration_s) and duration_s > 0):
        raise ConfigError(f"duration must be positive and finite, got {duration_s:.3g} s")
    band = band or FrequencyBand(2.437e9, 40e6)
    resp = impulse_response(tx_port, rx_port, scene, band, grid, params)
    delays = resp.delays()
    if duration_s is None:
        duration_s = max(delays[-1] + 50e-9, delays[0] + 400e-9)
    n = int(math.ceil(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    y = np.zeros(n, dtype=complex)
    # tap k covers the samples with delay <= t < delay + width: one index
    # range each on the sorted sample times, added in tap order
    lo = np.searchsorted(t, delays)
    hi = np.searchsorted(t, delays + PULSE_WIDTH_S)
    for a, b, (_, amp) in zip(lo.tolist(), hi.tolist(), resp.taps):
        y[a:b] += amp
    return PulseProfile(t, y, resp, sample_rate_hz)


# --- multi-band aggregation ------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """One radio chain in an aggregation plan."""

    band: FrequencyBand
    conversion_loss_db: float = 0.0
    dfs: bool = False
    label: str = ""

    def __post_init__(self):
        if self.conversion_loss_db < 0:
            raise ConfigError("conversion_loss_db must be >= 0")
        if self.conversion_loss_db > 0 and self.band.band_id != "900MHz":
            raise ConfigError(
                "conversion loss models the 900 MHz up/down-converter; "
                f"chain {self.label or self.band.center_hz!r} is {self.band.band_id}"
            )


@dataclass(frozen=True)
class AggregationPlan:
    chains: tuple = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "chains", tuple(self.chains))
        if not self.chains:
            raise ConfigError("aggregation plan needs at least one chain")

    @property
    def total_bandwidth_hz(self) -> float:
        return float(sum(c.band.bandwidth_hz for c in self.chains))


def _ch5(ch: int) -> float:
    return 5e9 + ch * 5e6


def scenario1_plan() -> AggregationPlan:
    """Six 40 MHz channels at 5 GHz (four of them DFS) plus one 20 MHz channel
    at 2.437 GHz: 260 MHz total."""
    chains = [
        Chain(FrequencyBand(_ch5(ch), 40e6), dfs=dfs, label=f"5ghz-ch{ch}")
        for ch, dfs in ((38, False), (46, False), (54, True), (62, True),
                       (102, True), (110, True))
    ]
    chains.append(Chain(FrequencyBand(2.437e9, 20e6), label="2.4ghz-ch6"))
    return AggregationPlan(tuple(chains), name="scenario1")


def scenario2_plan() -> AggregationPlan:
    """DFS-free alternative: four non-DFS 40 MHz channels at 5 GHz, a 40 MHz
    and a 20 MHz channel at 2.4 GHz, and a 20 MHz chain at 915 MHz behind a
    6 dB converter: 240 MHz total."""
    chains = [
        Chain(FrequencyBand(_ch5(ch), 40e6), label=f"5ghz-ch{ch}")
        for ch in (38, 46, 151, 159)
    ]
    chains.append(Chain(FrequencyBand(2.422e9, 40e6), label="2.4ghz-ch3"))
    chains.append(Chain(FrequencyBand(2.462e9, 20e6), label="2.4ghz-ch11"))
    chains.append(Chain(FrequencyBand(915e6, 20e6), conversion_loss_db=6.0,
                        label="900mhz-915"))
    return AggregationPlan(tuple(chains), name="scenario2")


def aggregation_plan(no_dfs: bool = False) -> AggregationPlan:
    return scenario2_plan() if no_dfs else scenario1_plan()


@dataclass(frozen=True)
class ChainResult:
    label: str
    center_hz: float
    bandwidth_hz: float
    dfs: bool
    conversion_loss_db: float
    esnr_db: float
    phy_rate_bps: float


def aggregate_template(material="spraypaint") -> SceneTemplate:
    """A 10 ft x 2 ft strip for the aggregation experiments, of a material
    given as its parameters or by preset name or path."""
    return _strip(10.0, material)


def _chain_results(chain: Chain, scene: Scene, settings: LinkSettings) -> list:
    """One chain's ChainResult at every distance of the sweep scene, from one
    channel-engine pass.  The chain's conversion loss comes straight off its
    SNR."""
    s = replace(settings, band=chain.band)
    if s.snr_db is not None:
        s = replace(s, snr_db=s.snr_db - chain.conversion_loss_db)
    else:
        s = replace(s, tx_power_dbm=s.tx_power_dbm - chain.conversion_loss_db)
    return [
        ChainResult(
            label=chain.label,
            center_hz=chain.band.center_hz,
            bandwidth_hz=chain.band.bandwidth_hz,
            dfs=chain.dfs,
            conversion_loss_db=chain.conversion_loss_db,
            esnr_db=float(np.max(result.stream_snrs_db)),
            phy_rate_bps=result.phy_rate_bps,
        )
        for result in _analyze(_sweep_stack(scene, s), s)
    ]


def aggregate_sweep(plan: AggregationPlan, distances_m=None,
                    template: SceneTemplate | None = None,
                    settings: LinkSettings | None = None):
    """Total rate over all chains of the plan at each contact-to-contact
    distance (default 1-9 ft on the 10 ft strip), plus the per-chain
    breakdown: [(distance_m, total_bps, [ChainResult, ...]), ...].

    Each chain runs an independent surface link at its own center frequency
    and bandwidth; its conversion loss comes straight off the chain SNR
    before rate lookup.  Chains that fall below the lowest table threshold
    contribute zero.  Each chain reads its bandwidth's rows from
    settings.mcs_table and takes one channel-engine pass over all
    distances."""
    distances_m = (tuple(i * FOOT_M for i in range(1, 10)) if distances_m is None
                   else tuple(distances_m))
    if not distances_m:
        return []
    template = template or aggregate_template()
    settings = settings or LinkSettings()
    scene = build_link_scene(template, distances_m, MODE_2X2, settings)
    # contact-to-contact only: strip the antennas, keep the contacts
    scene = Scene(scene.surface, nodes=tuple(
        Node(n.id, n.role, contacts=n.contacts, antennas=()) for n in scene.nodes))
    by_chain = [_chain_results(chain, scene, settings) for chain in plan.chains]
    out = []
    for d, rows in zip(distances_m, zip(*by_chain)):
        total = 0.0
        for row in rows:
            total += row.phy_rate_bps
        out.append((float(d), total, list(rows)))
    return out


# --- radiation offsets ----------------------------------------------------------


@dataclass(frozen=True)
class RadiationProfile:
    """How much weaker surface-fed emissions are than a reference antenna,
    split by hemisphere (front: z >= 0, back: z < 0)."""

    front_offset_db: float = 13.0
    back_offset_db: float = 25.0

    def __post_init__(self):
        offsets = (self.front_offset_db, self.back_offset_db)
        if not all(0 <= off < math.inf for off in offsets):
            raise ConfigError(f"radiation offsets must be >= 0 and finite, got {offsets}")

    def offset_db(self, z: float) -> float:
        return self.front_offset_db if z >= 0 else self.back_offset_db


@dataclass(frozen=True)
class RadiationSample:
    position: tuple
    reference_dbm: float
    surface_fed_dbm: float
    offset_db: float


def default_radiation_positions():
    """The probe points, 1 m from the feed: four on a front arc and their
    mirror images in z on the back arc."""
    angles = np.linspace(math.pi / 8, math.pi - math.pi / 8, 4)
    pts = []
    for sign in (1.0, -1.0):
        for a in angles:
            pts.append((math.cos(a), 0.0, sign * math.sin(a)))
    return tuple(pts)


def radiation_benchmark(profile: RadiationProfile | None = None, tx_power_dbm: float = 0.0):
    """Received power at each probe point (``default_radiation_positions``)
    for an antenna reference versus a surface-fed emitter.

    The reference is the default air law's path from the feed point at
    2.437 GHz; the surface-fed value is that same reference minus the
    hemisphere offset, so the offset is independent of (and applied after)
    distance attenuation.  Returns [RadiationSample, ...].
    """
    if not math.isfinite(tx_power_dbm):
        raise ConfigError(f"tx_power_dbm must be finite, got {tx_power_dbm}")
    profile = profile or RadiationProfile()
    params = ChannelParams()
    out = []
    for pos in default_radiation_positions():
        d = math.sqrt(pos[0] ** 2 + pos[1] ** 2 + pos[2] ** 2)
        g = air_gain(d, 2.437e9, params.air_ref_m, params.air_exponent)
        ref = received_power_dbm(tx_power_dbm, g)
        off = profile.offset_db(pos[2])
        out.append(RadiationSample(tuple(pos), ref, ref - off, off))
    return out


# --- carrier-sense sharing --------------------------------------------------------


_SHARE_BAND = FrequencyBand(2.437e9, 20e6)


@dataclass(frozen=True)
class SharingPair:
    """A client/AP pair contending for surface airtime on one channel."""

    client: tuple
    ap: tuple
    channel: int  # a whole float such as 6.0 is taken as the int 6
    solo_rate_bps: float | None = None  # skip channel synthesis when given

    def __post_init__(self):
        if not float(self.channel).is_integer() or self.channel < 0:
            raise ConfigError(f"channel id must be a non-negative integer, got {self.channel}")
        rate = self.solo_rate_bps
        if rate is not None and not (math.isfinite(rate) and rate >= 0):
            raise ConfigError(f"solo_rate_bps must be finite and >= 0, got {rate}")
        object.__setattr__(self, "channel", int(self.channel))


@dataclass(frozen=True)
class SharingConfig:
    pairs: tuple = ()
    ambient_busy_fraction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise ConfigError("sharing config needs at least one pair")
        if not 0.0 <= self.ambient_busy_fraction <= 1.0:
            raise ConfigError(
                f"ambient_busy_fraction must be in [0, 1], got {self.ambient_busy_fraction}"
            )


@dataclass(frozen=True)
class ShareResult:
    pair_index: int
    channel: int
    solo_rate_bps: float
    win_fraction: float
    throughput_bps: float


def share_template(material="spraypaint") -> SceneTemplate:
    """A 4 ft x 2 ft surface shared by client/AP pairs."""
    return _strip(4.0, material)


def _solo_rate(pair: SharingPair, template: SceneTemplate, settings: LinkSettings) -> float:
    if pair.solo_rate_bps is not None:
        return float(pair.solo_rate_bps)
    scene = Scene(
        template.surface,
        nodes=(
            Node("client", "transmitter", contacts=(pair.client,)),
            Node("ap", "receiver", contacts=(pair.ap,)),
        ),
    )
    return run_link(scene, replace(settings, band=_SHARE_BAND)).phy_rate_bps


def share_sim(config: SharingConfig, n_slots: int,
              template: SceneTemplate | None = None,
              settings: LinkSettings | None = None, seed: int = 0):
    """Slotted carrier-sense contention over the surface.

    Per slot and channel: an ambient-busy draw may block the slot outright
    (deferring to environment traffic); otherwise the pair with the smallest
    uniform backoff among that channel's contenders transmits.  Continuous
    backoffs make ties a measure-zero event, so two symmetric contenders
    split airtime exactly in half in expectation.  Each channel consumes its
    own seeded generator, so activity on one channel never perturbs another.
    A pair with no solo rate is synthesized on _SHARE_BAND and takes its
    rows of settings.mcs_table.  Returns [ShareResult, ...] in pair order.
    """
    if n_slots <= 0:
        raise ConfigError(f"n_slots must be positive, got {n_slots}")
    template = template or share_template()
    settings = settings or LinkSettings()
    solo = [_solo_rate(p, template, settings) for p in config.pairs]

    by_channel: dict = {}
    for i, p in enumerate(config.pairs):
        by_channel.setdefault(p.channel, []).append(i)

    win_fraction = [0.0] * len(config.pairs)
    for channel in sorted(by_channel):
        members = by_channel[channel]
        rng = np.random.default_rng([seed, channel])
        free = rng.uniform(size=n_slots) >= config.ambient_busy_fraction
        backoffs = rng.uniform(size=(n_slots, len(members)))
        winners = np.argmin(backoffs, axis=1)
        for j, idx in enumerate(members):
            win_fraction[idx] = float(np.sum(free & (winners == j)) / n_slots)

    return [
        ShareResult(i, p.channel, solo[i], win_fraction[i], win_fraction[i] * solo[i])
        for i, p in enumerate(config.pairs)
    ]
