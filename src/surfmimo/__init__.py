"""surfmimo: simulate and analyze MIMO communication over conductive surfaces.

The package synthesizes hybrid channel matrices from physical propagation
models (surface transmission-line law, line-of-sight air law, composite
surface/air coupling, boundary-reflection multipath), analyzes them
(capacity, conditioning, stream SNRs, MCS-mapped rates), and reproduces
link-level experiments: throughput sweeps, separation sweeps, pulse
profiling, multi-band aggregation, radiation offsets, and carrier-sense
surface sharing.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelMatrix,
    ChannelParams,
    ImpulseResponse,
    NoiseModel,
    build_mimo,
    csi,
    h_aa,
    h_as,
    h_sa,
    h_ss,
    impulse_response,
    subcarrier_frequencies,
)
from .errors import (
    ConfigError,
    DegenerateMaterialError,
    DomainError,
    NearFieldError,
    PresetError,
    ResultIOError,
    StreamSeparationError,
    SurfMimoError,
    UndefinedConditionError,
)
from .experiments import (
    AggregationPlan,
    Chain,
    LinkSettings,
    RadiationProfile,
    SceneTemplate,
    SharingConfig,
    SharingPair,
    analyze_link,
    build_link_scene,
    pulse_profile,
    radiation_benchmark,
    run_link,
    share_sim,
)
from .geometry import Node, Obstacle, Scene, SurfaceSpec, image_sources, validate_scene
from .io import ResultSet, config_hash, load_config, parse_config, read_results, write_results
from .mimo import (
    LinkResult,
    McsRow,
    McsTable,
    capacity,
    condition_number,
    effective_snr,
    link_results,
    map_rate,
    zf_stream_snrs,
)
from .presets import CouplingConstants
from .propagation import (
    FrequencyBand,
    MaterialParams,
    air_gain,
    phase_velocity,
    received_power_dbm,
    surface_gain,
)
