"""Closed-form propagation models for conductive-surface and air paths.

The surface is treated as a lossy transmission medium: a single path of
length ``d`` has complex gain ``exp(-alpha*d) * exp(-1j*beta*d) * (d0/d)``
with material constants ``alpha`` (Np/m) and ``beta`` (rad/m).  Air paths
use ``exp(-1j*w*d/c) * (d0/d)**p`` with a configurable amplitude exponent
``p`` (2 by default, 1 for a Friis-style amplitude law).

Each law has one array definition, ``_surface_field``, ``_air_field`` and
``_wavenumber`` (with ``_propagation``, alpha + j*beta over a frequency
vector).  ``surface_gain`` and ``air_gain`` are checked calls of them at one
distance, and the channel engine (``channel.py``) calls them and keeps no
copy.  ``air_gain`` takes its distance as a one-element array, as the engine
takes every air distance: numpy's array power and its scalar one can differ
in the last bit at a non-integer exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMaterialError, DomainError, NearFieldError, PresetError

SPEED_OF_LIGHT = 299792458.0

VALID_BANDWIDTHS_HZ = (20e6, 40e6)
BAND_IDS = ("900MHz", "2.4GHz", "5GHz")


@dataclass(frozen=True)
class FrequencyBand:
    """A transmission band: center frequency, bandwidth and ISM band label.
    band_id=None is derived from the center when the band is built."""

    center_hz: float
    bandwidth_hz: float = 40e6
    band_id: str | None = None

    def __post_init__(self):
        if not self.center_hz > 0:
            raise DomainError(f"center_hz must be positive, got {self.center_hz}")
        if self.center_hz == math.inf:
            raise DomainError(f"center_hz must be finite, got {self.center_hz}")
        if self.band_id is None:
            band_id = ("900MHz" if self.center_hz < 1.5e9
                       else "2.4GHz" if self.center_hz < 4e9 else "5GHz")
            object.__setattr__(self, "band_id", band_id)
        if self.bandwidth_hz not in VALID_BANDWIDTHS_HZ:
            raise DomainError(
                f"bandwidth_hz must be one of {VALID_BANDWIDTHS_HZ}, got {self.bandwidth_hz}"
            )
        if self.band_id not in BAND_IDS:
            raise DomainError(f"band_id must be one of {BAND_IDS}, got {self.band_id!r}")


@dataclass(frozen=True)
class MaterialParams:
    """Surface propagation constants for one material.

    ``alpha`` / ``beta`` are stored as per-frequency anchor tables and
    linearly interpolated inside the covered range; queries outside the
    range are rejected rather than extrapolated.
    """

    name: str
    d0_m: float
    refl_coeff: float
    freqs_hz: tuple = field(default=())
    alphas_np_per_m: tuple = field(default=())
    betas_rad_per_m: tuple = field(default=())

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        a = np.asarray(self.alphas_np_per_m, dtype=float)
        b = np.asarray(self.betas_rad_per_m, dtype=float)
        problems = []
        nonfinite = [f"{self.name}: {key} anchors must be finite, got {t.tolist()}"
                     for key, t in (("frequency_hz", f), ("alpha_np_per_m", a),
                                    ("beta_rad_per_m", b)) if not np.isfinite(t).all()]
        if not 0 < self.d0_m < math.inf:
            problems.append(f"{self.name}: d0_m must be finite and > 0, got {self.d0_m}")
        if not (0.0 <= self.refl_coeff <= 1.0):
            problems.append(f"{self.name}: refl_coeff must be in [0, 1], got {self.refl_coeff}")
        if len(f) < 1 or len(f) != len(a) or len(f) != len(b):
            problems.append(f"{self.name}: need matching non-empty alpha/beta/frequency tables")
        elif nonfinite:
            problems += nonfinite
        else:
            if np.any(np.diff(f) <= 0):
                problems.append(f"{self.name}: frequency anchors must be strictly increasing")
            if np.any(a <= 0) or np.any(b <= 0):
                problems.append(f"{self.name}: alpha and beta must be positive")
            if np.any(np.diff(a) < 0) or np.any(np.diff(b) < 0):
                problems.append(f"{self.name}: alpha and beta must be nondecreasing in frequency")
        if problems:
            raise PresetError(problems)

    def _interp(self, table, f_hz):
        f = np.asarray(f_hz, dtype=float)
        lo, hi = self.freqs_hz[0], self.freqs_hz[-1]
        if np.any(f < lo) or np.any(f > hi):
            raise PresetError(
                f"{self.name}: frequency {np.min(f):.4g}..{np.max(f):.4g} Hz outside "
                f"preset coverage [{lo:.4g}, {hi:.4g}] Hz"
            )
        out = np.interp(f, self.freqs_hz, table)
        return float(out) if np.isscalar(f_hz) else out

    def alpha_at(self, f_hz):
        """Attenuation constant (Np/m) at frequency f_hz."""
        return self._interp(self.alphas_np_per_m, f_hz)

    def beta_at(self, f_hz):
        """Phase constant (rad/m) at frequency f_hz."""
        return self._interp(self.betas_rad_per_m, f_hz)


def _center_hz(f) -> float:
    return f.center_hz if isinstance(f, FrequencyBand) else float(f)


def _wavenumber(f):
    """Air wavenumber 2 pi f / c (rad/m) at a frequency or an array of them."""
    return 2.0 * math.pi * np.asarray(f, dtype=float) / SPEED_OF_LIGHT


def _propagation(m: MaterialParams, f):
    """Surface propagation constants alpha + j beta and air wavenumbers at a
    frequency or an array of them (one table interpolation for the array)."""
    return m.alpha_at(f) + 1j * m.beta_at(f), _wavenumber(f)


def _surface_field(d, gamma, m: MaterialParams):
    """Surface gain exp(-gamma d) d0/d at distances d (not below d0), with the
    propagation constant gamma = alpha + j beta, or an array of them (one
    leading axis per entry): shape gamma.shape + d.shape."""
    e = np.asarray(np.multiply.outer(-gamma, d))
    np.exp(e, out=e)
    e *= m.d0_m / d
    return e


def _air_field(d, k, air_ref: float, p: float):
    """Air gain (air_ref/d)^p exp(-j k d) at distances d (not below air_ref),
    at wavenumber k or an array of them (one leading axis per entry): shape
    k.shape + d.shape."""
    e = np.asarray(np.multiply.outer(-1j * k, d))
    np.exp(e, out=e)
    ratio = air_ref / d
    # Integer exponents use plain multiplication so the doubling-distance
    # ratio identities hold exactly in floating point.
    e *= ratio if p == 1 else ratio * ratio if p == 2 else ratio**p
    return e


def surface_gain(d: float, f, m: MaterialParams) -> complex:
    """Complex gain of a single surface path of length d (meters).

    Raises NearFieldError for d < m.d0_m: the model diverges below the
    reference distance and is not extrapolated.
    """
    if d <= 0:
        raise DomainError(f"distance must be positive, got {d}")
    if d < m.d0_m:
        raise NearFieldError(f"d = {d} m is below the reference distance d0 = {m.d0_m} m")
    gamma, _ = _propagation(m, _center_hz(f))
    return complex(_surface_field(d, gamma, m))


def air_gain(d: float, f, d0_air: float = 0.1, p: float = 2.0) -> complex:
    """Complex gain of a line-of-sight air path of length d (meters).

    Amplitude is (d0_air/d)**p with p = 2 by default; p = 1 gives the
    Friis-style amplitude law.  Phase is -omega*d/c.
    """
    if d <= 0:
        raise DomainError(f"distance must be positive, got {d}")
    if d < d0_air:
        raise NearFieldError(f"d = {d} m is below the air reference distance {d0_air} m")
    return complex(_air_field(np.array([d]), _wavenumber(_center_hz(f)), d0_air, p)[0])


def phase_velocity(f, m: MaterialParams) -> float:
    """Phase velocity omega/beta in the surface (m/s); always below c."""
    fc = _center_hz(f)
    beta = m.beta_at(fc)
    if beta == 0:
        raise DegenerateMaterialError(f"{m.name}: beta({fc:.4g} Hz) = 0")
    v = 2.0 * math.pi * fc / beta
    if v >= SPEED_OF_LIGHT:
        raise DegenerateMaterialError(
            f"{m.name}: phase velocity {v:.4g} m/s is not below c; "
            "not a valid surface material"
        )
    return v


def received_power_dbm(tx_power_dbm: float, gain: complex) -> float:
    """Received power for a complex path gain, in dBm."""
    mag = abs(gain)
    if mag == 0:
        return -math.inf
    return tx_power_dbm + 20.0 * math.log10(mag)
