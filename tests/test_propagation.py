"""Path-loss laws, phase velocity, and the received-power budget."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfmimo.errors import (
    DegenerateMaterialError,
    DomainError,
    NearFieldError,
    PresetError,
)
from surfmimo.propagation import (
    SPEED_OF_LIGHT,
    FrequencyBand,
    MaterialParams,
    air_gain,
    phase_velocity,
    received_power_dbm,
    surface_gain,
)
from surfmimo import presets

F0 = 2.437e9


def test_surface_gain_log_linearity():
    # ln|g * d/d0| must equal -alpha*d to machine precision across the range.
    m = presets.load_material("spraypaint")
    alpha = m.alpha_at(F0)
    for d in np.linspace(m.d0_m, 5.0, 97):
        g = surface_gain(float(d), F0, m)
        lhs = math.log(abs(g) * d / m.d0_m)
        assert abs(lhs + alpha * d) < 1e-12


def test_surface_gain_phase_matches_beta():
    m = presets.load_material("spraypaint")
    beta = m.beta_at(F0)
    d = 1.7
    g = surface_gain(d, F0, m)
    # compare on the unit circle to dodge branch cuts
    assert abs(g / abs(g) - complex(math.cos(beta * d), -math.sin(beta * d))) < 1e-12


def test_surface_gain_rejects_near_field_and_nonpositive():
    m = presets.load_material("spraypaint")
    with pytest.raises(NearFieldError):
        surface_gain(m.d0_m / 2, F0, m)
    with pytest.raises(DomainError):
        surface_gain(0.0, F0, m)
    with pytest.raises(DomainError):
        surface_gain(-1.0, F0, m)


def test_air_gain_exponent_exact():
    # Doubling the distance scales the amplitude by exactly 1/4 (p = 2) or
    # exactly 1/2 (p = 1).  On the dyadic family d = d0 * 2^k every float
    # operation involved is exact, so the identity must hold with ==; off
    # the family it still holds to an ulp.
    for k in range(1, 6):
        d = 0.1 * 2.0**k
        g1 = air_gain(d, F0, p=2.0)
        g2 = air_gain(2 * d, F0, p=2.0)
        assert abs(g2) / abs(g1) == 0.25
        f1 = air_gain(d, F0, p=1.0)
        f2 = air_gain(2 * d, F0, p=1.0)
        assert abs(f2) / abs(f1) == 0.5
    rng = np.random.default_rng(3)
    for d in rng.uniform(0.11, 8.0, 200):
        r = abs(air_gain(2 * d, F0, p=2.0)) / abs(air_gain(float(d), F0, p=2.0))
        assert abs(r - 0.25) < 1e-15


@settings(max_examples=200, deadline=None)
@given(st.floats(0.11, 4.0), st.floats(0.9e9, 6e9), st.sampled_from([1.0, 2.0]))
def test_air_gain_doubling_ratio_at_any_frequency(d, f, p):
    # the amplitude law is exact; |exp(-jkd)| is 1 to within an ulp
    r = abs(air_gain(2 * d, f, p=p)) / abs(air_gain(d, f, p=p))
    assert abs(r - 0.5**p) < 1e-15


def test_air_gain_phase_is_minus_omega_d_over_c():
    d = 1.3
    g = air_gain(d, F0)
    phase = -2.0 * math.pi * F0 * d / SPEED_OF_LIGHT
    assert abs(g / abs(g) - complex(math.cos(phase), math.sin(phase))) < 1e-12


def test_air_gain_near_field_raises():
    with pytest.raises(NearFieldError):
        air_gain(0.05, F0, d0_air=0.1)
    with pytest.raises(DomainError):
        air_gain(0.0, F0)


def test_phase_velocity_below_c():
    for name in ("spraypaint", "cloth"):
        m = presets.load_material(name)
        v = phase_velocity(F0, m)
        assert 0 < v < SPEED_OF_LIGHT
        # omega/beta by definition
        assert abs(v - 2.0 * math.pi * F0 / m.beta_at(F0)) < 1e-6


def test_phase_velocity_degenerate_material():
    # A beta so small the implied velocity exceeds c is not a surface medium.
    m = MaterialParams("vacuumish", 0.1, 0.0, (1e9, 3e9), (0.1, 0.2), (1e-6, 2e-6))
    with pytest.raises(DegenerateMaterialError):
        phase_velocity(2e9, m)


def test_material_interpolation_and_coverage():
    m = MaterialParams("two-anchor", 0.1, 0.5, (1e9, 3e9), (0.2, 0.4), (50.0, 150.0))
    assert m.alpha_at(2e9) == pytest.approx(0.3)
    assert m.beta_at(2e9) == pytest.approx(100.0)
    with pytest.raises(PresetError):
        m.alpha_at(0.5e9)
    with pytest.raises(PresetError):
        m.beta_at(4e9)


def test_material_validation_collects_problems():
    with pytest.raises(PresetError):
        MaterialParams("bad", -0.1, 1.5, (2e9, 1e9), (0.1, 0.2), (10.0, 20.0))


def test_band_validation_and_labels():
    # a band built without a label takes the one its center lies in
    assert FrequencyBand(5.19e9).band_id == "5GHz"
    assert FrequencyBand(915e6, 20e6).band_id == "900MHz"
    assert FrequencyBand(2.437e9).band_id == "2.4GHz"
    assert FrequencyBand(2.437e9, 40e6, "5GHz").band_id == "5GHz"  # a given label is kept
    with pytest.raises(DomainError):
        FrequencyBand(2.437e9, 30e6)
    with pytest.raises(DomainError):
        FrequencyBand(2.437e9, 40e6, "6GHz")
    for center in (-1.0, math.nan):  # no label is derived from a NaN center
        with pytest.raises(DomainError):
            FrequencyBand(center)


def test_received_power_budget_anchors():
    # The spraypaint preset reproduces the measured link budget: roughly
    # -53.65 dBm at 16 ft for a -3 dBm transmit.
    m = presets.load_material("spraypaint")
    d16 = 16 * 0.3048
    rx = received_power_dbm(-3.0, surface_gain(d16, F0, m))
    assert rx == pytest.approx(-53.65, abs=0.05)
    assert received_power_dbm(0.0, 0.0) == -math.inf


def test_noise_power_matches_40mhz_budget():
    from surfmimo.channel import NoiseModel

    n = NoiseModel().noise_power_dbm(40e6)
    assert n == pytest.approx(-91.98, abs=0.01)
