"""Scenario runners: sweeps, pulses, aggregation, radiation, sharing."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfmimo import presets
from surfmimo import experiments
from surfmimo.channel import ChannelParams, ImpulseResponse
from surfmimo.errors import ConfigError, DomainError
from surfmimo.experiments import (
    FOOT_M,
    MODE_2X2,
    MODE_3X3,
    MODE_AIR_MIMO,
    MODE_SISO,
    PULSE_WIDTH_S,
    SWEEP_MODES,
    AggregationPlan,
    Chain,
    LinkSettings,
    RadiationProfile,
    SharingConfig,
    SharingPair,
    aggregate_sweep,
    aggregation_plan,
    build_link_scene,
    default_distances_m,
    default_radiation_positions,
    default_template,
    multi_mode_separation_sweep,
    multi_mode_sweep,
    pulse_profile,
    radiation_benchmark,
    run_link,
    scenario1_plan,
    scenario2_plan,
    share_sim,
    share_template,
)
from surfmimo.geometry import Node, Scene, SurfaceSpec
from surfmimo.mimo import LinkResult, McsTable
from surfmimo.presets import CouplingConstants
from surfmimo.propagation import FrequencyBand, air_gain, received_power_dbm

FAST = LinkSettings(grid=8, n_subcarriers=2)


def test_default_distances():
    d = default_distances_m()
    assert len(d) == 16
    assert d[0] == FOOT_M and d[-1] == 16 * FOOT_M


def test_link_settings_validation_and_budget():
    with pytest.raises(ConfigError):
        LinkSettings(mac_efficiency=0.0)
    with pytest.raises(ConfigError):
        LinkSettings(mac_efficiency=1.2)
    with pytest.raises(ConfigError):
        LinkSettings(antenna_height_m=-0.01)
    for beta in (0.0, -2.0):
        with pytest.raises(ConfigError, match="esm_beta"):
            LinkSettings(esm_beta=beta)
    # a spacing of 0 put two ports on one point, and a negative one moved the
    # far contact behind its partner; both ran
    with pytest.raises(ConfigError) as err:
        LinkSettings(contact_spacing_m=0.0, air_antenna_spacing_m=-0.4)
    assert err.value.problems == ["contact_spacing_m must be positive, got 0.0",
                                  "air_antenna_spacing_m must be positive, got -0.4"]
    # a value that is not finite is named once, by the finite check, and not
    # again by its range check
    nan = float("nan")
    with pytest.raises(ConfigError) as err:
        LinkSettings(contact_spacing_m=nan, antenna_height_m=nan)
    assert err.value.problems == ["antenna_height_m must be finite, got nan",
                                  "contact_spacing_m must be finite, got nan"]
    with pytest.raises(ConfigError) as err:
        LinkSettings(esm_beta=nan, air_antenna_spacing_m=-math.inf, contact_spacing_m=0.0)
    assert err.value.problems == ["contact_spacing_m must be positive, got 0.0",
                                  "esm_beta must be finite, got nan",
                                  "air_antenna_spacing_m must be finite, got -inf"]
    assert LinkSettings(antenna_height_m=0.0).antenna_height_m == 0.0
    with pytest.raises(ConfigError, match="max_image_order"):
        ChannelParams(max_image_order=-1)
    assert LinkSettings(snr_db=20.0).snr_linear() == 100.0
    # budget path: tx power over the thermal floor for the active bandwidth
    s = LinkSettings(tx_power_dbm=-10.0)
    expected_db = -10.0 - s.noise.noise_power_dbm(40e6)
    assert 10 * math.log10(s.snr_linear()) == pytest.approx(expected_db, abs=1e-12)
    assert LinkSettings().rate_table().max_rate_bps == 200e6
    assert LinkSettings(band=FrequencyBand(2.437e9, 20e6)).rate_table().max_rate_bps == 86.7e6


def test_a_whole_rate_table_gives_each_link_its_own_bandwidth_rows():
    # a 20 MHz link given the table of every bandwidth must rate itself on
    # the 20 MHz rows, exactly as with the default (shipped) table
    band20 = FrequencyBand(2.437e9, 20e6)
    whole = presets.load_mcs_table()
    scene = build_link_scene(default_template(), (0.3,), MODE_2X2)
    given = run_link(scene, LinkSettings(band=band20, mcs_table=whole, grid=8,
                                         n_subcarriers=8))
    default = run_link(scene, LinkSettings(band=band20, grid=8, n_subcarriers=8))
    assert given == default
    assert given.phy_rate_bps == 173.4e6

    fast20 = replace(FAST, band=band20)
    distances = (FOOT_M, 4 * FOOT_M)
    assert (multi_mode_sweep(distances_m=distances, settings=replace(fast20, mcs_table=whole))
            == multi_mode_sweep(distances_m=distances, settings=fast20))


def test_build_link_scene_layouts():
    tpl = default_template()
    st = LinkSettings()
    d = 2.0
    per_mode = {m: build_link_scene(tpl, (d,), m, st) for m in SWEEP_MODES}

    siso = per_mode[MODE_SISO]
    assert siso.transmitters()[0].contacts == ()
    assert len(siso.transmitters()[0].antennas) == 1

    air = per_mode[MODE_AIR_MIMO].transmitters()[0]
    assert len(air.antennas) == 2
    assert air.antennas[1][1] - air.antennas[0][1] == st.air_antenna_spacing_m

    s22 = per_mode[MODE_2X2].transmitters()[0]
    assert len(s22.contacts) == 1 and len(s22.antennas) == 1
    # the antenna sits directly above its contact
    assert s22.antennas[0][:2] == s22.contacts[0]
    assert s22.antennas[0][2] == st.antenna_height_m

    s33 = per_mode[MODE_3X3].transmitters()[0]
    assert len(s33.contacts) == 2 and len(s33.antennas) == 1
    assert s33.contacts[1][0] - s33.contacts[0][0] == pytest.approx(
        st.contact_spacing_m, rel=1e-12)

    # shared geometry across modes: the first antenna is the same point
    ref = siso.transmitters()[0].antennas[0]
    for m in (MODE_AIR_MIMO, MODE_2X2, MODE_3X3):
        assert per_mode[m].transmitters()[0].antennas[0] == ref

    rx = per_mode[MODE_2X2].receivers()[0]
    assert rx.contacts[0][0] - s22.contacts[0][0] == pytest.approx(d)


def test_build_link_scene_rejects_bad_inputs():
    tpl = default_template()
    with pytest.raises(ConfigError):
        build_link_scene(tpl, (1.0,), "duplex", LinkSettings())
    with pytest.raises(ConfigError):  # a sweep of no distances still names its mode
        multi_mode_sweep(tpl, (), ("duplex",), FAST)
    with pytest.raises(DomainError):
        build_link_scene(tpl, (0.0,), MODE_2X2, LinkSettings())
    with pytest.raises(DomainError):
        build_link_scene(tpl, (5.2,), MODE_3X3, LinkSettings())  # runs off the strip
    # 16 ft still fits on the default strip
    build_link_scene(tpl, (16 * FOOT_M,), MODE_3X3, LinkSettings())


def test_run_link_mode_labels_and_rates():
    tpl = default_template()
    expected = {MODE_SISO: "SISO", MODE_AIR_MIMO: "MIMO-2x2",
                MODE_2X2: "MIMO-2x2", MODE_3X3: "MIMO-3x3"}
    for mode, label in expected.items():
        res = run_link(build_link_scene(tpl, (FOOT_M,), mode, FAST), FAST)
        assert res.mode == label
        assert res.phy_rate_bps > 0
        assert res.capacity_bps > 0
        assert np.isfinite(res.condition_number)


def test_run_link_starved_of_snr_reports_zero_rate():
    st = LinkSettings(grid=8, n_subcarriers=2, snr_db=-60.0)
    res = run_link(build_link_scene(default_template(), (FOOT_M,), MODE_2X2, st), st)
    assert res.phy_rate_bps == 0.0
    assert res.capacity_bps > 0  # Shannon capacity is still positive


def test_throughput_sweep_structure():
    rows = multi_mode_sweep(distances_m=(FOOT_M, 2 * FOOT_M), modes=(MODE_2X2,),
                            settings=FAST)[MODE_2X2]
    assert [d for d, _ in rows] == [FOOT_M, 2 * FOOT_M]
    assert all(r.phy_rate_bps >= 0 for _, r in rows)


def test_separation_insensitive_for_surface_modes():
    # the near-field patch saturates the antenna hop, so sliding the antenna
    # between 1 and 6 cm leaves the matrix (and hence the rate) unchanged
    rows = multi_mode_separation_sweep(separations_m=(0.01, 0.03, 0.06), modes=(MODE_2X2,),
                                       settings=FAST)[MODE_2X2]
    rates = [r.phy_rate_bps for _, r in rows]
    assert rates[0] == rates[1] == rates[2]
    assert [s for s, _ in rows] == [0.01, 0.03, 0.06]


def test_separation_matters_for_the_air_baseline():
    rows = multi_mode_separation_sweep(separations_m=(0.01, 0.0625), modes=(MODE_AIR_MIMO,),
                                       settings=FAST)[MODE_AIR_MIMO]
    conds = [r.condition_number for _, r in rows]
    assert conds[0] > conds[1]  # tighter array, worse conditioning


def test_separation_sweep_summarizes_the_sixteen_default_distances():
    # each separation's entry is the summary of one sweep over 1-16 ft
    sweep = multi_mode_sweep(distances_m=default_distances_m(), modes=(MODE_2X2,),
                             settings=replace(FAST, antenna_height_m=0.03))[MODE_2X2]
    assert [d for d, _ in sweep] == list(default_distances_m())
    (sep, summary), = multi_mode_separation_sweep(separations_m=(0.03,), modes=(MODE_2X2,),
                                                  settings=FAST)[MODE_2X2]
    assert sep == 0.03
    assert summary == experiments._sweep_summary(sweep)


def test_sweep_summary_is_the_mean_rate_and_capacity_and_the_worst_condition():
    rows = [(FOOT_M, LinkResult(100e6, 2.0, (10.0, 20.0), 60e6, "MIMO-2x2", (0, 1))),
            (2 * FOOT_M, LinkResult(50e6, 8.0, (4.0,), 30e6, "MIMO-2x2", (0,)))]
    summary = experiments._sweep_summary(rows)
    assert summary == LinkResult(75e6, 8.0, (9.5,), 45e6, "MIMO-2x2")


# --- pulse profiling ----------------------------------------------------------


def _single_path_scene():
    m = presets.load_material("spraypaint")
    flat = type(m)("flat", m.d0_m, 0.0, m.freqs_hz, m.alphas_np_per_m,
                   m.betas_rad_per_m)
    return Scene(SurfaceSpec(3.0, 1.0, flat), (
        Node("tx", "transmitter", contacts=((0.5, 0.5),)),
        Node("rx", "receiver", contacts=((1.5, 0.5),)),
    ))


def test_pulse_profile_single_tap():
    scene = _single_path_scene()
    tx, rx = scene.transmitters()[0].ports[0], scene.receivers()[0].ports[0]
    p = ChannelParams(coupling=CouplingConstants(0.0, 0.0, 0.0, 0.0))
    prof = pulse_profile(scene, tx, rx, sample_rate_hz=4e9, params=p)
    delay, amp = prof.response.taps[0]
    assert len(prof.response.taps) == 1
    assert prof.peak_amplitude() == pytest.approx(abs(amp), rel=1e-12)
    # 1 ns pulse at 4 GS/s: exactly 4 nonzero samples starting at the tap
    nz = np.flatnonzero(np.abs(prof.samples))
    assert len(nz) == 4
    assert prof.time_s[nz[0]] >= delay
    assert prof.residual_after(delay + 2e-9) == 0.0
    assert prof.residual_after(0.0) == 1.0


def test_pulse_profile_validates_sample_rate():
    scene = _single_path_scene()
    tx, rx = scene.transmitters()[0].ports[0], scene.receivers()[0].ports[0]
    with pytest.raises(ConfigError):
        pulse_profile(scene, tx, rx, sample_rate_hz=0.5e9)


def _mask_samples(time_s, taps):
    """Each tap added to the samples with delay <= t < delay + 1 ns, one
    boolean mask over all samples per tap: the reference placement."""
    y = np.zeros(len(time_s), dtype=complex)
    for delay, amp in taps:
        y[(time_s >= delay) & (time_s < delay + PULSE_WIDTH_S)] += amp
    return y


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 60), st.sampled_from([0.0, 0.5, 0.999999]),
                          st.complex_numbers(max_magnitude=10.0, allow_nan=False)),
                min_size=1, max_size=8, unique_by=lambda tap: tap[:2]),
       st.sampled_from([2.5e9, 3e9, 4e9, 5.3e9]))
def test_pulse_taps_land_on_the_samples_the_mask_picks(picks, fs):
    # delays on sample boundaries (k / fs), between them, and past the 10 ns
    # horizon; the 1 ns pulse spans a whole sample count at 4 GS/s, a
    # fractional one at 2.5 and 5.3 GS/s, and at 3 GS/s three samples of a
    # period (1/3 ns) that no float holds exactly
    taps = tuple(sorted(((k + frac) / fs, amp) for k, frac, amp in picks))
    scene = _single_path_scene()
    tx, rx = scene.transmitters()[0].ports[0], scene.receivers()[0].ports[0]
    with mock.patch.object(experiments, "impulse_response",
                           return_value=ImpulseResponse(taps, 40e6)):
        prof = pulse_profile(scene, tx, rx, sample_rate_hz=fs, duration_s=10e-9)
    assert len(prof.samples) == math.ceil(10e-9 * fs)
    expected = _mask_samples(prof.time_s, taps)
    assert prof.samples.tobytes() == expected.tobytes()


def test_pulse_samples_of_the_desk_scene_equal_the_mask_placement():
    from surfmimo.io import load_config

    cfg = load_config(presets.scene_path("default_3x3"))
    tx_ports = cfg.scene.transmitters()[0].ports
    rx_ports = cfg.scene.receivers()[0].ports
    for tx in tx_ports:
        for rx in rx_ports:
            prof = pulse_profile(cfg.scene, tx, rx, band=cfg.settings.band, grid=8)
            expected = _mask_samples(prof.time_s, prof.response.taps)
            assert prof.samples.tobytes() == expected.tobytes()


def test_pulse_default_horizon_covers_late_taps():
    from surfmimo.io import load_config

    cfg = load_config(presets.scene_path("cloth_10ft"))
    tx = cfg.scene.transmitters()[0].ports[0]
    rx = cfg.scene.receivers()[0].ports[0]
    prof = pulse_profile(cfg.scene, tx, rx, band=cfg.settings.band)
    assert prof.time_s[-1] >= prof.response.delays()[-1] + 49e-9
    assert prof.time_s[-1] >= prof.response.delays()[0] + 399e-9


# --- aggregation ---------------------------------------------------------------


def test_plan_bandwidth_totals_exact():
    assert scenario1_plan().total_bandwidth_hz == 260e6
    assert scenario2_plan().total_bandwidth_hz == 240e6
    assert aggregation_plan().name == "scenario1"
    assert aggregation_plan(no_dfs=True).name == "scenario2"
    assert sum(c.dfs for c in scenario1_plan().chains) == 4
    assert not any(c.dfs for c in scenario2_plan().chains)


def test_chain_validation():
    with pytest.raises(ConfigError):
        Chain(FrequencyBand(2.437e9, 20e6), conversion_loss_db=-1.0)
    with pytest.raises(ConfigError):
        Chain(FrequencyBand(2.437e9, 20e6), conversion_loss_db=3.0)
    Chain(FrequencyBand(915e6, 20e6, band_id="900MHz"), conversion_loss_db=6.0)
    Chain(FrequencyBand(915e6, 20e6), conversion_loss_db=6.0)  # the label is derived
    with pytest.raises(ConfigError):
        AggregationPlan(())


def test_aggregate_peak_hits_every_top_mcs():
    total, rows = aggregate_sweep(scenario1_plan(), (FOOT_M,))[0][1:]
    assert total == 1286.7e6
    assert total == sum(r.phy_rate_bps for r in rows)
    for r in rows:
        top = presets.load_mcs_table().for_bandwidth(r.bandwidth_hz / 1e6).max_rate_bps
        assert r.phy_rate_bps == top


def test_aggregate_sweep_shape_and_decay():
    rows = aggregate_sweep(scenario2_plan(), distances_m=(FOOT_M, 9 * FOOT_M),
                           settings=LinkSettings(n_subcarriers=8))
    assert len(rows) == 2
    d0, total0, chains0 = rows[0]
    d1, total1, chains1 = rows[1]
    assert d0 == FOOT_M and len(chains0) == 7
    assert total1 <= total0
    assert total1 > 0


def test_aggregate_sweep_takes_its_distances_from_a_generator():
    # the scene loop used to consume a one-shot iterable before the rows
    # were zipped with it, and the sweep came back empty
    listed = aggregate_sweep(aggregation_plan(), [0.3, 0.6], settings=FAST)
    assert len(listed) == 2
    assert aggregate_sweep(aggregation_plan(), (d for d in [0.3, 0.6]), settings=FAST) == listed


def _doubled_rates(table):
    return McsTable(tuple(replace(r, phy_rate_bps=2 * r.phy_rate_bps) for r in table.rows))


def test_aggregate_and_share_take_rates_from_a_given_table():
    shipped = presets.load_mcs_table()
    doubled = _doubled_rates(shipped)
    plan = scenario1_plan()
    (_, total, rows), = aggregate_sweep(plan, (FOOT_M,))
    (_, total2, rows2), = aggregate_sweep(plan, (FOOT_M,),
                                          settings=LinkSettings(mcs_table=doubled))
    assert total2 == 2 * total
    assert [r.phy_rate_bps for r in rows2] == [2 * r.phy_rate_bps for r in rows]
    assert aggregate_sweep(plan, (FOOT_M,), settings=LinkSettings(mcs_table=shipped)) == \
        [(FOOT_M, total, rows)]

    config = SharingConfig((SharingPair(client=(0.3, 0.3), ap=(0.9, 0.3), channel=6),))
    solo = share_sim(config, 100)[0].solo_rate_bps
    assert solo > 0
    assert share_sim(config, 100, settings=LinkSettings(mcs_table=doubled))[0].solo_rate_bps \
        == 2 * solo


# --- radiation offsets ----------------------------------------------------------


def test_radiation_offsets_exact():
    samples = radiation_benchmark()
    assert len(samples) == 8
    for s in samples:
        assert s.offset_db == (13.0 if s.position[2] >= 0 else 25.0)
        assert s.surface_fed_dbm == s.reference_dbm - s.offset_db


def test_radiation_reference_is_the_plain_air_budget():
    # every probe point is 1 m from the feed, at 2.437 GHz and the default air law
    g = air_gain(1.0, 2.437e9, 0.1, 2.0)
    for sample in radiation_benchmark(tx_power_dbm=0.0):
        assert sample.reference_dbm == pytest.approx(received_power_dbm(0.0, g), abs=1e-12)


def test_radiation_positions_mirrored():
    pts = default_radiation_positions()
    assert len(pts) == 8
    for i in range(4):
        front, back = pts[i], pts[i + 4]
        assert front[2] > 0 > back[2]
        assert front[:2] == back[:2] and front[2] == -back[2]
        assert math.hypot(*front) == pytest.approx(1.0)


def test_radiation_profile_validation():
    with pytest.raises(ConfigError):
        RadiationProfile(front_offset_db=-1.0)
    assert RadiationProfile().offset_db(0.0) == 13.0


# --- carrier-sense sharing -------------------------------------------------------


def _pair(channel, rate=100e6):
    return SharingPair((0.2, 0.3), (0.8, 0.3), channel, solo_rate_bps=rate)


def test_share_two_contenders_split_airtime():
    cfg = SharingConfig((_pair(6), _pair(6)))
    res = share_sim(cfg, 100_000)
    assert abs(res[0].win_fraction - 0.5) < 0.03
    assert abs(res[1].win_fraction - 0.5) < 0.03
    assert res[0].win_fraction + res[1].win_fraction == 1.0
    assert res[0].throughput_bps == res[0].win_fraction * 100e6


def test_share_channels_do_not_interact():
    both = share_sim(SharingConfig((_pair(6), _pair(6), _pair(11))), 5000)
    just6 = share_sim(SharingConfig((_pair(6), _pair(6))), 5000)
    just11 = share_sim(SharingConfig((_pair(11),)), 5000)
    assert both[0].win_fraction == just6[0].win_fraction
    assert both[1].win_fraction == just6[1].win_fraction
    assert both[2].win_fraction == just11[0].win_fraction


def test_share_fairness_tightens_with_slots():
    cfg = SharingConfig((_pair(6), _pair(6)))
    errs = []
    for slots in (1000, 100_000):
        devs = [abs(share_sim(cfg, slots, seed=s)[0].win_fraction - 0.5)
                for s in range(20)]
        errs.append(float(np.mean(devs)))
    assert errs[1] < errs[0] / 5  # ~ 1/sqrt(100x)


def test_share_ambient_busy_steals_slots():
    res = share_sim(SharingConfig((_pair(6),), ambient_busy_fraction=0.3), 200_000)
    assert abs(res[0].win_fraction - 0.7) < 0.01


def test_share_solo_rate_from_scene_when_not_given():
    pair = SharingPair((0.2, 0.3048), (0.8, 0.3048), 6)
    res = share_sim(SharingConfig((pair,)), 10,
                    settings=LinkSettings(grid=8, n_subcarriers=2))
    assert res[0].solo_rate_bps > 0
    assert res[0].throughput_bps == res[0].win_fraction * res[0].solo_rate_bps


def test_share_validation():
    with pytest.raises(ConfigError):
        SharingConfig(())
    with pytest.raises(ConfigError):
        SharingConfig((_pair(6),), ambient_busy_fraction=1.5)
    with pytest.raises(ConfigError):
        SharingPair((0, 0), (1, 0), channel=-1)
    with pytest.raises(ConfigError):
        share_sim(SharingConfig((_pair(6),)), 0)
    assert share_template().surface.width_m == 4.0 * FOOT_M
