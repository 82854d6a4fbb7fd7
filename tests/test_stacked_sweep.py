"""A distance sweep as one channel-engine pass.

A sweep is one scene with one receiver node per distance, so one ``csi``
call synthesizes the receive ports of every distance against the shared
transmit ports and sends whichever side has fewer contact rows through the
FFT.  Each receiver must hold the ports of the one-distance scene at its
distance, each distance must agree with that scene synthesized alone to
1e-12 relative, and its link analysis must pick the same rate, stream count
and columns.  A multi-mode sweep reads a mode whose ports another mode holds
as slices of that mode's stack; each mode must match the same mode swept
alone, and so must each mode of a multi-mode separation sweep.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfmimo import channel
from surfmimo.channel import csi
from surfmimo.errors import DomainError
from surfmimo.experiments import (
    FOOT_M,
    MODE_2X2,
    MODE_3X3,
    MODE_AIR_MIMO,
    SWEEP_MODES,
    LinkSettings,
    build_link_scene,
    default_distances_m,
    default_template,
    multi_mode_separation_sweep,
    multi_mode_sweep,
    run_link,
)

RTOL = 1e-12
FAST = LinkSettings(grid=8, n_subcarriers=3)


def _check_against_single_distances(mode, distances, st_):
    template = default_template()
    sweep = build_link_scene(template, distances, mode, st_)
    scenes = [build_link_scene(template, (d,), mode, st_) for d in distances]
    assert [n.id for n in sweep.receivers()] == [f"rx{i}" for i in range(len(distances))]
    for rx, scene in zip(sweep.receivers(), scenes):
        assert sweep.transmitters() == scene.transmitters()
        assert rx.ports == scene.receivers()[0].ports
    tones = csi(sweep, st_.band, st_.n_subcarriers, st_.grid, st_.params).tones
    stacked = tones.reshape(tones.shape[0], len(distances), -1, tones.shape[-1])
    for d, scene in enumerate(scenes):
        alone = csi(scene, st_.band, st_.n_subcarriers, st_.grid, st_.params).entries
        assert np.all(np.abs(stacked[:, d] - alone) <= RTOL * np.abs(alone))

    swept = multi_mode_sweep(template, distances, (mode,), st_)[mode]
    assert [d for d, _ in swept] == [float(d) for d in distances]
    for scene, (_, got) in zip(scenes, swept):
        want = run_link(scene, st_)
        assert got.phy_rate_bps == want.phy_rate_bps
        assert got.tx_columns == want.tx_columns
        assert got.capacity_bps == pytest.approx(want.capacity_bps, rel=1e-9)


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_stacked_sweep_matches_each_distance_alone(mode):
    _check_against_single_distances(mode, default_distances_m(),
                                    LinkSettings(grid=16, n_subcarriers=8))


@settings(max_examples=12, deadline=None)
@given(mode=st.sampled_from(SWEEP_MODES),
       feet=st.lists(st.floats(1.0, 16.0), min_size=1, max_size=5),
       grid=st.integers(4, 24), tones=st.integers(1, 6))
def test_stacked_sweep_matches_random_distance_sets(mode, feet, grid, tones):
    _check_against_single_distances(mode, [f * FOOT_M for f in feet],
                                    LinkSettings(grid=grid, n_subcarriers=tones))


def _check_modes_against_each_alone(distances, st_):
    together = multi_mode_sweep(default_template(), distances, SWEEP_MODES, st_)
    _assert_rows_match(together, {
        mode: multi_mode_sweep(default_template(), distances, (mode,), st_)[mode]
        for mode in SWEEP_MODES})


def _assert_rows_match(together, alone_by_mode):
    assert list(together) == list(alone_by_mode)
    for mode, alone in alone_by_mode.items():
        assert [d for d, _ in together[mode]] == [d for d, _ in alone]
        for (_, got), (_, want) in zip(together[mode], alone):
            assert got.phy_rate_bps == want.phy_rate_bps
            assert got.tx_columns == want.tx_columns
            assert len(got.stream_snrs_db) == len(want.stream_snrs_db)  # n_streams
            assert got.mode == want.mode
            np.testing.assert_allclose(
                [got.capacity_bps, got.condition_number, *got.stream_snrs_db],
                [want.capacity_bps, want.condition_number, *want.stream_snrs_db],
                rtol=RTOL)


def test_all_modes_match_each_mode_swept_alone():
    _check_modes_against_each_alone(default_distances_m(), LinkSettings(grid=16, n_subcarriers=8))


@settings(max_examples=10, deadline=None)
@given(feet=st.lists(st.floats(1.0, 16.0), min_size=1, max_size=5),
       grid=st.integers(4, 24), tones=st.integers(1, 6))
def test_all_modes_match_each_mode_alone_at_random_distance_sets(feet, grid, tones):
    _check_modes_against_each_alone([f * FOOT_M for f in feet],
                                    LinkSettings(grid=grid, n_subcarriers=tones))


def test_modes_held_by_another_mode_are_not_synthesized(monkeypatch):
    calls = []
    synthesize = channel._synthesize
    monkeypatch.setattr(channel, "_synthesize",
                        lambda *args: calls.append(len(args[4])) or synthesize(*args))
    distances = (FOOT_M, 2 * FOOT_M)
    # siso and surface-2x2 are slices of surface-3x3; air-mimo has its own antenna
    assert list(multi_mode_sweep(distances_m=distances, settings=FAST)) == list(SWEEP_MODES)
    assert calls == [2 * 3, 2 * 2]  # surface-3x3, then air-mimo
    calls.clear()
    multi_mode_sweep(distances_m=distances, modes=(MODE_2X2, "air-mimo"), settings=FAST)
    assert calls == [2 * 2, 2 * 2]
    calls.clear()
    assert multi_mode_sweep(distances_m=(), settings=FAST) == {m: [] for m in SWEEP_MODES}
    assert calls == []


def test_separation_all_modes_match_each_mode_alone():
    seps = (0.01, 0.0625)
    together = multi_mode_separation_sweep(default_template(), seps, SWEEP_MODES, FAST)
    _assert_rows_match(together, {
        mode: multi_mode_separation_sweep(default_template(), seps, (mode,), FAST)[mode]
        for mode in SWEEP_MODES})
    # the air baseline's separation is its element spacing, not the height
    air = together[MODE_AIR_MIMO]
    assert air[0][1].condition_number != air[1][1].condition_number


def test_separation_sweep_shares_ports_at_each_separation(monkeypatch):
    calls = []
    synthesize = channel._synthesize
    monkeypatch.setattr(channel, "_synthesize",
                        lambda *args: calls.append(len(args[4])) or synthesize(*args))
    rows = multi_mode_separation_sweep(separations_m=(0.01, 0.03, 0.06), modes=SWEEP_MODES,
                                       settings=FAST)
    assert list(rows) == list(SWEEP_MODES)
    assert [len(r) for r in rows.values()] == [3, 3, 3, 3]
    # per separation: surface-3x3 (holding siso and surface-2x2), then
    # air-mimo, each over the 16 default distances
    assert calls == [16 * 3, 16 * 2] * 3


def test_sweep_synthesizes_once_per_mode(monkeypatch):
    calls = []
    synthesize = channel._synthesize
    monkeypatch.setattr(channel, "_synthesize",
                        lambda *args: calls.append(len(args[4])) or synthesize(*args))
    for mode in SWEEP_MODES:
        calls.clear()
        rows = multi_mode_sweep(distances_m=default_distances_m(), modes=(mode,),
                                settings=FAST)[mode]
        assert len(rows) == 16
        n_rx = len(build_link_scene(default_template(), (FOOT_M,), mode).receivers()[0].ports)
        assert calls == [16 * n_rx]  # every distance's receive ports in one call


def test_kernel_is_exactly_even_on_the_sweep_grid():
    # the FFT side may be swapped only because K(o) == K(-o) bitwise
    params = channel.ChannelParams()
    grid = channel._Grid(default_template().surface, 32, params)
    k = 2.0 * math.pi * channel.subcarrier_frequencies(FAST.band, 114) / channel.SPEED_OF_LIGHT
    kernel = grid.air_kernel(k)
    mirrored = np.roll(np.flip(kernel, axis=(-2, -1)), 1, axis=(-2, -1))  # K[-i, -j]
    assert np.array_equal(kernel, mirrored)


def test_non_finite_entry_on_the_stacked_path_raises(monkeypatch):
    real = channel._air_link

    def poisoned(pairs, k, params):
        h = real(pairs, k, params)
        h[-1] = np.nan
        return h

    monkeypatch.setattr(channel, "_air_link", poisoned)
    sweep = build_link_scene(default_template(), (FOOT_M, 2 * FOOT_M), MODE_2X2)
    with pytest.raises(DomainError, match="non-finite"):
        csi(sweep, FAST.band, 2, 8)
    with pytest.raises(DomainError, match="non-finite"):
        multi_mode_sweep(distances_m=(FOOT_M, 2 * FOOT_M), modes=(MODE_2X2,), settings=FAST)


def test_the_surface_law_runs_once_per_distinct_distance(monkeypatch):
    calls = []
    surface_field = channel._surface_field
    monkeypatch.setattr(channel, "_surface_field", lambda d, gamma, m: (
        calls.append((len(gamma), np.asarray(d))) or surface_field(d, gamma, m)))
    multi_mode_sweep(distances_m=(FOOT_M, 2 * FOOT_M), modes=(MODE_3X3,), settings=FAST)
    # three tones, one block and one group of path sets: each side's contact
    # field rows on their 34 and 19 distinct grid distances, and the 12 path
    # sets (588 lengths) on their 151 distinct lengths
    assert [(tones, d.shape) for tones, d in calls] == [(3, (34,)), (3, (19,)), (3, (151,))]
    assert all(np.unique(d).size == d.size for _, d in calls)
    assert sum(tones * d.size for tones, d in calls) == 612
