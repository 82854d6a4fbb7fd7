"""A distance sweep as one channel-engine pass.

The sweep runners stack the receive ports of every distance against the
shared transmit ports in one synthesis and send whichever side has fewer
contact rows through the FFT.  Each distance must agree with the same
distance synthesized alone (the per-distance engine) to 1e-12 relative, and
its link analysis must pick the same rate, stream count and columns.  A
multi-mode sweep reads a mode whose ports another mode holds as slices of
that mode's stack; each mode must match the same mode swept alone, and
so must each mode of a multi-mode separation sweep.
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
    separation_sweep,
    throughput_sweep,
)
from surfmimo.geometry import Node, Scene

RTOL = 1e-12
FAST = LinkSettings(grid=8, n_subcarriers=3)


def _check_against_single_distances(mode, distances, st_):
    template = default_template()
    scenes = [build_link_scene(template, d, mode, st_) for d in distances]
    stacked = channel._channel_stack(scenes, st_.band, st_.n_subcarriers, st_.grid,
                                     st_.params)
    assert stacked.shape[1] == len(distances)
    for d, scene in enumerate(scenes):
        alone = csi(scene, st_.band, st_.n_subcarriers, st_.grid, st_.params).entries
        assert np.all(np.abs(stacked[:, d] - alone) <= RTOL * np.abs(alone))

    swept = throughput_sweep(template, distances, mode, st_)
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
        mode: throughput_sweep(default_template(), distances, mode, st_)
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
    seps, distances = (0.01, 0.0625), (FOOT_M, 3 * FOOT_M, 7 * FOOT_M)
    st_ = LinkSettings(grid=12, n_subcarriers=4)
    together = multi_mode_separation_sweep(default_template(), seps, SWEEP_MODES, st_,
                                           distances)
    _assert_rows_match(together, {
        mode: separation_sweep(default_template(), seps, mode, st_, distances)
        for mode in SWEEP_MODES})
    # the air baseline's separation is its element spacing, not the height
    air = together[MODE_AIR_MIMO]
    assert air[0][1].condition_number != air[1][1].condition_number


def test_separation_sweep_shares_ports_at_each_separation(monkeypatch):
    calls = []
    synthesize = channel._synthesize
    monkeypatch.setattr(channel, "_synthesize",
                        lambda *args: calls.append(len(args[4])) or synthesize(*args))
    distances = (FOOT_M, 2 * FOOT_M)
    rows = multi_mode_separation_sweep(separations_m=(0.01, 0.03, 0.06), modes=SWEEP_MODES,
                                       settings=FAST, distances_m=distances)
    assert list(rows) == list(SWEEP_MODES)
    assert [len(r) for r in rows.values()] == [3, 3, 3, 3]
    # per separation: surface-3x3 (holding siso and surface-2x2), then air-mimo
    assert calls == [2 * 3, 2 * 2] * 3


def test_sweep_synthesizes_once_per_mode(monkeypatch):
    calls = []
    synthesize = channel._synthesize
    monkeypatch.setattr(channel, "_synthesize",
                        lambda *args: calls.append(len(args[4])) or synthesize(*args))
    for mode in SWEEP_MODES:
        calls.clear()
        rows = throughput_sweep(distances_m=default_distances_m(), mode=mode, settings=FAST)
        assert len(rows) == 16
        n_rx = len(build_link_scene(default_template(), FOOT_M, mode).receivers()[0].ports)
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

    def poisoned(tx, rx, k, params):
        h = real(tx, rx, k, params)
        h[-1] = np.nan
        return h

    monkeypatch.setattr(channel, "_air_link", poisoned)
    scenes = [build_link_scene(default_template(), d, MODE_2X2) for d in (FOOT_M, 2 * FOOT_M)]
    with pytest.raises(DomainError, match="non-finite"):
        channel._channel_stack(scenes, FAST.band, 2, 8, None)
    with pytest.raises(DomainError, match="non-finite"):
        throughput_sweep(distances_m=(FOOT_M, 2 * FOOT_M), mode=MODE_2X2, settings=FAST)


def test_stacked_scenes_must_share_the_transmit_side():
    template = default_template()
    a = build_link_scene(template, FOOT_M, MODE_3X3)
    b = build_link_scene(template, 2 * FOOT_M, MODE_3X3)
    moved = Scene(b.surface, tuple(
        Node(n.id, n.role, tuple((x + 0.01, y) for x, y in n.contacts), n.antennas)
        if n.role == "transmitter" else n for n in b.nodes))
    other_mode = build_link_scene(template, 2 * FOOT_M, MODE_2X2)
    for bad in (moved, other_mode):
        with pytest.raises(DomainError, match="stacked scenes"):
            channel._channel_stack([a, bad], FAST.band, 2, 8, None)


def test_the_surface_law_runs_once_per_distinct_distance(monkeypatch):
    calls = []
    surface_field = channel._surface_field
    monkeypatch.setattr(channel, "_surface_field", lambda d, gamma, m: (
        calls.append((len(gamma), np.asarray(d))) or surface_field(d, gamma, m)))
    throughput_sweep(distances_m=(FOOT_M, 2 * FOOT_M), mode=MODE_3X3, settings=FAST)
    # three tones, one block and one group of path sets: each side's contact
    # field rows on their 34 and 19 distinct grid distances, and the 12 path
    # sets (588 lengths) on their 151 distinct lengths
    assert [(tones, d.shape) for tones, d in calls] == [(3, (34,)), (3, (19,)), (3, (151,))]
    assert all(np.unique(d).size == d.size for _, d in calls)
    assert sum(tones * d.size for tones, d in calls) == 612
