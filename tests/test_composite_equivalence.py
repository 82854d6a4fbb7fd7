"""The FFT channel engine against direct dense sums of the same integrals.

The dense references below build the full N x N point-pair distance matrix
and air kernel and sum the midpoint-rule integrals term by term, the way the
model defines them.  The engine must agree with them to 1e-12 relative on
random scenes, grids and air exponents, one tone at a time or a stack of
tones in one call, with either side's contacts through the FFT, and with
several contacts and antennas on each side.  The C1 integral, whose terms
can cancel by three orders, is checked in two parts: its FFT arithmetic
against a long-double dense sum of the engine's own fields and kernel
samples, and those inputs against the dense formulas to a few ulps.  The engine takes the C1, C2 and
C3 integrals over blocks of subcarriers; the block size must not change a bit
of the output.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfmimo import channel, presets
from surfmimo.io import load_config
from surfmimo.channel import ChannelParams, h_as, h_sa, h_ss, impulse_response
from surfmimo.geometry import ANTENNA, CONTACT, Node, Scene, SurfaceSpec
from surfmimo.presets import CouplingConstants
from surfmimo.propagation import SPEED_OF_LIGHT, FrequencyBand, MaterialParams, phase_velocity

RTOL = 1e-12

# spray-paint constants without boundary reflections: a contact pair then has
# exactly two taps, the direct path and the composite cluster
MATERIAL = MaterialParams("spray-noimages", 0.1, 0.0, (9e8, 2.45e9, 6e9),
                          (0.242437, 0.4, 0.625969), (34.295646, 93.360369, 228.637639))


def _dense_grid(surface, n):
    ny = max(2, int(round(n * surface.height_m / surface.width_m)))
    xs = (np.arange(n) + 0.5) * (surface.width_m / n)
    ys = (np.arange(ny) + 0.5) * (surface.height_m / ny)
    px, py = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([px.ravel(), py.ravel()])
    return pts, (surface.width_m / n) * (surface.height_m / ny)


def _dense_surface(pts, contact, f, m):
    d = np.maximum(np.hypot(pts[:, 0] - contact[0], pts[:, 1] - contact[1]), m.d0_m)
    return d, np.exp(-(m.alpha_at(f) + 1j * m.beta_at(f)) * d) * (m.d0_m / d)


def _dense_air(d, f, params):
    d = np.maximum(d, params.air_ref_m)
    k = 2.0 * math.pi * f / SPEED_OF_LIGHT
    return d, (params.air_ref_m / d) ** params.air_exponent * np.exp(-1j * k * d)


def dense_composite_delay(scene, tx, rx, f, n, params):
    """The magnitude-weighted mean delay of C1 * a_tx^T K a_rx dA^2 for one
    (transmit, receive) contact pair."""
    m = scene.surface.material
    pts, _ = _dense_grid(scene.surface, n)
    diff = pts[:, None, :] - pts[None, :, :]
    d2, kern = _dense_air(np.sqrt(np.sum(diff * diff, axis=2)), f, params)
    d1, a_tx = _dense_surface(pts, tx, f, m)
    d3, a_rx = _dense_surface(pts, rx, f, m)
    w = np.abs(a_tx)[:, None] * np.abs(kern) * np.abs(a_rx)[None, :]
    tau = (d1[:, None] + d3[None, :] + d2) / phase_velocity(f, m)
    return np.sum(w * tau) / np.sum(w)


def dense_cross(scene, contact, antenna, f, n, c_scalar, params):
    """c * sum A_S(contact, p) A_air(p, antenna) dA and its mean delay."""
    m = scene.surface.material
    pts, da = _dense_grid(scene.surface, n)
    d1, a = _dense_surface(pts, contact, f, m)
    d2, b = _dense_air(np.sqrt((pts[:, 0] - antenna[0]) ** 2 + (pts[:, 1] - antenna[1]) ** 2
                               + antenna[2] ** 2), f, params)
    w = np.abs(a) * np.abs(b)
    return c_scalar * da * np.sum(a * b), np.sum(w * (d1 + d2)) / np.sum(w) / phase_velocity(f, m)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 40))
    ny = draw(st.integers(2, 40))
    width = draw(st.floats(0.2, 3.0))
    surface = SurfaceSpec(width, width * ny / n, MATERIAL)

    def contact():
        return (draw(st.floats(0.0, surface.width_m)), draw(st.floats(0.0, surface.height_m)))

    def antenna():
        return (draw(st.floats(-0.2, surface.width_m + 0.2)),
                draw(st.floats(-0.2, surface.height_m + 0.2)), draw(st.floats(0.0, 0.3)))

    params = ChannelParams(
        coupling=CouplingConstants(draw(st.floats(0.001, 0.1)), draw(st.floats(0.001, 0.1)),
                                   draw(st.floats(0.001, 0.1)), 0.0),
        air_exponent=draw(st.sampled_from([1.0, 2.0, 2.5])),
    )
    f = draw(st.floats(2.0e9, 2.6e9))
    return surface, n, params, f, contact(), contact(), antenna()


def _close(got, want):
    return abs(got - want) <= RTOL * abs(want)


# contacts 20 m apart on a 35 m strip at two cells across: the far pairs sit
# four orders below the near ones, under an FFT's rounding of the kernel peak
FAR_PAIRS = (SurfaceSpec(2.25, 34.875, MATERIAL), 2,
             ChannelParams(coupling=CouplingConstants(0.0625, 0.0625, 0.0625, 0.0)),
             2.0e9, (0.0, 0.0), (0.0, 20.0), (0.0, 0.0, 0.0))

# an entry whose terms cancel 2,900-fold: at 2.350787435 GHz the engine is
# 7e-15 from the long-double sum of its own inputs, while a float64 dense sum
# of point-pair distances misses it by 1.1e-12
CANCELLING = (SurfaceSpec(2.654296875, 7.6974609375, MATERIAL), 10,
              ChannelParams(coupling=CouplingConstants(0.0625, 0.0625, 0.0625, 0.0),
                            air_exponent=1.0),
              2.0e9, (1.3828125, 5.0546875), (0.0, 6.060546875), (0.40625, 0.0, 0.0))

# a float64 entry cannot be held to 1e-12 against independently rounded
# inputs: an ulp of each field and kernel sample, times the cancellation of
# an entry's terms, is already more.  So the FFT arithmetic is checked
# against a long-double dense sum of the engine's own inputs, and those
# inputs, element by element, against the formulas written out here.
LONG_DOUBLE = float(np.finfo(np.longdouble).eps) < 1e-18
INPUT_ULPS = 4


def _long_double_correlation(grid, kernel, left, right):
    """sum_p sum_q left[t, p] K(p - q) right[r, q], the correlation that
    grid.correlate takes through the FFT, as a dense double sum in
    np.longdouble.  Each point pair reads its kernel sample off the offset
    lattice, where index i holds offset i below n and i - 2n above."""
    n, ny = grid.shape
    ix, iy = np.divmod(np.arange(n * ny), ny)
    kernel, left, right = (np.asarray(a, dtype=np.clongdouble) for a in (kernel, left, right))
    out = np.zeros((len(left), len(right)), dtype=np.clongdouble)
    for lo in range(0, n * ny, 256):
        p = slice(lo, lo + 256)
        pairs = kernel[(ix[p, None] - ix) % (2 * n), (iy[p, None] - iy) % (2 * ny)]
        out += left[:, p] @ (pairs @ right.T)
    return out


def _ports(case):
    surface, _, _, _, tx, rx, antenna = case
    # the engine correlates all receive contacts at once
    return [tx, rx], [rx, tx, (min(max(antenna[0], 0.0), surface.width_m), rx[1])]


def _within(got, want, rtol):
    return np.all(np.abs(got - want) <= rtol * np.abs(want))


@pytest.mark.skipif(not LONG_DOUBLE, reason="np.longdouble is not wider than float64 "
                    "here, so it cannot serve as the exact reference of a float64 sum")
@settings(max_examples=30, deadline=None)
@given(cases(), st.lists(st.floats(2.0e9, 2.6e9), max_size=2))
@example(FAR_PAIRS, [])
@example(CANCELLING, [2.350787435e9])
def test_fft_composite_matches_dense_double_sum(case, more_freqs):
    surface, n, params, f, tx, rx, _ = case
    scene = Scene(surface)
    band = FrequencyBand(f)
    txs, rxs = _ports(case)
    m = surface.material
    grid = channel._Grid(surface, n, params)
    d_tx, d_rx = (np.array([grid.surface_distance(p, m.d0_m) for p in ps]) for ps in (txs, rxs))
    # one tone, then a stack of tones in one call: (B, T, R), each tone
    # against the dense sum of the fields and kernel samples it correlates
    freqs = np.array([f, *more_freqs])
    gammas, ks = channel._propagation(m, freqs)
    c1 = params.coupling.c1 * grid.da * grid.da
    amps = [c1 * _long_double_correlation(grid, grid.air_kernel(k),
                                          channel._surface_field(d_tx, gamma, m),
                                          channel._surface_field(d_rx, gamma, m))
            for gamma, k in zip(gammas, ks)]
    got = channel._composite(grid, grid.air_kernel(ks[0]),
                             channel._surface_field(d_tx, gammas[0], m),
                             channel._surface_field(d_rx, gammas[0], m), params)
    assert _within(got, amps[0], RTOL)
    stacked = channel._composite(grid, grid.air_kernel(ks),
                                 channel._surface_field(d_tx, gammas, m),
                                 channel._surface_field(d_rx, gammas, m), params)
    assert stacked.shape == (len(freqs), len(txs), len(rxs))
    for got_b, want in zip(stacked, amps):
        assert _within(got_b, want, RTOL)

    amp = amps[0].astype(complex)
    without = ChannelParams(coupling=CouplingConstants(0.0, 0.0, 0.0, 0.0),
                            air_exponent=params.air_exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # contacts closer than d0
        # inside the engine, next to the direct paths: more receive rows (R > T)
        # send the transmit rows through the FFT, fewer (R < T) the receive rows
        for rx_pts, tx_pts, want in ((rxs, txs, amp.T), (txs, rxs, amp)):
            rx_ports, tx_ports = ([(CONTACT, p) for p in pts] for pts in (rx_pts, tx_pts))
            with mock.patch.object(channel, "_composite", wraps=channel._composite) as spy:
                h = channel._synthesize(scene, [f], n, params, rx_ports, tx_ports)[0]
            assert spy.call_args.args[3].shape[-2] == 2  # the FFT'd rows
            paths = channel._synthesize(scene, [f], n, without, rx_ports, tx_ports)[0]
            assert np.all(np.abs(h - paths - want) <= RTOL * (np.abs(paths) + np.abs(want)))
        # the composite cluster is the tap after the direct path
        (_, direct), composite = impulse_response(
            (CONTACT, tx), (CONTACT, rx), scene, band, n, params).taps
        total = h_ss(tx, rx, scene, band, n, params)
        paths = h_ss(tx, rx, scene, band, n, without)
    assert _close(composite[1], amp[0, 0])
    # the same integral inside h_ss, next to the direct path
    assert paths == direct
    assert abs(total - paths - amp[0, 0]) <= RTOL * (abs(paths) + abs(amp[0, 0]))


@settings(max_examples=30, deadline=None)
@given(cases(), st.lists(st.floats(2.0e9, 2.6e9), max_size=2))
@example(FAR_PAIRS, [])
@example(CANCELLING, [2.350787435e9])
def test_composite_inputs_match_the_model_formulas(case, more_freqs):
    # what the C1 correlation sums, element by element: each contact's
    # surface field on the grid and the air kernel at every lattice offset,
    # against the dense formulas above; no sum, so a few ulps
    surface, n, params, f, tx, rx, _ = case
    scene = Scene(surface)
    txs, rxs = _ports(case)
    m = surface.material
    grid = channel._Grid(surface, n, params)
    pts, da = _dense_grid(surface, n)
    assert grid.shape[0] * grid.shape[1] == len(pts)
    eps = INPUT_ULPS * np.finfo(float).eps
    assert _within(np.column_stack([grid.x, grid.y]), pts, eps) and _within(grid.da, da, eps)
    nx, ny = grid.shape
    ox, oy = (np.concatenate([np.arange(c), np.arange(-c, 0)]) for c in (nx, ny))
    lattice = np.hypot(ox[:, None] * (surface.width_m / nx), oy[None, :] * (surface.height_m / ny))
    freqs = np.array([f, *more_freqs])
    gammas, ks = channel._propagation(m, freqs)
    for fb, gamma, k in zip(freqs, gammas, ks):
        assert _within(gamma, m.alpha_at(fb) + 1j * m.beta_at(fb), eps)
        assert _within(k, 2.0 * math.pi * fb / SPEED_OF_LIGHT, eps)
        assert _within(grid.air_kernel(k), _dense_air(lattice, fb, params)[1], eps)
        for contact in txs + rxs:
            row = channel._surface_field(grid.surface_distance(contact, m.d0_m), gamma, m)
            assert _within(row, _dense_surface(pts, contact, fb, m)[1], eps)

    # the composite tap's delay, a mean with positive weights, against the
    # float64 dense sum
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # contacts closer than d0
        composite = impulse_response((CONTACT, tx), (CONTACT, rx), scene, FrequencyBand(f),
                                     n, params).taps[-1]
    assert _close(composite[0], dense_composite_delay(scene, tx, rx, f, n, params))


@settings(max_examples=30, deadline=None)
@given(cases(), st.data())
def test_cross_terms_match_dense_sums(case, data):
    surface, n, params, f, contact, _, antenna = case
    scene = Scene(surface)
    band = FrequencyBand(f)
    for c_scalar, h, tx, rx in (
        (params.coupling.c2, h_sa(contact, antenna, scene, band, n, params),
         (CONTACT, contact), (ANTENNA, antenna)),
        (params.coupling.c3, h_as(antenna, contact, scene, band, n, params),
         (ANTENNA, antenna), (CONTACT, contact)),
    ):
        amp, delay = dense_cross(scene, contact, antenna, f, n, c_scalar, params)
        assert _close(h, amp)
        (tap,) = impulse_response(tx, rx, scene, band, n, params).taps
        assert _close(tap[1], amp)
        # the engine's own integral, not a second evaluation of it
        assert tap[1] == h
        assert _close(tap[0], delay)

    # several contacts and antennas on each side in any order, in one call:
    # every contact -> antenna entry is its C2 integral, every antenna ->
    # contact entry its C3 integral
    def ports(z_lo, z_hi):
        contacts = data.draw(st.lists(st.tuples(
            st.floats(0.0, surface.width_m), st.floats(0.0, surface.height_m)),
            min_size=2, max_size=3))
        antennas = data.draw(st.lists(st.tuples(
            st.floats(-0.2, surface.width_m + 0.2), st.floats(-0.2, surface.height_m + 0.2),
            st.floats(z_lo, z_hi)), min_size=2, max_size=3))
        return data.draw(st.permutations(
            [(CONTACT, p) for p in contacts] + [(ANTENNA, p) for p in antennas]))

    # receive antennas sit above the transmit antennas, so every antenna pair
    # is beyond the air reference distance
    tx_ports, rx_ports = ports(0.0, 0.3), ports(0.45, 0.75)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # contacts closer than d0
        h = channel._synthesize(scene, [f], n, params, rx_ports, tx_ports)[0]
    for i, (rk, rp) in enumerate(rx_ports):
        for j, (tk, tp) in enumerate(tx_ports):
            if rk != tk:
                c_scalar = params.coupling.c2 if tk == CONTACT else params.coupling.c3
                contact, antenna = (tp, rp) if tk == CONTACT else (rp, tp)
                amp, _ = dense_cross(scene, contact, antenna, f, n, c_scalar, params)
                assert _close(h[i, j], amp)


def _coupled_3x3():
    """A 3x3 hybrid desk scene (two contacts and one antenna per node) with
    every coupling term on."""
    scene = Scene(SurfaceSpec(1.2, 0.6096, presets.load_material("spraypaint")), (
        Node("tx", "transmitter", contacts=((0.15, 0.30), (0.2, 0.45)),
             antennas=((0.15, 0.2, 0.02),)),
        Node("rx", "receiver", contacts=((0.9, 0.3), (1.05, 0.15)),
             antennas=((1.0, 0.4, 0.03),)),
    ))
    return scene, ChannelParams(coupling=CouplingConstants(0.05, 0.03, 0.04, 0.7))


def test_csi_is_bitwise_independent_of_the_block_size(monkeypatch):
    scene, params = _coupled_3x3()
    band, tones, n = FrequencyBand(2.437e9, 40e6), 61, 12
    grid = channel._Grid(scene.surface, n, params)
    cells, lattice = grid.x.size, grid.lattice_d.size
    # a tone: the kernel and two FFT'd contact rows on the lattice, and two
    # contact and one antenna field rows per side on the grid
    tone = 3 * lattice + 6 * cells
    # just short of four tones: leaving any of those rows out of the count
    # would fit four or more
    budget = 4 * tone - 1
    size = budget // tone
    assert budget // (tone - 2 * cells) > size
    # this budget splits the tones into blocks, the last one partial
    assert 1 < size < tones and tones % size

    # the block size of every field stack and correlation, in call order
    blocks = {"surface": [], "antenna": [], "composite": []}
    surface_field, air_field, composite = (
        channel._surface_field, channel._air_field, channel._composite)

    # each side's field rows are evaluated on their distinct distances
    rx, _, tx, _ = channel._scene_ports(scene)
    d0, air_ref = scene.surface.material.d0_m, params.air_ref_m
    rows = {kind: [np.unique([distance(p) for k, p in ports if k == kind]) for ports in (rx, tx)]
            for kind, distance in ((CONTACT, lambda p: grid.surface_distance(p, d0)),
                                   (ANTENNA, lambda p: grid.air_distance(p, air_ref)))}

    def field_rows(kind, d):
        return any(np.array_equal(d, side) for side in rows[kind])

    def contact_rows(d, gamma, m):
        if field_rows(CONTACT, d):  # not a discrete surface path
            blocks["surface"].append(len(gamma))
        return surface_field(d, gamma, m)

    def antenna_rows(d, k, air_ref, p):
        if field_rows(ANTENNA, d):  # not the kernel, a hop or a line-of-sight path
            blocks["antenna"].append(len(k))
        return air_field(d, k, air_ref, p)

    monkeypatch.setattr(channel, "_surface_field", contact_rows)
    monkeypatch.setattr(channel, "_air_field", antenna_rows)
    monkeypatch.setattr(channel, "_composite", lambda g, k, a, b, p: (
        blocks["composite"].append(len(k)) or composite(g, k, a, b, p)))

    def run(budget):
        monkeypatch.setattr(channel, "_BLOCK_ELEMENTS", budget)
        return channel.csi(scene, band, tones, n, params).entries

    split = run(budget)
    assert np.all(split != 0)
    # one loop over the blocks: per block, each side's contact fields and
    # antenna fields once and one correlation
    sizes = [size] * (tones // size) + [tones % size]
    per_side = [b for b in sizes for _ in ("rx", "tx")]
    assert blocks == {"surface": per_side, "antenna": per_side, "composite": sizes}
    # one tone per block, the default budget, all tones in one block
    for other in (1, channel._BLOCK_ELEMENTS, tones * tone):
        assert np.array_equal(run(other), split)
    # a one-tone block is the single-frequency path of build_mimo
    freqs = channel.subcarrier_frequencies(band, tones)
    for f_sc, h in zip(freqs[::10], split[::10]):
        assert np.array_equal(channel.build_mimo(scene, f_sc, n, params).entries, h)


def _scene_case(name):
    """(scene, band, channel parameters, grid) of a shipped scene or of the
    coupled 3x3 desk above."""
    if name == "coupled_3x3":
        scene, params = _coupled_3x3()
        return scene, FrequencyBand(2.437e9, 40e6), params, 12
    cfg = load_config(presets.scene_path(name))
    return cfg.scene, cfg.settings.band, cfg.settings.params, cfg.settings.grid


@pytest.mark.parametrize("name", ["default_3x3", "cloth_10ft", "coupled_3x3"])
def test_impulse_taps_sum_to_the_engine_entry(name):
    # every path class between them: direct paths, images, the near-field
    # hop, C1, C2, C3 and the line of sight
    scene, band, params, grid = _scene_case(name)
    h = channel.build_mimo(scene, band, grid, params).entries
    rx_ports = [port for node in scene.receivers() for port in node.ports]
    tx_ports = [port for node in scene.transmitters() for port in node.ports]
    for i, rx in enumerate(rx_ports):
        for j, tx in enumerate(tx_ports):
            taps = impulse_response(tx, rx, scene, band, grid, params).amplitudes()
            assert _close(np.sum(taps), h[i, j])
