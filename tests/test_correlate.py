"""The C1 correlation on one pass's buffers: bitwise the plain fft2/ifft2
correlation, whatever block sequence, FFT side or grid shape it runs on."""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfmimo import channel, presets
from surfmimo.channel import ChannelParams, csi, impulse_response
from surfmimo.geometry import ANTENNA, CONTACT, SurfaceSpec
from surfmimo.io import load_config
from surfmimo.propagation import SPEED_OF_LIGHT, FrequencyBand

NEAR = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]


def _reference_correlation(grid, kernel, left, right):
    """sum_p sum_q left[t, p] K(p - q) right[r, q] the plain way: one fft2
    of the rows zero-padded to the lattice, one of the kernel with its 3x3
    nearest offsets zeroed, their product through ifft2, and the nearest
    offsets added as shifted products."""
    n, ny = grid.shape
    field = right.reshape(right.shape[:-1] + (n, ny))
    far = kernel.copy()
    for ox, oy in NEAR:
        far[..., ox, oy] = 0
    conv = np.fft.ifft2(np.fft.fft2(field, s=(2 * n, 2 * ny))
                        * np.fft.fft2(far)[..., None, :, :])[..., :n, :ny]
    for ox, oy in NEAR:
        conv[..., max(ox, 0):n + min(ox, 0), max(oy, 0):ny + min(oy, 0)] += (
            kernel[..., ox, oy, None, None, None]
            * field[..., max(-ox, 0):n + min(-ox, 0), max(-oy, 0):ny + min(-oy, 0)])
    return left @ np.swapaxes(conv.reshape(right.shape), -1, -2)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _rows(rng, shape, real):
    rows = rng.standard_normal(shape)
    return rows if real else rows + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(width=st.floats(0.2, 3.0), aspect=st.floats(0.01, 1.5), n=st.integers(2, 24),
       tones=st.integers(1, 7), block=st.integers(1, 4), t=st.integers(1, 3),
       r=st.integers(1, 3), real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(width=1.2, aspect=0.508, n=32, tones=7, block=3, t=2, r=2, real=False, seed=0)
@example(width=3.0, aspect=0.05, n=12, tones=5, block=2, t=1, r=3, real=False, seed=1)  # ny 2
@example(width=1.0, aspect=0.3, n=5, tones=1, block=1, t=2, r=2, real=True, seed=2)
def test_buffered_correlation_is_bitwise_the_plain_fft2_one(width, aspect, n, tones, block,
                                                           t, r, real, seed):
    # one grid runs every block of a pass, the last one partial when block
    # does not divide tones, and each block on both FFT sides
    params = ChannelParams()
    grid = channel._Grid(SurfaceSpec(width, width * aspect, presets.load_material("spraypaint")),
                         n, params)
    cells = grid.x.size
    rng = np.random.default_rng(seed)
    k = 2.0 * math.pi * rng.uniform(0.9e9, 6.0e9, tones) / SPEED_OF_LIGHT
    kernels = grid.air_kernel(k)
    if real:  # the magnitude forms of impulse_response's composite delay
        kernels = np.abs(kernels) * grid.lattice_d
    left, right = _rows(rng, (tones, t, cells), real), _rows(rng, (tones, r, cells), real)
    for lo in range(0, tones, block):
        f = slice(lo, lo + block)
        for a, b in ((left[f], right[f]), (right[f], left[f])):
            want = _reference_correlation(grid, kernels[f], a, b)
            assert _bits(grid.correlate(kernels[f], a, b)) == _bits(want)
    # one tone without a leading axis, as build_mimo and impulse_response
    # take it, on the same buffers
    want = _reference_correlation(grid, kernels[0], left[0], right[0])
    assert _bits(grid.correlate(kernels[0], left[0], right[0])) == _bits(want)


def test_correlation_modifies_no_argument():
    params = ChannelParams()
    grid = channel._Grid(SurfaceSpec(1.2, 0.6096, presets.load_material("spraypaint")), 10,
                         params)
    rng = np.random.default_rng(3)
    kernel = grid.air_kernel(np.array([51.0, 52.0, 53.0]))
    left, right = _rows(rng, (3, 2, grid.x.size), False), _rows(rng, (3, 3, grid.x.size), False)
    before = [a.copy() for a in (kernel, left, right)]
    first = grid.correlate(kernel, left, right).copy()
    for a, b in zip((kernel, left, right), before):
        assert _bits(a) == _bits(b)
    # a second call on the same buffers reads the same inputs the same way
    assert _bits(grid.correlate(kernel, left, right)) == _bits(first)


def _scene(name):
    return load_config(presets.scene_path(name)).scene


def test_a_pass_leaves_no_state_for_the_next():
    # grids of other shapes and other row counts in between change no bit
    band = FrequencyBand(2.437e9, 40e6)
    desk, cloth = _scene("default_3x3"), _scene("cloth_10ft")

    def channel_bits(scene):
        return _bits(csi(scene, band, 7, 16).entries)

    first = channel_bits(desk)
    assert channel_bits(desk) == first
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        contact = next(p for node in cloth.transmitters() for p in node.ports if p[0] == CONTACT)
        rx_contact = next(p for node in cloth.receivers() for p in node.ports if p[0] == CONTACT)
        impulse_response(contact, rx_contact, cloth, band, 24)
    channel_bits(cloth)
    assert channel_bits(desk) == first


def _law_calls(monkeypatch, fn):
    """(surface law calls, air law calls) that fn() makes."""
    calls = {"surface": 0, "air": 0}
    surface_field, air_field = channel._surface_field, channel._air_field

    def surface(*args):
        calls["surface"] += 1
        return surface_field(*args)

    def air(*args):
        calls["air"] += 1
        return air_field(*args)

    with monkeypatch.context() as m:
        m.setattr(channel, "_surface_field", surface)
        m.setattr(channel, "_air_field", air)
        fn()
    return calls["surface"], calls["air"]


def test_impulse_response_reads_the_port_fields_of_its_integral(monkeypatch):
    # the composite tap's weights come from the fields the one-tone integral
    # pass formed: no law evaluation beyond the engine's for the same pair,
    # apart from the air kernel of the C1 delay forms
    scene = _scene("default_3x3")
    band = FrequencyBand(2.437e9, 40e6)
    tx = [p for node in scene.transmitters() for p in node.ports]
    rx = [p for node in scene.receivers() for p in node.ports]
    pairs = [(t, r) for t in tx for r in rx if CONTACT in (t[0], r[0])]
    assert {(t[0], r[0]) for t, r in pairs} == {(CONTACT, CONTACT), (CONTACT, ANTENNA),
                                                (ANTENNA, CONTACT)}
    for t, r in pairs:
        engine = _law_calls(monkeypatch, lambda: channel._synthesize(
            scene, [band.center_hz], 16, ChannelParams(), [r], [t]))
        taps = _law_calls(monkeypatch, lambda: impulse_response(t, r, scene, band, 16))
        kernel = 1 if t[0] == r[0] == CONTACT else 0
        assert taps == (engine[0], engine[1] + kernel)
