"""Channel synthesis: composite matrices, CSI, impulse responses."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import j0

from surfmimo.channel import (
    AirMultipathModel,
    ChannelMatrix,
    ChannelParams,
    ImpulseResponse,
    NoiseModel,
    _scatterers,
    build_mimo,
    csi,
    h_aa,
    h_as,
    h_sa,
    h_ss,
    impulse_response,
    subcarrier_frequencies,
)
from surfmimo.errors import ConfigError, DomainError, NearFieldError, PresetError
from surfmimo.geometry import (
    ANTENNA,
    CONTACT,
    Node,
    Obstacle,
    Scene,
    SurfaceSpec,
    _axis_images,
    segment_crosses_rect,
)
from surfmimo.mimo import capacity
from surfmimo.presets import CouplingConstants
from surfmimo.propagation import (
    SPEED_OF_LIGHT,
    VALID_BANDWIDTHS_HZ,
    FrequencyBand,
    MaterialParams,
    air_gain,
    phase_velocity,
    surface_gain,
)
from surfmimo import channel
from surfmimo import experiments as ex
from surfmimo import presets

BAND = FrequencyBand(2.437e9, 40e6)
SPRAY = presets.load_material("spraypaint")

NO_COUPLING = ChannelParams(coupling=CouplingConstants(0.0, 0.0, 0.0, 0.0))

# spray paint without boundary reflections: one surface path per contact pair
SPRAY_NO_IMAGES = dataclasses.replace(SPRAY, refl_coeff=0.0)
# frequencies inside the preset coverage
PRESET_FREQS = st.floats(SPRAY.freqs_hz[0], SPRAY.freqs_hz[-1])


def _flat_material(refl=0.0, alpha=0.35, beta=90.0):
    """Constant alpha/beta across the band; refl = 0 kills boundary images."""
    return MaterialParams("flat", 0.1, refl, (2.0e9, 3.0e9), (alpha, alpha), (beta, beta))


def _two_contact_scene(material, d=1.0, width=3.0, height=1.0):
    return Scene(SurfaceSpec(width, height, material), (
        Node("tx", "transmitter", contacts=((0.5, 0.5),)),
        Node("rx", "receiver", contacts=((0.5 + d, 0.5),)),
    ))


def _one_path_scene(dx, dy):
    """A contact pair dx, dy apart on a surface without reflections; the
    path length is taken from the contact coordinates."""
    tx, rx = (0.5, 0.5), (0.5 + dx, 0.5 + dy)
    scene = Scene(SurfaceSpec(6.0, 1.0, SPRAY_NO_IMAGES), (
        Node("tx", "transmitter", contacts=(tx,)),
        Node("rx", "receiver", contacts=(rx,)),
    ))
    return scene, tx, rx, math.hypot(rx[0] - tx[0], rx[1] - tx[1])


# the engine and the scalar law evaluate one definition of the surface law
@settings(max_examples=100, deadline=None)
@given(st.floats(0.11, 5.0), st.floats(0.0, 0.4), PRESET_FREQS)
@example(1.0, 0.0, BAND.center_hz)
def test_h_ss_single_path_reduces_to_surface_gain(dx, dy, f):
    scene, tx, rx, d = _one_path_scene(dx, dy)
    assert h_ss(tx, rx, scene, f, params=NO_COUPLING) == surface_gain(d, f, SPRAY_NO_IMAGES)


def test_h_ss_images_strengthen_multipath():
    # turning reflections on must change the response and add delay structure
    base = h_ss((0.5, 0.5), (1.5, 0.5), _two_contact_scene(_flat_material(0.0)), BAND,
                params=NO_COUPLING)
    with_images = h_ss((0.5, 0.5), (1.5, 0.5), _two_contact_scene(_flat_material(0.6)), BAND,
                       params=NO_COUPLING)
    assert with_images != base


def test_image_loss_is_the_reflection_coefficient_to_the_ring_index():
    # the corner image (mirrored across x = 0 and y = 0) is in ring 1, so at
    # order 1 it carries rho**1; the per-wall rule would give rho**2
    rho = 0.5
    scene = _two_contact_scene(_flat_material(rho), width=3.0, height=1.0)
    tx, rx = (0.5, 0.5), (1.7, 0.3)
    lengths, factors = channel._surface_paths(
        tx, rx, scene, dataclasses.replace(NO_COUPLING, max_image_order=1))
    assert len(lengths) == 9 and factors[0] == 1.0
    corner = math.hypot(tx[0] + rx[0], tx[1] + rx[1])  # the image at (-1.7, -0.3)
    wall = math.hypot(tx[0] + rx[0], tx[1] - rx[1])  # the image at (-1.7, 0.3)
    assert factors[lengths == corner].tolist() == [rho]
    assert factors[lengths == wall].tolist() == [rho]


def _two_branch_surface_paths(tx, rx, scene, params):
    """The reference: the direct path in one branch and the ring-indexed
    images in another, each with its own length, loss count and obstacle
    factor."""

    def obstacle_factor(p0, p1):
        factor = 1.0
        for ob in scene.obstacles:
            if segment_crosses_rect(p0, p1, ob):
                factor *= 10.0 ** (-ob.perturbation_db / 20.0)
        return factor

    m = scene.surface.material
    order = params.max_image_order if m.refl_coeff > 0 else 0
    lengths = [math.hypot(tx[0] - rx[0], tx[1] - rx[1])]
    counts = [0.0]
    factors = [obstacle_factor(tx, rx)]
    if order >= 1:
        s = scene.surface
        images = [((ix, iy), max(cx, cy)) for iy, cy in _axis_images(rx[1], s.height_m, order)
                  for ix, cx in _axis_images(rx[0], s.width_m, order)]
        images.sort(key=lambda it: (it[1], it[0][1], it[0][0]))
        for pos, count in images:
            if count == 0:
                continue
            lengths.append(math.hypot(tx[0] - pos[0], tx[1] - pos[1]))
            counts.append(float(count))
            factors.append(obstacle_factor(tx, pos))
    return np.maximum(lengths, m.d0_m), m.refl_coeff ** np.array(counts) * np.array(factors)


@st.composite
def _obstacle(draw, w, h):
    x0, x1 = sorted(draw(st.floats(0.0, w)) for _ in range(2))
    y0, y1 = sorted(draw(st.floats(0.0, h)) for _ in range(2))
    return Obstacle(x0, y0, x1, y1, perturbation_db=draw(st.floats(0.0, 40.0)))


@settings(max_examples=150, deadline=None)
@given(w=st.floats(0.2, 6.0), h=st.floats(0.2, 2.0), rho=st.sampled_from([0.0, 0.3, 1.0]),
       order=st.integers(0, 4), data=st.data())
def test_surface_paths_are_bitwise_the_two_branch_form(w, h, rho, order, data):
    # every path, the direct one included, comes from one image list; the
    # lengths and factors are bitwise those of the direct-path branch plus
    # the image branch
    scene = Scene(SurfaceSpec(w, h, _flat_material(rho)),
                  obstacles=data.draw(st.lists(_obstacle(w, h), max_size=3)))
    tx, rx = ((data.draw(st.floats(0.0, w)), data.draw(st.floats(0.0, h))) for _ in range(2))
    params = dataclasses.replace(NO_COUPLING, max_image_order=order)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the clamp warning
        lengths, factors = channel._surface_paths(tx, rx, scene, params)
    want_lengths, want_factors = _two_branch_surface_paths(tx, rx, scene, params)
    assert lengths.tobytes() == want_lengths.tobytes()
    assert factors.tobytes() == want_factors.tobytes()


def test_h_ss_sub_reference_distance_warns_and_clamps():
    m = _flat_material()
    scene = Scene(SurfaceSpec(3.0, 1.0, m), (
        Node("tx", "transmitter", contacts=((0.5, 0.5),)),
        Node("rx", "receiver", contacts=((0.55, 0.5),)),
    ))
    with pytest.warns(RuntimeWarning, match="below the reference distance"):
        h = h_ss((0.5, 0.5), (0.55, 0.5), scene, BAND, params=NO_COUPLING)
    assert h == pytest.approx(surface_gain(m.d0_m, BAND, m), rel=1e-12)


def test_clamp_warning_names_the_calling_line():
    # the warning is raised deep inside the engine, whichever entry point
    # was called; it names the caller's line, here this file
    scene = Scene(SurfaceSpec(3.0, 1.0, SPRAY), (
        Node("tx", "transmitter", contacts=((0.5, 0.5),)),
        Node("rx", "receiver", contacts=((0.55, 0.5),)),
    ))
    tx, rx = scene.transmitters()[0].ports[0], scene.receivers()[0].ports[0]
    for call in (
        lambda: build_mimo(scene, BAND, grid=4),
        lambda: h_ss(tx[1], rx[1], scene, BAND, grid=4),
        lambda: csi(scene, BAND, 2, grid=4),
        lambda: ex.run_link(scene, ex.LinkSettings(grid=4, n_subcarriers=2)),
        lambda: impulse_response(tx, rx, scene, BAND, grid=4),
    ):
        with pytest.warns(RuntimeWarning, match="below the reference distance") as record:
            call()
        assert [w.filename for w in record] == [__file__]


def test_antenna_pair_impulse_reads_neither_material_nor_grid():
    # phase velocity 2 pi f / beta above c: no surface path may be timed, but
    # an antenna pair has none, nor an integral to take on a grid
    degenerate = _flat_material(beta=10.0)
    scene = Scene(SurfaceSpec(3.0, 1.0, degenerate), (
        Node("tx", "transmitter", antennas=((0.5, 0.5, 0.02),)),
        Node("rx", "receiver", antennas=((1.5, 0.5, 0.02),)),
    ))
    at, ar = (0.5, 0.5, 0.02), (1.5, 0.5, 0.02)
    resp = impulse_response((ANTENNA, at), (ANTENNA, ar), scene, BAND, grid=1)
    assert resp.taps == ((1.0 / SPEED_OF_LIGHT, h_aa(at, ar, BAND, ChannelParams())),)


def test_reciprocity_exact_when_cross_couplings_match():
    st = ex.LinkSettings()
    scene = ex.build_link_scene(ex.default_template(), (0.6,), ex.MODE_2X2, st)
    swapped = Scene(scene.surface, tuple(
        Node(n.id, "receiver" if n.role == "transmitter" else "transmitter",
             n.contacts, n.antennas)
        for n in scene.nodes
    ), scene.obstacles)
    a = build_mimo(scene, BAND, grid=24).entries
    b = build_mimo(swapped, BAND, grid=24).entries
    assert np.max(np.abs(a - b.T)) < 1e-12


def test_reciprocity_through_the_swapped_fft_side(monkeypatch):
    # one transmit contact against two receive contacts: the transmit row goes
    # through the FFT; with the roles swapped the receive row does
    fft_rows = []
    composite = channel._composite
    monkeypatch.setattr(channel, "_composite", lambda g, k, left, right, p: (
        fft_rows.append(right.shape[-2]) or composite(g, k, left, right, p)))
    surface = ex.default_template().surface
    tx = Node("a", "transmitter", contacts=((0.3, 0.3),), antennas=((0.3, 0.3, 0.02),))
    rx = Node("b", "receiver", contacts=((1.2, 0.3), (1.25, 0.2)), antennas=((1.2, 0.3, 0.03),))

    def flipped(node):
        role = "receiver" if node.role == "transmitter" else "transmitter"
        return Node(node.id, role, node.contacts, node.antennas)

    a = build_mimo(Scene(surface, (tx, rx)), BAND, grid=24).entries
    b = build_mimo(Scene(surface, (flipped(tx), flipped(rx))), BAND, grid=24).entries
    assert a.shape == (3, 2) and b.shape == (2, 3)
    assert fft_rows == [1, 1]
    assert np.all(np.abs(a - b.T) <= 1e-12 * np.abs(a))


def test_build_mimo_port_dispatch_and_shape():
    st = ex.LinkSettings()
    scene = ex.build_link_scene(ex.default_template(), (0.6,), ex.MODE_3X3, st)
    m = build_mimo(scene, BAND, grid=12)
    assert m.entries.shape == (3, 3)
    assert m.rx_port_kinds == (CONTACT, CONTACT, ANTENNA)
    assert m.tx_port_kinds == (CONTACT, CONTACT, ANTENNA)
    assert np.all(np.isfinite(m.entries.real))


def test_zeroed_couplings_decouple_surface_and_air_blocks():
    # with C1..C3 = nfc = 0 the hybrid matrix is block-diagonal and each
    # block equals the matrix of the corresponding pure scene
    st = ex.LinkSettings()
    scene = ex.build_link_scene(ex.default_template(), (0.6,), ex.MODE_2X2, st)
    hybrid = build_mimo(scene, BAND, grid=12, params=NO_COUPLING).entries
    assert hybrid[0, 1] == 0 and hybrid[1, 0] == 0

    contacts_only = Scene(scene.surface, tuple(
        Node(n.id, n.role, contacts=n.contacts) for n in scene.nodes))
    antennas_only = Scene(scene.surface, tuple(
        Node(n.id, n.role, antennas=n.antennas) for n in scene.nodes))
    pure_s = build_mimo(contacts_only, BAND, grid=12, params=NO_COUPLING).entries
    pure_a = build_mimo(antennas_only, BAND, grid=12, params=NO_COUPLING).entries
    assert hybrid[0, 0] == pure_s[0, 0]
    assert hybrid[1, 1] == pure_a[0, 0]


def test_near_field_term_dominates_close_to_the_surface():
    # an antenna hovering ~1 cm above the surface couples mainly through the
    # local near-field patch, not the distributed integral
    st = ex.LinkSettings()
    scene = ex.build_link_scene(ex.default_template(), (0.4,), ex.MODE_2X2, st)
    contact = scene.transmitters()[0].contacts[0]
    antenna = (contact[0] + 0.15, contact[1], 0.01)
    p = ChannelParams()
    from dataclasses import replace

    integral_only = replace(p, coupling=replace(p.coupling, near_field_coupling=0.0))
    full = h_sa(contact, antenna, scene, BAND, params=p)
    without = h_sa(contact, antenna, scene, BAND, params=integral_only)
    assert abs(full - without) > 10 * abs(without)


def test_near_field_hop_runs_the_contact_pair_paths_to_the_foot():
    # antennas mounted above contacts: the hop's surface leg is the path set
    # from the other node's contact to the contact under the antenna (images
    # of the foot), the same set as that contact pair's entry.  The obstacle
    # shadows images in one direction only, so the direction matters.
    ct, cr = (0.1524, 0.3048), (0.7524, 0.3048)
    at, ar = ct + (0.02,), cr + (0.02,)
    scene = Scene(ex.default_template().surface,
                  nodes=(Node("tx", "transmitter", (ct,), (at,)),
                         Node("rx", "receiver", (cr,), (ar,))),
                  obstacles=(Obstacle(0.2, 0.45, 0.45, 0.6),))
    p = ChannelParams(coupling=CouplingConstants(c1=0.0, c2=0.0, c3=0.0,
                                                 near_field_coupling=0.7))
    hop = 0.7 * np.exp(-2j * math.pi * BAND.center_hz / SPEED_OF_LIGHT * 0.1)  # clamped hop
    forward = h_ss(ct, cr, scene, BAND, params=p)
    backward = h_ss(cr, ct, scene, BAND, params=p)
    assert abs(forward - backward) > 1e-3 * abs(forward)
    assert h_sa(ct, ar, scene, BAND, params=p) == pytest.approx(hop * forward, rel=1e-13)
    assert h_as(at, cr, scene, BAND, params=p) == pytest.approx(hop * backward, rel=1e-13)
    m = build_mimo(scene, BAND, params=p).entries  # one synthesis, shared path sets
    np.testing.assert_array_equal(m, [[forward, h_as(at, cr, scene, BAND, params=p)],
                                      [h_sa(ct, ar, scene, BAND, params=p),
                                       h_aa(at, ar, BAND, params=p)]])


def test_cross_terms_mirror_each_other():
    st = ex.LinkSettings()
    scene = ex.build_link_scene(ex.default_template(), (0.5,), ex.MODE_2X2, st)
    contact = scene.transmitters()[0].contacts[0]
    antenna = scene.receivers()[0].antennas[0]
    p = ChannelParams()  # preset couplings have c2 == c3
    assert h_sa(contact, antenna, scene, BAND, params=p) == pytest.approx(
        h_as(antenna, contact, scene, BAND, params=p), rel=1e-12)


# the engine and the scalar law evaluate one definition of the air law
@settings(max_examples=100, deadline=None)
@given(st.floats(0.11, 5.0), st.floats(0.0, 0.4), st.floats(0.0, 0.1), PRESET_FREQS,
       st.sampled_from([1.0, 2.0, 1.5]))
@example(1.0, 0.0, 0.0, BAND.center_hz, 2.0)
def test_h_aa_line_of_sight(dx, dy, dz, f, exponent):
    p = ChannelParams(air_exponent=exponent)
    tx, rx = (0.0, 0.0, 0.02), (dx, dy, 0.02 + dz)
    g = h_aa(tx, rx, f, p)
    assert g == air_gain(math.dist(tx, rx), f, p.air_ref_m, p.air_exponent)


def test_h_aa_below_the_air_reference_distance_raises():
    p = ChannelParams()
    with pytest.raises(NearFieldError):
        h_aa((0.0, 0.0, 0.02), (0.05, 0.0, 0.02), BAND, p)


def test_obstacle_attenuates_crossing_paths_only():
    m = _flat_material(refl=0.0)
    blocked = Scene(SurfaceSpec(3.0, 1.0, m), (
        Node("tx", "transmitter", contacts=((0.5, 0.5),)),
        Node("rx", "receiver", contacts=((2.5, 0.5),)),
    ), (Obstacle(1.4, 0.3, 1.6, 0.7),))
    aside = Scene(SurfaceSpec(3.0, 1.0, m), (
        Node("tx", "transmitter", contacts=((0.5, 0.5),)),
        Node("rx", "receiver", contacts=((2.5, 0.5),)),
    ), (Obstacle(1.4, 0.85, 1.6, 0.95),))
    clear = h_ss((0.5, 0.5), (2.5, 0.5), _two_contact_scene(m, 2.0), BAND,
                 params=NO_COUPLING)
    under = h_ss((0.5, 0.5), (2.5, 0.5), blocked, BAND, params=NO_COUPLING)
    side = h_ss((0.5, 0.5), (2.5, 0.5), aside, BAND, params=NO_COUPLING)
    assert abs(under) == pytest.approx(abs(clear) * 10 ** (-3.0 / 20.0), rel=1e-9)
    assert side == clear


def test_surface_paths_refuse_an_off_surface_point_at_either_end():
    # the transmit point was never checked: this call returned -0.144-0.030j
    scene = Scene(SurfaceSpec(3.0, 1.0, SPRAY))
    for tx, rx in [((-1.0, 0.5), (1.5, 0.5)), ((1.5, 0.5), (-1.0, 0.5))]:
        with pytest.raises(DomainError, match=r"point \(-1\.0, 0\.5\) is outside the "
                                              r"3\.0 x 1\.0 surface"):
            h_ss(tx, rx, scene, BAND, grid=8)


def test_channel_matrix_validation():
    with pytest.raises(DomainError):
        ChannelMatrix(np.zeros((0, 2)), BAND, (), (CONTACT, CONTACT))
    with pytest.raises(DomainError):
        ChannelMatrix(np.zeros((2, 2)), BAND, (CONTACT,), (CONTACT, CONTACT))
    with pytest.raises(DomainError):
        ChannelMatrix(np.array([[np.inf, 0], [0, 1]], dtype=complex), BAND,
                      (CONTACT, CONTACT), (CONTACT, CONTACT))
    two = (CONTACT, ANTENNA)
    tones = np.ones((3, 2, 2), dtype=complex)
    tones[1, 0, 1] = np.nan
    for entries, rx in [(np.ones(2), two), (np.ones((1, 3, 2, 2)), two),
                        (np.ones((0, 2, 2)), two), (np.ones((3, 0, 2)), ()),
                        (np.ones((3, 2, 2)), (CONTACT,)), (np.ones((3, 2, 2)), two * 2),
                        (tones, two)]:
        with pytest.raises(DomainError):
            ChannelMatrix(entries, BAND, rx, two)


@pytest.mark.parametrize("shape", [(2, 3), (1, 2, 3), (5, 2, 3)])
def test_a_channel_matrix_is_one_matrix_or_a_stack_of_tones(shape):
    m = ChannelMatrix(np.arange(math.prod(shape)).reshape(shape), BAND,
                      (CONTACT, ANTENNA), (CONTACT, CONTACT, ANTENNA))
    assert m.entries.shape == shape and m.entries.dtype == complex
    # a 2-D matrix is a stack of one tone, the band center
    assert m.tones.shape == (1 if len(shape) == 2 else shape[0], 2, 3)
    assert np.array_equal(m.tones.ravel(), m.entries.ravel())


def test_subcarrier_frequencies():
    assert np.array_equal(subcarrier_frequencies(BAND, 1), [BAND.center_hz])
    f = subcarrier_frequencies(BAND, 8)
    assert len(f) == 8
    assert np.all(np.diff(f) > 0)
    # symmetric about the center and inside the band
    assert np.allclose(f + f[::-1], 2 * BAND.center_hz)
    assert f[0] > BAND.center_hz - BAND.bandwidth_hz / 2
    assert f[-1] < BAND.center_hz + BAND.bandwidth_hz / 2


def test_csi_single_subcarrier_equals_center_matrix():
    m = _flat_material(0.6)
    scene = _two_contact_scene(m)
    h = csi(scene, BAND, n_subcarriers=1, grid=8, params=NO_COUPLING).entries
    assert h.shape == (1, 1, 1)
    assert np.array_equal(h[0], build_mimo(scene, BAND, grid=8, params=NO_COUPLING).entries)
    # the batched pass and the single-frequency path agree bitwise at every
    # subcarrier of a coupled hybrid scene (all four channel kinds)
    st = ex.LinkSettings()
    hybrid = ex.build_link_scene(ex.default_template(), (0.6,), ex.MODE_3X3, st)
    hybrid = Scene(hybrid.surface, hybrid.nodes, (Obstacle(0.4, 0.0, 0.5, 0.4),))
    coupled = ChannelParams(coupling=CouplingConstants(0.05, 0.03, 0.04, 0.7),
                            air_multipath=AirMultipathModel(n_scatterers=8))
    mat = csi(hybrid, BAND, n_subcarriers=7, grid=12, params=coupled)
    assert mat.frequency == BAND and mat.entries.shape == (7, 3, 3)
    for f_sc, h in zip(subcarrier_frequencies(BAND, 7), mat.entries):
        assert np.array_equal(h, build_mimo(hybrid, f_sc, grid=12, params=coupled).entries)


def test_csi_default_subcarrier_counts():
    m = _flat_material(0.0)
    scene = _two_contact_scene(m)
    assert len(csi(scene, BAND, grid=4, params=NO_COUPLING).entries) == 114
    band20 = FrequencyBand(2.437e9, 20e6)
    assert len(csi(scene, band20, grid=4, params=NO_COUPLING).entries) == 56


def test_csi_flat_without_multipath():
    # single path, constant material constants: every subcarrier magnitude equal
    m = _flat_material(refl=0.0)
    scene = _two_contact_scene(m)
    h = csi(scene, BAND, n_subcarriers=16, grid=4, params=NO_COUPLING).entries
    assert np.ptp(np.array([abs(h_f) for h_f in h[:, 0, 0].tolist()])) == 0.0


def test_csi_band_outside_preset_coverage():
    m = MaterialParams("narrow", 0.1, 0.5, (2.43e9, 2.444e9), (0.3, 0.3), (90.0, 90.0))
    scene = _two_contact_scene(m)
    with pytest.raises(PresetError):
        csi(scene, BAND, n_subcarriers=4, grid=4, params=NO_COUPLING)


def test_csi_variance_grows_with_distance():
    # frequency diversity accumulates with range on the default strip
    st = ex.LinkSettings()
    tpl = ex.default_template()
    out = []
    for ft in (1.0, 8.0, 16.0):
        scene = ex.build_link_scene(tpl, (ft * ex.FOOT_M,), ex.MODE_2X2, st)
        mags = np.abs(csi(scene, st.band, n_subcarriers=64, grid=12, params=st.params).entries)
        v = np.var(mags, axis=0) / np.mean(mags, axis=0) ** 2
        out.append(float(np.mean([v[0, 0], v[1, 0], v[0, 1]])))
    assert out[0] < out[1] < out[2]


def test_build_mimo_deterministic_bitwise():
    st = ex.LinkSettings()
    scene = ex.build_link_scene(ex.default_template(), (1.2,), ex.MODE_3X3, st)
    a = build_mimo(scene, BAND, grid=16).entries
    b = build_mimo(scene, BAND, grid=16).entries
    assert np.array_equal(a, b)


def test_build_mimo_at_a_frequency_labels_its_band():
    scene = ex.build_link_scene(ex.default_template(), (0.6,), ex.MODE_SISO, ex.LinkSettings())
    assert build_mimo(scene, 5.19e9, grid=8).frequency.band_id == "5GHz"
    assert build_mimo(scene, 2.437e9, grid=8).frequency.band_id == "2.4GHz"


def test_grid_convergence_is_cauchy():
    st = ex.LinkSettings()
    scene = ex.build_link_scene(ex.default_template(), (0.6,), ex.MODE_2X2, st)
    ref = build_mimo(scene, BAND, grid=96).entries
    errs = [np.max(np.abs(build_mimo(scene, BAND, grid=g).entries - ref))
            for g in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]


# --- impulse responses -------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.floats(0.11, 5.0), st.floats(0.0, 0.4), PRESET_FREQS)
@example(1.0, 0.0, BAND.center_hz)
def test_impulse_single_surface_path(dx, dy, f):
    scene, tx, rx, d = _one_path_scene(dx, dy)
    band = FrequencyBand(f, 40e6)
    resp = impulse_response((CONTACT, tx), (CONTACT, rx), scene, band, params=NO_COUPLING)
    assert len(resp.taps) == 1
    assert resp.taps[0][0] == d / phase_velocity(band, SPRAY_NO_IMAGES)
    assert resp.taps[0][1] == surface_gain(d, band, SPRAY_NO_IMAGES)


@pytest.mark.parametrize("taps", [
    ((math.nan, 1.0),),
    ((1e-9, 1.0), (math.inf, 0.5)),
    ((1e-9, complex(math.nan, 0.0)),),
    ((1e-9, 1.0), (2e-9, complex(0.0, -math.inf))),
])
def test_impulse_response_refuses_non_finite_taps(taps):
    # a nan delay passed the ordering checks, and pulse_profile then failed
    # on math.ceil(nan); a nan amplitude made every pulse sample nan
    with pytest.raises(DomainError, match="non-finite taps"):
        ImpulseResponse(taps, 40e6)


def test_impulse_first_arrival_is_exactly_d_over_v():
    from surfmimo.io import load_config

    cfg = load_config(presets.scene_path("cloth_10ft"))
    tx = cfg.scene.transmitters()[0].ports[0]
    rx = cfg.scene.receivers()[0].ports[0]
    resp = impulse_response(tx, rx, cfg.scene, cfg.settings.band)
    d = math.dist(tx[1], rx[1])
    v = phase_velocity(cfg.settings.band, cfg.scene.surface.material)
    assert resp.delays()[0] == d / v
    assert len(resp.taps) > 1  # boundary images and the composite cluster
    assert np.all(np.diff(resp.delays()) > 0)


def test_equal_distance_air_tap_arrives_earlier():
    m = SPRAY
    d = 1.0
    surface = Scene(SurfaceSpec(3.0, 1.0, m), (
        Node("tx", "transmitter", contacts=((0.5, 0.5),)),
        Node("rx", "receiver", contacts=((1.5, 0.5),)),
    ))
    air = Scene(SurfaceSpec(3.0, 1.0, m), (
        Node("tx", "transmitter", antennas=((0.5, 0.5, 0.02),)),
        Node("rx", "receiver", antennas=((1.5, 0.5, 0.02),)),
    ))
    t_surface = impulse_response(surface.transmitters()[0].ports[0],
                                 surface.receivers()[0].ports[0], surface, BAND).delays()[0]
    resp_air = impulse_response(air.transmitters()[0].ports[0],
                                air.receivers()[0].ports[0], air, BAND)
    assert len(resp_air.taps) == 1
    assert resp_air.delays()[0] == d / SPEED_OF_LIGHT
    assert resp_air.delays()[0] < t_surface


def test_cloth_delay_spread_in_band():
    from surfmimo.io import load_config

    cfg = load_config(presets.scene_path("cloth_10ft"))
    tx = cfg.scene.transmitters()[0].ports[0]
    rx = cfg.scene.receivers()[0].ports[0]
    spread = impulse_response(tx, rx, cfg.scene, cfg.settings.band).rms_delay_spread()
    assert 0.0 < spread <= 300e-9


def test_mixed_link_taps_are_ordered_and_finite():
    st = ex.LinkSettings()
    scene = ex.build_link_scene(ex.default_template(), (0.6,), ex.MODE_2X2, st)
    tx = scene.transmitters()[0].ports[0]   # contact
    rx = scene.receivers()[0].ports[1]      # antenna
    resp = impulse_response(tx, rx, scene, BAND, grid=12)
    assert np.all(np.diff(resp.delays()) > 0)
    assert np.all(np.isfinite(resp.amplitudes()))
    assert resp.delays()[0] > 0


def test_composite_cluster_never_precedes_the_direct_tap():
    # the aggregate re-radiated tap is surface-guided: it cannot outrun the
    # direct surface arrival no matter the geometry
    m = _flat_material(refl=0.0)
    p = ChannelParams(coupling=CouplingConstants(0.05, 0.0, 0.0, 0.0))
    for d in (0.5, 1.5, 2.4):
        scene = _two_contact_scene(m, d=d)
        resp = impulse_response((CONTACT, (0.5, 0.5)), (CONTACT, (0.5 + d, 0.5)),
                                scene, BAND, grid=16, params=p)
        assert resp.delays()[0] == d / phase_velocity(BAND, m)
        assert len(resp.taps) == 2


# --- optional air multipath ---------------------------------------------------


def test_scatterer_ring_kernel_matches_bessel():
    # uniform angles: (1/n) sum exp(j k delta cos(theta)) -> J0(k delta),
    # spectrally accurate for n >> k*delta
    k = 2 * math.pi * 2.437e9 / SPEED_OF_LIGHT
    n = 256
    theta = 2 * math.pi * np.arange(n) / n
    for delta in (0.005, 0.02, 0.0615, 0.1):
        s = np.mean(np.exp(1j * k * delta * np.cos(theta)))
        assert abs(s - j0(k * delta)) < 1e-12


def test_scatterer_field_correlation_tracks_bessel():
    k = 2 * math.pi * 2.437e9 / SPEED_OF_LIGHT
    tx = (0.0, 0.0, 0.02)

    def field(rx, seed):
        mp = AirMultipathModel(n_scatterers=256, seed=seed, center_m=(0.5, 0.0))
        pos, phases = _scatterers(tx, rx, mp)
        d1 = np.sqrt(np.sum((pos - np.asarray(tx)) ** 2, axis=1))
        d2 = np.sqrt(np.sum((pos - np.asarray(rx)) ** 2, axis=1))
        return np.sum(np.exp(1j * (phases - k * (d1 + d2))))

    delta = 0.02
    a = np.array([field((1.0, 0.0, 0.02), s) for s in range(300)])
    b = np.array([field((1.0, delta, 0.02), s) for s in range(300)])
    corr = np.mean(a * np.conj(b)) / math.sqrt(np.mean(np.abs(a) ** 2)
                                               * np.mean(np.abs(b) ** 2))
    assert abs(abs(corr) - j0(k * delta)) < 0.05


def test_sub_half_wavelength_spacing_degrades_air_mimo():
    # ring model ensemble vs an independent correlated-fading construction:
    # both lose capacity when the arrays shrink below lambda/2
    f = 2.437e9
    k = 2 * math.pi * f / SPEED_OF_LIGHT
    lam = SPEED_OF_LIGHT / f
    rho = 1000.0

    def ring_cap(spacing, seed):
        mp = AirMultipathModel(n_scatterers=256, seed=seed, relative_gain_db=-3.0,
                               center_m=(0.5, 0.0))
        p = ChannelParams(air_multipath=mp)
        tx = [(0.0, -spacing / 2, 0.02), (0.0, spacing / 2, 0.02)]
        rx = [(1.0, -spacing / 2, 0.02), (1.0, spacing / 2, 0.02)]
        h = np.array([[h_aa(t, r, f, p) for t in tx] for r in rx])
        return capacity(h, rho)

    seeds = range(150)
    ring_ratio = (np.mean([ring_cap(0.02, s) for s in seeds])
                  / np.mean([ring_cap(lam / 2, s) for s in seeds]))
    assert ring_ratio < 1.0

    # oracle: LoS plus Kronecker-correlated Rayleigh scatter with J0 spacing
    rng = np.random.default_rng(123)

    def kron_cap(spacing, n_draws=1500):
        d = 1.0
        los_amp = (0.1 / d) ** 2
        tx = np.array([[0.0, -spacing / 2], [0.0, spacing / 2]])
        rx = np.array([[d, -spacing / 2], [d, spacing / 2]])
        los = np.array([[los_amp * np.exp(-1j * k * np.linalg.norm(t - r)) for t in tx]
                        for r in rx])
        r_corr = np.array([[1.0, j0(k * spacing)], [j0(k * spacing), 1.0]])
        chol = np.linalg.cholesky(r_corr)
        ps = los_amp * 10 ** (-3.0 / 20)
        caps = []
        for _ in range(n_draws):
            w = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
            caps.append(capacity(los + ps * (chol @ w @ chol.T), rho))
        return float(np.mean(caps))

    kron_ratio = kron_cap(0.02) / kron_cap(lam / 2)
    assert kron_ratio < 1.0
    assert abs(ring_ratio - kron_ratio) < 0.1


def test_air_multipath_defaults_off_and_validation():
    p = ChannelParams()
    assert p.air_multipath is None
    with pytest.raises(DomainError):
        AirMultipathModel(n_scatterers=0)
    with pytest.raises(DomainError):
        AirMultipathModel(radius_m=0.0)
    with pytest.raises(DomainError):
        AirMultipathModel(center_m=(1.0,))
    # midpoint default vs pinned center
    mp_mid = AirMultipathModel()
    pos_a, _ = _scatterers((0, 0, 0), (2, 0, 0), mp_mid)
    pos_b, _ = _scatterers((0, 0, 0), (4, 0, 0), mp_mid)
    assert not np.allclose(pos_a, pos_b)  # ring follows the link midpoint
    mp_fix = AirMultipathModel(center_m=(1.0, 0.0, 0.0))
    pos_c, _ = _scatterers((0, 0, 0), (2, 0, 0), mp_fix)
    pos_d, _ = _scatterers((0, 0, 0), (4, 0, 0), mp_fix)
    assert np.allclose(pos_c, pos_d)  # pinned ring is shared by all pairs


def test_noise_model_budget():
    assert NoiseModel().noise_power_dbm(40e6) == pytest.approx(-91.98, abs=0.01)
    assert NoiseModel().noise_power_dbm(20e6) == pytest.approx(-94.99, abs=0.01)


@pytest.mark.parametrize("key", ["noise_floor_dbm_per_hz", "noise_figure_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_noise_model_rejects_a_non_finite_value(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        NoiseModel(**{key: value})


@pytest.mark.parametrize("key", ["air_ref_m", "air_exponent", "near_field_radius_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_channel_params_reject_a_non_finite_value(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite, got {value}"):
        ChannelParams(**{key: value})


@pytest.mark.parametrize("key", ["c1", "c2", "c3", "near_field_coupling"])
@pytest.mark.parametrize("value", [math.nan, -0.5])
def test_coupling_constants_reject_nan_and_negative_values(key, value):
    values = {"c1": 0.02, "c2": 0.02, "c3": 0.02, "near_field_coupling": 0.9, key: value}
    with pytest.raises(DomainError, match=f"coupling constant {key} must be >= 0, got {value}"):
        CouplingConstants(**values)


_PRESET_MATERIALS = """\
materials:
  plate:
    d0_m: 0.1
    refl_coeff: 0.5
    bands:
      - {frequency_hz: 1.0e9, alpha_np_per_m: 0.3, beta_rad_per_m: 40.0}
      - {frequency_hz: 6.0e9, alpha_np_per_m: 0.6, beta_rad_per_m: 240.0}
"""


def test_a_preset_coupling_section_must_set_every_constant(tmp_path, monkeypatch):
    # the shipped materials.json is the only file that holds a coupling section
    doc = json.loads((presets.data_dir() / "materials.json").read_text())
    del doc["coupling"]["c2"], doc["coupling"]["near_field_coupling"]
    (tmp_path / "materials.json").write_text(json.dumps(doc))
    (tmp_path / "mcs_80211.csv").write_text(
        (presets.data_dir() / "mcs_80211.csv").read_text())
    monkeypatch.setattr(presets, "data_dir", lambda: tmp_path)
    presets.shipped.cache_clear()
    with pytest.raises(PresetError) as exc:
        presets.shipped()
    assert exc.value.problems == ["coupling section has no 'c2'",
                                  "coupling section has no 'near_field_coupling'"]


def test_materials_and_tone_counts_have_one_source_each(tmp_path):
    # a material is a shipped preset or the one material of its own file, never
    # a name looked up in another file; every bandwidth a band admits has its
    # 802.11 tone count
    path = tmp_path / "plate.yaml"
    path.write_text(_PRESET_MATERIALS)
    with pytest.raises(TypeError):
        presets.load_material("plate", path)
    assert set(channel.DEFAULT_SUBCARRIERS) == set(VALID_BANDWIDTHS_HZ)


def test_channel_params_hold_the_shipped_coupling():
    shipped = presets.load_coupling()
    assert ChannelParams().coupling == shipped
    # setting any other parameter keeps the calibration
    assert ChannelParams(air_exponent=1.0).coupling == shipped
    assert ChannelParams(coupling=None) == ChannelParams()
    with pytest.raises(TypeError):
        CouplingConstants()  # the preset file is the only place a calibration is written


@pytest.mark.parametrize("name", ["default_2x2", "default_3x3"])
def test_csi_with_default_params_is_bitwise_csi_without(name):
    from surfmimo.io import load_config

    cfg = load_config(presets.scene_path(name))
    band = cfg.settings.band
    assert cfg.settings.params == ChannelParams()
    want = csi(cfg.scene, band, 4, 32)
    got = csi(cfg.scene, band, 4, 32, ChannelParams())
    assert got.entries.tobytes() == want.entries.tobytes()


@settings(max_examples=80, deadline=None)
@given(freqs=st.lists(st.floats(0.9e9, 6e9), min_size=1, max_size=6),
       pool=st.lists(st.floats(0.1, 20.0), min_size=1, max_size=5),
       picks=st.lists(st.integers(0, 4), min_size=1, max_size=24),
       rows=st.integers(1, 3), exponent=st.sampled_from([1.0, 2.0, 1.5]))
def test_a_law_on_distinct_distances_is_bitwise_the_law(freqs, pool, picks, rows, exponent):
    # each element of a law depends only on its own (tone, distance), so the
    # law on the distinct distances, gathered, is the law on every distance
    d = np.array([[pool[(i + r) % len(pool)] for i in picks] for r in range(rows)])
    m = SPRAY
    gamma, k = channel._propagation(m, freqs)
    distinct = channel._distinct(d)
    values, at = distinct
    assert np.all(np.diff(values) > 0) and np.array_equal(values[at], d)
    for law, args in ((channel._surface_field, (gamma, m)),
                      (channel._air_field, (k, 0.1, exponent))):
        full, got = law(d, *args), channel._on_distinct(law, distinct, *args)
        assert got.shape == full.shape == (len(freqs),) + d.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == full.tobytes()


# CI's obstacle scene: hybrid nodes whose antennas hover 2 cm over their contacts
OBSTACLE_SCENE = """name: obstacle
surface: {material: spraypaint, width_m: 1.2, height_m: 0.6096}
band: {center_ghz: 2.437, bandwidth_mhz: 40}
nodes:
  - {id: tx, role: transmitter, contacts: [[0.2, 0.25], [0.2, 0.35]], antennas: [[0.2, 0.3, 0.02]]}
  - {id: rx, role: receiver, contacts: [[1.0, 0.25], [1.0, 0.35]], antennas: [[1.0, 0.3, 0.02]]}
obstacles:
  - {x_min: 0.5, y_min: 0.15, x_max: 0.65, y_max: 0.45, kind: wood, perturbation_db: 2.0}
analysis: {grid: 16, subcarriers: 8}
"""


@pytest.mark.parametrize("command", [
    ["sweep", "--mode", "all", "--distances-ft", "1,2", "--grid", "8", "--subcarriers", "2"],
    ["channel", "--scene", "obstacle.yaml"],
])
def test_a_pass_takes_the_air_law_once_per_hop_length_and_antenna_distance(
        monkeypatch, tmp_path, command):
    # every distance that reaches the air law while a pass streams its
    # discrete paths, against the distinct near-field hop lengths and
    # antenna-pair distances of that pass's port pairs
    from surfmimo.cli import main

    passes, streaming = [], []
    paths, air_field = channel._paths, channel._air_field

    def air(d, *args):
        if streaming:
            streaming[-1].extend(np.ravel(d).tolist())
        return air_field(d, *args)

    def traced(scene, gamma, k, params, rx_ports, tx_ports):
        hops, spans = [], []
        for rk, rp in rx_ports:
            for tk, tp in tx_ports:
                if rk == tk == ANTENNA:
                    spans.append(math.dist(tp, rp))
                elif rk != tk:
                    near = channel._near_field(rp if rk == ANTENNA else tp, scene, params)
                    hops += [near[1]] if near is not None else []
        passes.append(([], hops, spans))
        streaming.append(passes[-1][0])
        try:
            yield from paths(scene, gamma, k, params, rx_ports, tx_ports)
        finally:
            streaming.pop()

    monkeypatch.setattr(channel, "_air_field", air)
    monkeypatch.setattr(channel, "_paths", traced)
    (tmp_path / "obstacle.yaml").write_text(OBSTACLE_SCENE)
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--out", "out.csv"]) == 0
    for evaluated, hops, spans in passes:
        assert sorted(evaluated) == sorted([*set(hops), *set(spans)])
    # entries of a pass share hop lengths, and on the sweep antenna distances
    hop_repeats = sum(len(hops) - len(set(hops)) for _, hops, _ in passes)
    span_repeats = sum(len(spans) - len(set(spans)) for _, _, spans in passes)
    assert hop_repeats > 0 and (span_repeats > 0 or command[0] == "channel")


def test_library_calls_without_params_parse_the_shipped_presets_once(file_reads):
    from surfmimo.io import load_config

    scene = load_config(presets.scene_path("default_2x2")).scene
    tx, rx = scene.transmitters()[0], scene.receivers()[0]
    for _ in range(3):
        h_ss(tx.contacts[0], rx.contacts[0], scene, BAND.center_hz, grid=8)
        csi(scene, BAND, n_subcarriers=2, grid=8)
        impulse_response(tx.ports[0], rx.ports[1], scene, BAND, grid=8)
        assert ex.LinkSettings().params == ChannelParams()
    assert file_reads == {"materials.json": 1, "mcs_80211.csv": 1}


# an obstacle per shipped scene, off every port and off the link line
MIRROR_OBSTACLES = {
    "default_2x2": Obstacle(0.45, 0.08, 0.7, 0.22),
    "default_3x3": Obstacle(0.45, 0.08, 0.7, 0.22, kind="wood"),
    "cloth_10ft": Obstacle(1.0, 0.35, 1.4, 0.5, perturbation_db=6.0),
}


def _mirrored(scene, about_x, about_y):
    """scene with its contacts, antennas and obstacles mirrored about the
    surface's centre line across x (about_x) and/or across y (about_y)."""
    w, h = scene.surface.width_m, scene.surface.height_m

    def fx(x):
        return w - x if about_x else x

    def fy(y):
        return h - y if about_y else y

    nodes = tuple(Node(n.id, n.role,
                       contacts=tuple((fx(x), fy(y)) for x, y in n.contacts),
                       antennas=tuple((fx(x), fy(y), z) for x, y, z in n.antennas))
                  for n in scene.nodes)
    obstacles = tuple(dataclasses.replace(
        o, x_min=min(fx(o.x_min), fx(o.x_max)), x_max=max(fx(o.x_min), fx(o.x_max)),
        y_min=min(fy(o.y_min), fy(o.y_max)), y_max=max(fy(o.y_min), fy(o.y_max)))
        for o in scene.obstacles)
    return Scene(scene.surface, nodes=nodes, obstacles=obstacles)


@settings(max_examples=24, deadline=None)
@given(name=st.sampled_from(sorted(MIRROR_OBSTACLES)),
       axes=st.sampled_from([(True, False), (False, True), (True, True)]),
       grid=st.integers(6, 16), with_obstacle=st.booleans())
def test_csi_is_invariant_under_mirroring_the_scene(name, axes, grid, with_obstacle):
    from surfmimo.io import load_config

    scene = load_config(presets.scene_path(name)).scene
    if with_obstacle:
        scene = dataclasses.replace(scene, obstacles=(MIRROR_OBSTACLES[name],))
    mirror = _mirrored(scene, *axes)
    got = csi(mirror, BAND, 3, grid).entries
    want = csi(scene, BAND, 3, grid).entries
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
