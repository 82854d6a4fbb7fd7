"""Scene validation, port ordering, and image-source enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfmimo.errors import DomainError
from surfmimo.geometry import (
    ANTENNA,
    CONTACT,
    Node,
    Obstacle,
    Scene,
    SurfaceSpec,
    image_sources,
    reflect,
    segment_crosses_rect,
    validate_scene,
)
from surfmimo import presets

MAT = presets.load_material("spraypaint")


def _surface(w=2.0, h=1.0):
    return SurfaceSpec(w, h, MAT)


def test_surface_contains():
    s = _surface()
    assert s.contains(0.0, 0.0) and s.contains(2.0, 1.0) and s.contains(1.0, 0.5)
    assert not s.contains(-0.01, 0.5)
    assert not s.contains(1.0, 1.01)


def test_node_ports_contacts_first():
    n = Node("a", "transmitter", contacts=((0.1, 0.2),), antennas=((0.1, 0.2, 0.03),))
    kinds = [k for k, _ in n.ports]
    assert kinds == [CONTACT, ANTENNA]
    # coordinates normalized to float tuples
    assert n.contacts == ((0.1, 0.2),)
    assert n.antennas == ((0.1, 0.2, 0.03),)


def test_scene_lookup_and_roles():
    s = Scene(_surface(), (
        Node("tx", "transmitter", contacts=((0.2, 0.5),)),
        Node("rx", "receiver", contacts=((1.8, 0.5),)),
    ))
    assert s.node("tx").role == "transmitter"
    assert len(s.transmitters()) == 1 and len(s.receivers()) == 1
    with pytest.raises(DomainError):
        s.node("nope")


def test_validate_scene_collects_every_problem():
    s = Scene(_surface(), (
        Node("tx", "transmitter", contacts=((0.2, 0.5),)),
        Node("tx", "driver", contacts=((5.0, 0.5),)),          # dup id, bad role, outside
        Node("bare", "receiver"),                               # no ports
        Node("neg", "receiver", antennas=((0.5, 0.5, -0.1),)),  # below the surface
    ))
    problems = validate_scene(s)
    text = "\n".join(problems)
    assert "duplicate node id" in text
    assert "unknown role" in text
    assert "outside surface" in text
    assert "at least one contact or antenna" in text
    assert "negative height" in text


def test_validate_scene_requires_a_transmitter():
    s = Scene(_surface(), (Node("rx", "receiver", contacts=((0.2, 0.5),)),))
    assert any("no transmitter" in p for p in validate_scene(s))
    good = Scene(_surface(), (
        Node("tx", "transmitter", contacts=((0.2, 0.5),)),
        Node("rx", "receiver", contacts=((1.8, 0.5),)),
    ))
    assert validate_scene(good) == []


def test_image_ring_counts():
    # Ring k holds 8k mirror images; cumulative through ring k is (2k+1)^2.
    s = _surface()
    p = (0.7, 0.4)
    for order in range(4):
        imgs = image_sources(p, order, s)
        assert len(imgs) == (2 * order + 1) ** 2
        for k in range(1, order + 1):
            assert sum(1 for _, c in imgs if max(c) == k) == 8 * k
        assert all(cx <= order and cy <= order for _, (cx, cy) in imgs)
        if order:
            # ring 1: two mirrors across the vertical walls, two across the
            # horizontal ones, four corners
            assert sorted(c for _, c in imgs if max(c) == 1) == (
                [(0, 1)] * 2 + [(1, 0)] * 2 + [(1, 1)] * 4)
    assert image_sources(p, 0, s) == [((0.7, 0.4), (0, 0))]


def test_image_positions_are_true_mirrors():
    s = _surface()
    p = (0.7, 0.4)
    imgs = dict(((round(x, 12), round(y, 12)), c) for (x, y), c in image_sources(p, 1, s))
    # single bounces across each wall: ring 1, one reflection along one axis
    assert imgs[(round(reflect(0.7, 0.0), 12), 0.4)] == (1, 0)          # left
    assert imgs[(round(reflect(0.7, s.width_m), 12), 0.4)] == (1, 0)    # right
    assert imgs[(0.7, round(reflect(0.4, 0.0), 12))] == (0, 1)          # bottom
    assert imgs[(0.7, round(reflect(0.4, s.height_m), 12))] == (0, 1)   # top


def test_image_sources_deterministic_order():
    s = _surface()
    a = image_sources((0.7, 0.4), 3, s)
    b = image_sources((0.7, 0.4), 3, s)
    assert a == b
    rings = [max(c) for _, c in a]
    assert rings == sorted(rings)
    # the single-bounce mirrors sit in ring 1, each reflected along one axis
    mirrors = {(round(x, 12), round(y, 12)): c for (x, y), c in a}
    assert [mirrors[(-0.7, 0.4)], mirrors[(3.3, 0.4)]] == [(1, 0), (1, 0)]
    assert [mirrors[(0.7, -0.4)], mirrors[(0.7, 1.6)]] == [(0, 1), (0, 1)]


def _mirrors_by_reflection(v, length, order):
    """(position, reflections) of every 1-D mirror of v in [0, length] with at
    most order reflections, by reflecting across alternate walls from either
    wall in turn."""
    out = [(v, 0)]
    for first in (0.0, length):
        pos, wall = v, first
        for count in range(1, order + 1):
            pos, wall = reflect(pos, wall), length - wall
            out.append((pos, count))
    return out


def _by_counts(images):
    groups = {}
    for pos, counts in images:
        groups.setdefault(counts, []).append(pos)
    return {c: sorted(ps) for c, ps in groups.items()}


def _coordinate(extent):
    # strictly inside, on either wall, or anywhere
    return st.one_of(st.just(0.0), st.just(extent), st.floats(0.0, extent),
                     st.floats(0.001 * extent, 0.999 * extent))


@settings(max_examples=200, deadline=None)
@given(w=st.floats(0.05, 8.0), h=st.floats(0.05, 8.0), order=st.integers(0, 4),
       data=st.data())
def test_image_sources_are_every_mirror_with_its_axis_counts(w, h, order, data):
    s = _surface(w, h)
    x, y = data.draw(_coordinate(w)), data.draw(_coordinate(h))
    imgs = image_sources((x, y), order, s)
    assert imgs[0] == ((x, y), (0, 0))
    rings = [max(c) for _, c in imgs]
    assert [rings.count(k) for k in range(order + 1)] == [1] + [8 * k for k in range(1, order + 1)]
    keys = [(max(c), iy, ix) for (ix, iy), c in imgs]
    assert keys == sorted(keys)
    # the same multiset of ((x, y), (cx, cy)) as the brute-force mirrors,
    # positions to rounding (the two build them by different sums)
    brute = [((px, py), (cx, cy)) for px, cx in _mirrors_by_reflection(x, w, order)
             for py, cy in _mirrors_by_reflection(y, h, order)]
    got, want = _by_counts(imgs), _by_counts(brute)
    assert got.keys() == want.keys()
    tol = 1e-9 * (1 + order) * (w + h)
    for counts, positions in want.items():
        assert len(got[counts]) == len(positions)
        for (gx, gy), (bx, by) in zip(got[counts], positions):
            assert abs(gx - bx) <= tol and abs(gy - by) <= tol


def test_image_sources_rejects_bad_input():
    s = _surface()
    with pytest.raises(DomainError):
        image_sources((0.7, 0.4), -1, s)
    with pytest.raises(DomainError):
        image_sources((5.0, 0.4), 1, s)


def test_reflect_is_an_involution():
    assert reflect(reflect(0.7, 1.3), 1.3) == pytest.approx(0.7)


def test_segment_crosses_rect():
    box = Obstacle(0.9, 0.4, 1.1, 0.6)
    assert segment_crosses_rect((0.0, 0.5), (2.0, 0.5), box)
    assert not segment_crosses_rect((0.0, 0.9), (2.0, 0.9), box)
    # edge-touching and fully-inside cases
    assert segment_crosses_rect((0.95, 0.45), (1.05, 0.55), box)
    assert not segment_crosses_rect((0.0, 0.0), (0.5, 0.1), box)
