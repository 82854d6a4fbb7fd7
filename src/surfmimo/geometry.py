"""Scene description and image-source enumeration.

A scene is a rectangular conductive surface with devices placed on it.
Each device (node) exposes surface contact points and/or air antennas.
Boundary-reflection multipath is modeled with the image-source method on
the rectangle: each mirror image carries its reflection counts (cx, cy)
along x and y; ring k, the images whose larger count is k, holds 8k, and
the point itself is the image (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .propagation import MaterialParams

CONTACT = "surface-contact"
ANTENNA = "air-antenna"


@dataclass(frozen=True)
class SurfaceSpec:
    width_m: float
    height_m: float
    material: MaterialParams

    def __post_init__(self):
        if not (0 < self.width_m < math.inf and 0 < self.height_m < math.inf):
            raise DomainError(f"surface extents must be finite and positive, "
                              f"got {self.width_m} x {self.height_m}")

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width_m and 0.0 <= y <= self.height_m

    def point(self, p) -> tuple:
        """p as floats (x, y); DomainError when it is off the surface."""
        x, y = float(p[0]), float(p[1])
        if not self.contains(x, y):
            raise DomainError(f"point ({x}, {y}) is outside the {self.width_m} x "
                              f"{self.height_m} surface")
        return x, y


@dataclass(frozen=True)
class Node:
    """A device: contact points (x, y) on the surface and antennas (x, y, z)."""

    id: str
    role: str  # "transmitter" | "receiver"
    contacts: tuple = ()
    antennas: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "contacts", tuple(tuple(map(float, c)) for c in self.contacts))
        object.__setattr__(self, "antennas", tuple(tuple(map(float, a)) for a in self.antennas))

    @property
    def ports(self):
        """Ordered ports: contacts first, then antennas."""
        return tuple((CONTACT, c) for c in self.contacts) + tuple(
            (ANTENNA, a) for a in self.antennas
        )


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned rectangular object on the surface adding loss to paths under it."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    kind: str = "metal"  # metal | plastic | wood
    perturbation_db: float = 3.0


@dataclass(frozen=True)
class Scene:
    surface: SurfaceSpec
    nodes: tuple = ()
    obstacles: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    def transmitters(self):
        return tuple(n for n in self.nodes if n.role == "transmitter")

    def receivers(self):
        return tuple(n for n in self.nodes if n.role == "receiver")


def _axis_images(x: float, length: float, order: int):
    """1D mirror images of x in [0, length] with walls at 0 and length.

    Yields (position, reflection count) for counts 0..order.  Positions are
    2*m*L + x with count |2m| and 2*m*L - x with count |2m - 1|.
    """
    out = []
    for m in range(-(order + 1), order + 2):
        c_even = abs(2 * m)
        if c_even <= order:
            out.append((2 * m * length + x, c_even))
        c_odd = abs(2 * m - 1)
        if c_odd <= order:
            out.append((2 * m * length - x, c_odd))
    return out


def image_sources(p, order: int, s: SurfaceSpec):
    """Mirror images of point p across the rectangle edges up to the given order.

    Returns a list of ((x, y), (cx, cy)), cx and cy the reflections across
    the vertical and horizontal walls, each at most ``order``: ring k, the
    images with larger count k, holds 8k, so the list holds (2k+1)**2
    through ring k.  Order 0 returns only the point itself.  Deterministic
    ordering: by ring, then y, then x, so the point, (0, 0), comes first.
    """
    if order < 0:
        raise DomainError(f"reflection order must be >= 0, got {order}")
    x, y = s.point(p)
    xs = _axis_images(x, s.width_m, order)
    ys = _axis_images(y, s.height_m, order)
    # ring first, as the larger count, so that the tuples sort without a key
    ranked = sorted((cx if cx > cy else cy, iy, ix, cx, cy) for iy, cy in ys for ix, cx in xs)
    return [((ix, iy), (cx, cy)) for _, iy, ix, cx, cy in ranked]


def segment_crosses_rect(p0, p1, obstacle: Obstacle) -> bool:
    """True if the open segment p0-p1 intersects the obstacle footprint.

    Liang-Barsky clipping against the axis-aligned rectangle.
    """
    x0, y0 = p0
    x1, y1 = p1
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x0 - obstacle.x_min),
        (dx, obstacle.x_max - x0),
        (-dy, y0 - obstacle.y_min),
        (dy, obstacle.y_max - y0),
    ):
        if p == 0:
            if q < 0:
                return False
        else:
            r = q / p
            if p < 0:
                if r > t1:
                    return False
                t0 = max(t0, r)
            else:
                if r < t0:
                    return False
                t1 = min(t1, r)
    return t0 <= t1


def validate_scene(scene: Scene):
    """Check all scene invariants; returns a list of violations (empty = ok).

    Violations are data, not exceptions: every problem is reported, and the
    check never raises on malformed content.
    """
    problems = []
    surf = scene.surface
    seen_ids = set()
    for node in scene.nodes:
        if node.id in seen_ids:
            problems.append(f"duplicate node id {node.id!r}")
        seen_ids.add(node.id)
        if node.role not in ("transmitter", "receiver"):
            problems.append(f"node {node.id!r}: unknown role {node.role!r}")
        if len(node.contacts) + len(node.antennas) == 0:
            problems.append(f"node {node.id!r}: needs at least one contact or antenna")
        for i, (x, y) in enumerate(node.contacts):
            if not surf.contains(x, y):
                problems.append(
                    f"node {node.id!r}: contact {i} at ({x}, {y}) outside surface "
                    f"[0, {surf.width_m}] x [0, {surf.height_m}]"
                )
        for i, (x, y, z) in enumerate(node.antennas):
            if not all(map(math.isfinite, (x, y, z))):
                problems.append(f"node {node.id!r}: antenna {i} at ({x}, {y}, {z}) has a "
                                f"non-finite coordinate")
            elif z < 0:
                problems.append(f"node {node.id!r}: antenna {i} has negative height z = {z}")
    if not any(n.role == "transmitter" for n in scene.nodes):
        problems.append("no transmitter in scene")
    if not any(n.role == "receiver" for n in scene.nodes):
        problems.append("no receiver in scene")
    for i, ob in enumerate(scene.obstacles):
        if not (ob.x_min < ob.x_max and ob.y_min < ob.y_max):
            problems.append(f"obstacle {i}: empty or inverted footprint")
        if not (
            surf.contains(ob.x_min, ob.y_min) and surf.contains(ob.x_max, ob.y_max)
        ):
            problems.append(f"obstacle {i}: footprint extends outside the surface")
        # +inf is legal: a full block, loss factor 0
        if not ob.perturbation_db >= 0:
            problems.append(f"obstacle {i}: perturbation_db must be >= 0")
        if ob.kind not in ("metal", "plastic", "wood"):
            problems.append(f"obstacle {i}: unknown kind {ob.kind!r}")
    return problems
