"""Synthesis of hybrid surface/air channel gains and MIMO matrices.

Every (TX port, RX port) pair maps to one of four channel kinds:

* contact -> contact: direct surface path, boundary-reflection images, and a
  surface->air->surface composite term (double surface integral).
* contact -> antenna (and the mirror): a surface->air composite term (single
  surface integral) plus a local coupling term when the antenna sits within
  the near-field radius of the surface: the signal runs along the surface to
  the point under the antenna and hops up.
* antenna -> antenna: direct line-of-sight air path (no surface re-radiation:
  surface<->air transformations are modeled at most once per path).

Every gain evaluates the propagation laws defined once in
``propagation.py``: the surface law ``_surface_field``, the air law
``_air_field`` and the wavenumber (``_wavenumber``, ``_propagation``).  One
engine synthesizes every port pair over a whole frequency vector from two
evaluators, the only code that evaluates a gain: ``_paths`` builds one path
table per pass, the distinct surface path sets (source, target) as arrays
of lengths and loss factors and the entries on them, and yields the
entries' legs and amplitudes per block of tones, and ``_integrals`` takes
the surface integrals, batched over frequency and ports.  The near-field hop
runs its surface leg to the foot under the antenna; when that foot is a
contact of the scene (an antenna mounted above its node's contact), the leg
is the contact pair's paths, evaluated once for both entries.  ``csi`` is
one call into the engine, and so is a whole sweep of distances;
``build_mimo`` and ``h_ss``/``h_sa``/``h_as``/``h_aa`` are single-frequency
calls; ``impulse_response`` reads both evaluators at the band center.

Composite integrals are midpoint-rule Riemann sums over the N cell centers
of a regular grid.  The air kernel between two cells depends only on their
offset, so the double integral a_tx^T K a_rx is a 2-D correlation: an FFT
convolution with the kernel sampled on the circulant (2n, 2ny) lattice of
cell offsets (the CG-FFT method of moment-method solvers).  An FFT rounds
every output relative to the largest kernel value, which sits at the
smallest offsets; a pair whose integral lies orders of magnitude below that
(far contacts on a long surface, coarse grid) would lose its relative
precision.  The 3x3 nearest offsets are therefore summed directly and only
the rest of the kernel goes through the FFT.  One side's contact rows go
through the FFT and the other side's are matmul'ed against the result.  The
clamped kernel is exactly even on the lattice (K(o) == K(-o) bitwise), so
either side may take the FFT: the side with fewer contact rows does, and the
receive side on a tie.  The integrals share one loop over blocks of
subcarriers, and a block computes each port's field over the grid once: the
surface field exp(-gamma d) d0/d of every contact and the air field
(air_ref/d)^p exp(-j k d) of every antenna.  C1 is one batched FFT
correlation of contact fields; C2 (contact -> antenna) and C3 (antenna ->
contact) are one batched matmul each, receive fields against transmit
fields.  A block holds as many tones as fit in a fixed budget of complex
elements (``_BLOCK_ELEMENTS``), at least one: per tone, the kernel and each
FFT'd row on the padded lattice plus every field row on the grid.  Sizing by
elements rather than by tones keeps the working set bounded at any grid,
tone count and row count.  No N x N matrix is formed and nothing is cached.

The correlation buffers (the kernel and row spectra, the inverse and the
output) belong to the grid, which lives for one pass: they are allocated by
the first block, the largest, and every later block writes into leading-axis
views of them with ``out=``, so a pass takes fresh pages once rather than
once per block.  The steps are fft2's and ifft2's own one-axis passes, so
the result is bitwise theirs: the row transform is two ``np.fft.fft`` passes
(``fft2`` with ``s=`` takes no ``out=``), the spectrum product is taken in
place, and the inverse is pruned to what is read, the last axis in place and
then the other axis on the first ny columns only.  The kernel is not copied:
its near offsets are read out, zeroed while its transform reads it, and put
back.  ``impulse_response`` runs the same pass at one tone, a block of one,
and weights its composite delay by the port fields and the kernel that
pass formed.

Each law is evaluated once per distinct distance and gathered
(``_distinct``, ``_on_distinct``): a complex exponential costs far more than
a gather, and distances repeat.  The kernel lattice is even in both offsets,
a node's contacts mirror each other's image paths, field rows share grid
distances, and antennas repeat their heights and their spacings.
The distinct values of the kernel lattice are found when the grid is
built, and those of the field rows and of the path table once per call
before the tone-block loop.  The path table's blocks are sized as the
integrals' are, by ``_BLOCK_ELEMENTS`` over the elements one tone holds
(the set and the entry amplitudes), and each block evaluates the surface
law once per distinct length of the whole table and the near-field hop
once per distinct hop length.  A pass evaluates the antenna line of sight
once per distinct antenna distance (``_air_link`` takes all of a pass's
antenna pair distances), and ``impulse_response`` weights its composite
delay by the air kernel its one-tone integral formed.  The result is
bitwise the law on every distance, since each element depends only on its
own (tone, distance).  The gather is ``np.take`` along the last axis, which
keeps the array C-contiguous; a fancy-indexed view would change how FFTs
and BLAS round.

An entry depends only on its two ports, so a distance sweep, where only the
receiver moves, is one scene with one receiver node per distance, and one
``csi`` call: every receiver's ports stand against the shared transmit
ports, and the transmit rows take the FFT once for the whole sweep.

Results are deterministic: equal inputs give bitwise-equal outputs, each
tone of ``csi`` is bitwise equal to ``build_mimo`` at its subcarrier, a
one-path entry is bitwise equal to ``surface_gain`` or ``air_gain``, and the
block size does not change a bit of the output.  A sweep row agrees with the
same distance synthesized alone to rounding (checked to 1e-12 relative), not
bitwise: the FFT side can differ, and BLAS picks its matmul kernel by row
count.  The FFT sums in a different order than a direct double sum, so the
two agree to rounding (checked to 1e-12 relative), not bitwise.  Distances
inside integral kernels that fall below the model reference distances are
clamped (the gain laws diverge at zero); direct paths that would be clamped
emit a RuntimeWarning instead of extrapolating.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import presets
from .errors import ConfigError, DomainError, NearFieldError, PresetError
from .geometry import ANTENNA, CONTACT, Scene, image_sources, segment_crosses_rect
from .propagation import (
    SPEED_OF_LIGHT,
    FrequencyBand,
    _air_field,
    _center_hz,
    _propagation,
    _surface_field,
    _wavenumber,
    phase_velocity,
)

DEFAULT_SUBCARRIERS = {20e6: 56, 40e6: 114}

# Complex elements per block of subcarriers in the integrals and the path table.
_BLOCK_ELEMENTS = 2 ** 15

# Cell offsets (x, y) at which correlations sum the kernel directly.
_NEAR_OFFSETS = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]
_NEAR_X, _NEAR_Y = (np.array(c) for c in zip(*_NEAR_OFFSETS))


@dataclass(frozen=True)
class NoiseModel:
    noise_floor_dbm_per_hz: float = -174.0
    noise_figure_db: float = 6.0

    def __post_init__(self):
        problems = [f"{name} must be finite, got {getattr(self, name)}"
                    for name in ("noise_floor_dbm_per_hz", "noise_figure_db")
                    if not math.isfinite(getattr(self, name))]
        if problems:
            raise ConfigError(problems)

    def noise_power_dbm(self, bandwidth_hz: float) -> float:
        return (
            self.noise_floor_dbm_per_hz
            + 10.0 * math.log10(bandwidth_hz)
            + self.noise_figure_db
        )


@dataclass(frozen=True)
class ChannelParams:
    """Everything besides the scene that shapes channel synthesis.
    coupling=None is resolved to the shipped calibration when the parameters
    are built, so every ChannelParams holds its coupling constants."""

    coupling: presets.CouplingConstants | None = None
    air_ref_m: float = 0.1
    air_exponent: float = 2.0
    near_field_radius_m: float = 0.1
    max_image_order: int = 3

    def __post_init__(self):
        problems = [f"{name} must be finite, got {getattr(self, name)}"
                    for name in ("air_ref_m", "air_exponent", "near_field_radius_m")
                    if not math.isfinite(getattr(self, name))]
        if self.air_ref_m <= 0:
            problems.append(f"air_ref_m must be > 0, got {self.air_ref_m}")
        if self.max_image_order < 0:
            problems.append(f"max_image_order must be >= 0, got {self.max_image_order}")
        if problems:
            raise ConfigError(problems)
        if self.coupling is None:
            object.__setattr__(self, "coupling", presets.load_coupling())


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex port-to-port gains entries[rx, tx] at the band center, or
    entries[f, rx, tx] at the F tones subcarrier_frequencies(frequency, F)."""

    entries: np.ndarray
    frequency: FrequencyBand
    rx_port_kinds: tuple
    tx_port_kinds: tuple

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", e)
        if e.ndim not in (2, 3) or e.size == 0:
            raise DomainError(f"channel matrix must be 2-D or 3-D and non-empty, got {e.shape}")
        if e.shape[-2:] != (len(self.rx_port_kinds), len(self.tx_port_kinds)):
            raise DomainError("port label counts do not match matrix dimensions")
        if not np.isfinite(e).all():
            raise DomainError("channel matrix contains non-finite entries")

    @property
    def tones(self) -> np.ndarray:
        """The entries as an (F, n_rx, n_tx) stack; F = 1 for a 2-D matrix."""
        return self.entries.reshape((-1,) + self.entries.shape[-2:])


@dataclass(frozen=True)
class ImpulseResponse:
    """Sorted (delay, complex amplitude) taps for one link."""

    taps: tuple
    bandwidth_hz: float

    def __post_init__(self):
        if len(self.taps) < 1:
            raise DomainError("impulse response needs at least one tap")
        if not np.isfinite(np.array(self.taps, dtype=complex)).all():
            raise DomainError("impulse response contains non-finite taps")
        delays = [t[0] for t in self.taps]
        if delays[0] <= 0:
            raise DomainError("first tap delay must be positive")
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise DomainError("tap delays must be strictly increasing")

    def delays(self) -> np.ndarray:
        return np.array([t[0] for t in self.taps])

    def amplitudes(self) -> np.ndarray:
        return np.array([t[1] for t in self.taps], dtype=complex)

    def rms_delay_spread(self) -> float:
        """Power-weighted RMS spread of the tap delays, in seconds."""
        tau = self.delays()
        p = np.abs(self.amplitudes()) ** 2
        mean = np.sum(p * tau) / np.sum(p)
        return float(np.sqrt(np.sum(p * (tau - mean) ** 2) / np.sum(p)))


# --- one law evaluation per distinct distance --------------------------------------


def _distinct(d):
    """(the distinct values of the distance array d, the index of each
    element of d into them, shaped like d)."""
    values, at = np.unique(d, return_inverse=True)
    return values, at.reshape(np.shape(d))


def _on_distinct(law, distinct, *args):
    """law(d, *args) for the distances d of distinct = _distinct(d), with the
    law evaluated once per distinct value and gathered: the same bits, since
    each element depends only on its own distance.  np.take keeps the result
    C-contiguous, so FFTs and matmuls of it round as they do on
    law(d, *args)."""
    values, at = distinct
    return np.take(law(values, *args), at, axis=-1)


# --- integration grid -----------------------------------------------------------


class _Grid:
    """Midpoint-rule grid over the surface: n cells across the width, a
    proportional (>= 2) count across the height, points ordered x-major (a
    length-N field reshapes to (n, ny)).  The air kernel is sampled on the
    (2n, 2ny) circulant lattice of cell offsets: index i holds offset i below
    n and i - 2n above (index n is never read).  ``lattice_d`` is the clamped
    distance max(hypot(ix*dx, iy*dy), air_ref_m); the kernel's law is
    evaluated on its distinct values.  A grid is built per pass, and it
    holds that pass's correlation buffers (``_buffer``)."""

    def __init__(self, surface, n: int, params: ChannelParams):
        if n < 2:
            raise ConfigError(
                f"integration grid must have at least 2 points per dimension, got {n}")
        ny = max(2, int(round(n * surface.height_m / surface.width_m)))
        dx, dy = surface.width_m / n, surface.height_m / ny
        xs = (np.arange(n) + 0.5) * dx
        ys = (np.arange(ny) + 0.5) * dy
        px, py = np.meshgrid(xs, ys, indexing="ij")
        self.x, self.y = px.ravel(), py.ravel()
        self.shape = (n, ny)
        self.params = params
        self.da = dx * dy
        ix = np.concatenate([np.arange(n), np.arange(-n, 0)]) * dx
        iy = np.concatenate([np.arange(ny), np.arange(-ny, 0)]) * dy
        self.lattice_d = np.maximum(np.hypot(ix[:, None], iy[None, :]), params.air_ref_m)
        self._lattice_distinct = _distinct(self.lattice_d)
        self._buffers = {}

    def surface_distance(self, contact, d0: float):
        """Clamped in-plane distance from a contact to every grid point."""
        return np.maximum(np.hypot(self.x - contact[0], self.y - contact[1]), d0)

    def air_distance(self, antenna, air_ref: float):
        """Clamped distance from an antenna to every grid point."""
        d2 = (self.x - antenna[0]) ** 2 + (self.y - antenna[1]) ** 2 + antenna[2] ** 2
        return np.maximum(np.sqrt(d2), air_ref)

    def air_kernel(self, k):
        """The clamped air gain on the offset lattice at wavenumber k, or at
        each of a vector of wavenumbers: shape k.shape + (2n, 2ny)."""
        return _on_distinct(_air_field, self._lattice_distinct, k, self.params.air_ref_m,
                            self.params.air_exponent)

    def _buffer(self, name, shape):
        """A C-contiguous complex array of the given shape over the grid's
        buffer ``name``, which grows to the largest shape asked of it: every
        block of a pass after the first (the largest) reuses its memory."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=complex)
        return buf[:size].reshape(shape)

    def correlate(self, kernel, left, right):
        """sum_p sum_q left[t, p] K(p - q) right[r, q] for every row pair, as a
        (..., T, R) array from a (..., 2n, 2ny) kernel sampled on the offset
        lattice and (..., T, N) and (..., R, N) rows; the kernel and the right
        rows share their leading axes (one per subcarrier), and those of the
        left rows broadcast against them.  All right rows of one kernel share
        one FFT convolution with the kernel outside the nearest offsets;
        those are summed directly, one shifted product per offset.

        The steps are fft2/ifft2's one-axis passes, written into the grid's
        buffers: the result is bitwise that of
        ``ifft2(fft2(right, s) * fft2(far))[..., :n, :ny]``, and it is a view
        of a buffer, valid until the grid's next correlation.  No argument is
        modified: the kernel's near offsets are zeroed only while its
        transform reads it."""
        n, ny = self.shape
        rows = right.shape[:-1]
        field = right.reshape(rows + (n, ny))
        near = kernel[..., _NEAR_X, _NEAR_Y]
        spec_k = self._buffer("kernel", kernel.shape)
        kernel[..., _NEAR_X, _NEAR_Y] = 0
        try:
            np.fft.fft(kernel, axis=-1, out=spec_k)
        finally:
            kernel[..., _NEAR_X, _NEAR_Y] = near
        np.fft.fft(spec_k, axis=-2, out=spec_k)
        # fft2 with s= takes no out=: the zero-padded row transform, one axis
        # at a time as fft2 takes it (the last axis first)
        padded = self._buffer("rows", rows + (n, 2 * ny))
        spec = self._buffer("spec", rows + (2 * n, 2 * ny))
        np.fft.fft(field, 2 * ny, axis=-1, out=padded)
        np.fft.fft(padded, 2 * n, axis=-2, out=spec)
        np.multiply(spec, spec_k[..., None, :, :], out=spec)
        # the inverse over the last axis, then over the other axis on only
        # the ny columns read: each column's transform is independent
        np.fft.ifft(spec, axis=-1, out=spec)
        conv = np.fft.ifft(spec[..., :ny], axis=-2,
                           out=self._buffer("rows", rows + (2 * n, ny)))[..., :n, :]
        scratch = self._buffer("spec", rows + (n, ny))  # the spectrum is spent
        for i, (ox, oy) in enumerate(_NEAR_OFFSETS):
            # output cell p takes K(o) * right[p - o]
            part = scratch[..., :n - abs(ox), :ny - abs(oy)]
            np.multiply(near[..., i, None, None, None],
                        field[..., max(-ox, 0):n + min(-ox, 0), max(-oy, 0):ny + min(-oy, 0)],
                        out=part)
            conv[..., max(ox, 0):n + min(ox, 0), max(oy, 0):ny + min(oy, 0)] += part
        lead = np.broadcast_shapes(left.shape[:-2], rows[:-1])
        return np.matmul(left, np.swapaxes(conv.reshape(right.shape), -1, -2),
                         out=self._buffer("out", lead + (left.shape[-2], rows[-1])))


def _composite(grid: _Grid, kernel, a_tx, a_rx, params: ChannelParams):
    """C1 surface->air->surface integrals for every pair of transmit (rows of
    a_tx) and receive (rows of a_rx) surface fields:
    C1 * sum A_S(tx,p1) A_air(p1,p2) A_S(p2,rx) dA^2, shape (B, T, R) for
    the air kernel (``_Grid.air_kernel``) at B wavenumbers and (B, T, N),
    (B, R, N) fields.  The rows of a_rx go through the FFT.  The air kernel
    is even in the offset, so swapping the two sides gives the transposed
    integrals."""
    c1 = params.coupling.c1
    return c1 * grid.da * grid.da * grid.correlate(kernel, a_tx, a_rx)


# --- discrete paths ---------------------------------------------------------------


def _surface_paths(tx, rx, scene: Scene, params: ChannelParams):
    """(clamped lengths, loss factors) of the surface paths from tx to each
    image of rx (``geometry.image_sources``), the direct path, the image with
    counts (0, 0), first: straight segments to the mirrored point, the
    standard image-method approximation, also used for obstacle shadowing.
    A factor is the obstacle losses, in obstacle order, times refl_coeff to
    the image's ring index, its larger count; a path's amplitude is its
    factor times ``_surface_field`` at its length.  So the corner image
    carries refl_coeff**1, not refl_coeff**2.  The per-wall rule
    refl_coeff**(cx + cy) of the image method is an open decision, made by
    ``exponents`` alone; taking it changes outputs.  Both points must lie on
    the surface (DomainError)."""
    scene.surface.point(tx)
    m = scene.surface.material
    order = params.max_image_order if m.refl_coeff > 0 else 0
    images = image_sources(rx, order, scene.surface)
    lengths = [math.hypot(tx[0] - x, tx[1] - y) for (x, y), _ in images]
    exponents = [max(cx, cy) for _, (cx, cy) in images]
    factors = [1.0] * len(images)
    for ob in scene.obstacles:
        loss = 10.0 ** (-ob.perturbation_db / 20.0)
        for i, (pos, _) in enumerate(images):
            if segment_crosses_rect(tx, pos, ob):
                factors[i] *= loss
    if lengths[0] < m.d0_m:
        # the warning names the first caller outside this package
        level, frame = 1, sys._getframe()
        while frame is not None and frame.f_globals.get("__package__") == __package__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"direct surface path of {lengths[0]:.4g} m is below the reference "
            f"distance {m.d0_m:.4g} m; clamping to the reference distance",
            RuntimeWarning,
            stacklevel=level,
        )
    return np.maximum(lengths, m.d0_m), m.refl_coeff ** np.array(exponents) * np.array(factors)


def _near_field(antenna, scene: Scene, params: ChannelParams):
    """The local coupling contact -> foot (the surface point nearest the
    antenna) -> antenna: (foot, clamped hop length), or None when the
    coupling is off or the antenna is beyond the near-field radius.  The hop
    is clamped to the air reference distance by design."""
    ax, ay, az = antenna
    foot = (min(max(ax, 0.0), scene.surface.width_m), min(max(ay, 0.0), scene.surface.height_m))
    hop = math.sqrt((ax - foot[0]) ** 2 + (ay - foot[1]) ** 2 + az * az)
    if params.coupling.near_field_coupling <= 0 or hop > params.near_field_radius_m:
        return None
    return foot, max(hop, params.air_ref_m)


def _air_link(d, k, params: ChannelParams):
    """Line-of-sight gains of antenna pairs at the distances d and the
    wavenumbers k, shape (F, pairs), evaluated once per distinct distance."""
    for dist in d:
        if dist < params.air_ref_m:
            raise NearFieldError(f"antenna separation {dist:.4g} m is below the air "
                                 f"reference distance {params.air_ref_m} m")
    return _on_distinct(_air_field, _distinct(d), k, params.air_ref_m, params.air_exponent)


# --- the channel engine -----------------------------------------------------------


def _paths(scene: Scene, gamma, k, params: ChannelParams, rx_ports, tx_ports):
    """The discrete paths of every (RX port, TX port) entry at the surface
    constants gamma and air wavenumbers k, as blocks (tones f, RX ports i,
    TX ports j, surface-leg lengths (E, P), air-leg lengths (E,), amplitudes
    (B, E, P)).  The antenna pairs come first, for all tones: the line of
    sight, one column with no surface leg (gamma is not read).  The path
    table holds each distinct surface path set (source, target) once, as
    (S, P) lengths and loss factors, and its entries as (i, j, set, hop);
    per block of tones it yields the contact pairs, the direct path and
    images with no air leg, and then the near-field entries, a contact ->
    foot path set followed by the hop.  A block holds as many tones as fit
    in _BLOCK_ELEMENTS over the set and entry amplitudes, and evaluates the
    surface law once per distinct length of the table and the air law once
    per distinct hop length, after the previous block's are freed; the
    antenna pairs take it once per distinct distance."""
    sets, entries, air = {}, [], []
    for i, (rk, rp) in enumerate(rx_ports):
        for j, (tk, tp) in enumerate(tx_ports):
            if tk == CONTACT and rk == CONTACT:
                entries.append((i, j, sets.setdefault((tuple(tp), tuple(rp)), len(sets)), 0.0))
            elif tk == ANTENNA and rk == ANTENNA:
                air.append((i, j, math.dist(tp, rp)))
            else:
                contact, antenna = (tp, rp) if tk == CONTACT else (rp, tp)
                near = _near_field(antenna, scene, params)
                if near is not None:
                    foot, hop = near
                    entries.append((i, j, sets.setdefault((tuple(contact), foot), len(sets)),
                                    hop))
    if air:
        i, j, d = (np.array(c) for c in zip(*air))
        yield slice(None), i, j, np.zeros((d.size, 1)), d, _air_link(d, k, params)[..., None]
    if not sets:
        return
    lengths, loss = (np.array(c) for c in zip(*(_surface_paths(source, target, scene, params)
                                                  for source, target in sets)))
    table = _distinct(lengths)
    i, j, s, hop = (np.array(c) for c in zip(*entries))
    # the contact pairs (air leg 0) and the near-field entries, each as
    # (i, j, surface legs, air legs) and the sets they read
    (pairs, on_pairs), (near, on_near) = (((i[e], j[e], lengths[s[e]], hop[e]), s[e])
                                          for e in (hop == 0, hop > 0))
    hops = _distinct(near[3])
    c = params.coupling.near_field_coupling
    tones = max(1, _BLOCK_ELEMENTS // ((len(sets) + len(entries)) * lengths.shape[1]))
    for lo in range(0, len(k), tones):
        f = slice(lo, lo + tones)
        amps = loss * _on_distinct(_surface_field, table, gamma[f], scene.surface.material)
        yield f, *pairs, np.take(amps, on_pairs, axis=1)
        hop_field = _on_distinct(_air_field, hops, k[f], params.air_ref_m, params.air_exponent)
        yield f, *near, c * np.take(amps, on_near, axis=1) * hop_field[..., None]
        del amps, hop_field


def _integrals(g: _Grid, m, gamma, k, params: ChannelParams, rx_ports, tx_ports):
    """The integrals C1 (contact -> contact), C2 (contact -> antenna) and C3
    (antenna -> contact) of every (RX port, TX port) pair on the grid g of a
    surface of material m, as an (F, R, T) array, 0 where a pair has none,
    and the port fields of the last tone block, (receive contacts, transmit
    contacts, receive antennas, transmit antennas), each (B, rows, N) over
    the ports some integral uses, and the air kernel (B, 2n, 2ny) of the C1
    integral (None when no integral is taken): for a one-tone call, those
    of every used port."""
    coupling = params.coupling
    h = np.zeros((len(k), len(rx_ports), len(tx_ports)), dtype=complex)
    # each integral from the fields of the ports it uses: surface fields of
    # contacts, air fields of antennas, each once per block of tones
    rx_c, rx_a, tx_c, tx_a = ([i for i, (kind, _) in enumerate(ports) if kind == want]
                              for ports in (rx_ports, tx_ports) for want in (CONTACT, ANTENNA))
    use_c1 = coupling.c1 > 0 and bool(rx_c and tx_c)
    use_c2 = coupling.c2 > 0 and bool(rx_a and tx_c)
    use_c3 = coupling.c3 > 0 and bool(rx_c and tx_a)
    if not (use_c1 or use_c2 or use_c3):
        return h, None

    # only the rows some integral uses
    rx_c, tx_c = (rx_c if use_c1 or use_c3 else []), (tx_c if use_c1 or use_c2 else [])
    rx_a, tx_a = (rx_a if use_c2 else []), (tx_a if use_c3 else [])
    d_rx_c, d_tx_c = (_distinct(np.array([g.surface_distance(ports[i][1], m.d0_m)
                                          for i in rows]))
                      for ports, rows in ((rx_ports, rx_c), (tx_ports, tx_c)))
    d_rx_a, d_tx_a = (_distinct(np.array([g.air_distance(ports[i][1], params.air_ref_m)
                                          for i in rows]))
                      for ports, rows in ((rx_ports, rx_a), (tx_ports, tx_a)))
    # the side with fewer contact rows goes through the FFT (receive rows on a
    # tie); a block counts the kernel and the FFT'd rows on the padded lattice
    # and every field row on the grid
    swap = len(tx_c) < len(rx_c)
    per_tone = g.x.size * (len(rx_c) + len(tx_c) + len(rx_a) + len(tx_a))
    if use_c1:
        per_tone += g.lattice_d.size * (1 + min(len(rx_c), len(tx_c)))
    tones = max(1, _BLOCK_ELEMENTS // per_tone)
    rx_c, rx_a = np.array(rx_c, int)[:, None], np.array(rx_a, int)[:, None]
    for lo in range(0, len(k), tones):
        f = slice(lo, lo + tones)
        s_rx, s_tx = (_on_distinct(_surface_field, d, gamma[f], m) for d in (d_rx_c, d_tx_c))
        a_rx, a_tx = (_on_distinct(_air_field, d, k[f], params.air_ref_m, params.air_exponent)
                      for d in (d_rx_a, d_tx_a))
        kernel = g.air_kernel(k[f]) if use_c1 else None
        if use_c1 and swap:
            h[f, rx_c, tx_c] += _composite(g, kernel, s_rx, s_tx, params)
        elif use_c1:
            h[f, rx_c, tx_c] += np.swapaxes(_composite(g, kernel, s_tx, s_rx, params), -1, -2)
        if use_c2:
            h[f, rx_a, tx_c] += coupling.c2 * g.da * (a_rx @ np.swapaxes(s_tx, -1, -2))
        if use_c3:
            h[f, rx_c, tx_a] += coupling.c3 * g.da * (s_rx @ np.swapaxes(a_tx, -1, -2))
    return h, (s_rx, s_tx, a_rx, a_tx, kernel)


def _synthesize(scene: Scene, freqs, grid: int, params: ChannelParams,
                rx_ports, tx_ports):
    """Gains of every (RX port, TX port) pair at every frequency, as an
    (F, R, T) array: each entry is its integral plus the sum of its discrete
    paths; ports are (kind, position) pairs."""
    m = scene.surface.material
    gamma, k = _propagation(m, freqs)
    h = _integrals(_Grid(scene.surface, grid, params), m, gamma, k, params,
                   rx_ports, tx_ports)[0]
    for f, i, j, _, _, amps in _paths(scene, gamma, k, params, rx_ports, tx_ports):
        h[f, i, j] += np.sum(amps, axis=-1)
    return h


def _one(scene, f, grid, params, rx_port, tx_port) -> complex:
    params = params or ChannelParams()
    h = _synthesize(scene, [_center_hz(f)], grid, params, [rx_port], [tx_port])
    return complex(h[0, 0, 0])


# --- the four channel kinds ---------------------------------------------------


def h_ss(tx_contact, rx_contact, scene: Scene, f, grid: int = 32,
         params: ChannelParams | None = None) -> complex:
    """Contact-to-contact gain: direct path + boundary images + composite term.

    The composite term sums surface->air->surface over all discretized point
    pairs (p1, p2): C1 * sum A_S(tx,p1) A_air(p1,p2) A_S(p2,rx) dA^2.
    """
    return _one(scene, f, grid, params, (CONTACT, rx_contact), (CONTACT, tx_contact))


def h_sa(tx_contact, rx_antenna, scene: Scene, f, grid: int = 32,
         params: ChannelParams | None = None) -> complex:
    """Contact-to-antenna gain: C2 integral + local near-field coupling."""
    return _one(scene, f, grid, params, (ANTENNA, rx_antenna), (CONTACT, tx_contact))


def h_as(tx_antenna, rx_contact, scene: Scene, f, grid: int = 32,
         params: ChannelParams | None = None) -> complex:
    """Antenna-to-contact gain: C3 integral + local near-field coupling."""
    return _one(scene, f, grid, params, (CONTACT, rx_contact), (ANTENNA, tx_antenna))


def h_aa(tx_antenna, rx_antenna, f, params: ChannelParams | None = None) -> complex:
    """Antenna-to-antenna gain: direct air path."""
    params = params or ChannelParams()
    k = _wavenumber([_center_hz(f)])
    return complex(_air_link([math.dist(tx_antenna, rx_antenna)], k, params)[0, 0])


# --- matrix assembly ----------------------------------------------------------


def _scene_ports(scene: Scene):
    """(RX ports, RX kinds, TX ports, TX kinds) in node order."""
    rx = tuple(port for node in scene.receivers() for port in node.ports)
    tx = tuple(port for node in scene.transmitters() for port in node.ports)
    if not tx or not rx:
        raise DomainError("scene needs at least one transmitter port and one receiver port")
    return rx, tuple(kind for kind, _ in rx), tx, tuple(kind for kind, _ in tx)


def build_mimo(scene: Scene, f, grid: int = 32,
               params: ChannelParams | None = None) -> ChannelMatrix:
    """Channel matrix over all transmitter ports (columns) and receiver ports (rows).

    Port order within each node is contacts first, then antennas; the entry
    dispatches on the (RX kind, TX kind) pair.
    """
    params = params or ChannelParams()
    band = f if isinstance(f, FrequencyBand) else FrequencyBand(float(f))
    rx, rx_kinds, tx, tx_kinds = _scene_ports(scene)
    h = _synthesize(scene, [band.center_hz], grid, params, rx, tx)
    return ChannelMatrix(h[0], band, rx_kinds, tx_kinds)


def subcarrier_frequencies(band: FrequencyBand, n_subcarriers: int) -> np.ndarray:
    """Uniform interior subcarrier centers across the band (n = 1 -> band center)."""
    if n_subcarriers < 1:
        raise ConfigError(f"need at least 1 subcarrier, got {n_subcarriers}")
    idx = np.arange(n_subcarriers)
    offsets = ((idx + 1.0) / (n_subcarriers + 1.0) - 0.5) * band.bandwidth_hz
    return band.center_hz + offsets


def csi(scene: Scene, band: FrequencyBand, n_subcarriers: int | None = None,
        grid: int = 32, params: ChannelParams | None = None) -> ChannelMatrix:
    """The channel at every subcarrier of the band in one engine pass: a
    ChannelMatrix of F tones, each bitwise ``build_mimo`` at its subcarrier.
    A scene with several receiver nodes (a distance sweep) is still one
    pass; its rows are the receivers' ports in node order.

    Defaults to the 802.11 data+pilot tone counts (114 at 40 MHz, 56 at
    20 MHz).  Frequency diversity emerges from the multipath delay structure.
    PresetError when the band's edges fall outside the material's preset.
    """
    params = params or ChannelParams()
    freqs = subcarrier_frequencies(band, subcarrier_count(band, n_subcarriers))
    m = scene.surface.material
    lo, hi = m.freqs_hz[0], m.freqs_hz[-1]
    if band.center_hz - band.bandwidth_hz / 2 < lo or band.center_hz + band.bandwidth_hz / 2 > hi:
        raise PresetError(
            f"band edges [{band.center_hz - band.bandwidth_hz / 2:.4g}, "
            f"{band.center_hz + band.bandwidth_hz / 2:.4g}] Hz outside material "
            f"preset coverage [{lo:.4g}, {hi:.4g}] Hz"
        )
    rx, rx_kinds, tx, tx_kinds = _scene_ports(scene)
    return ChannelMatrix(_synthesize(scene, freqs, grid, params, rx, tx), band, rx_kinds,
                         tx_kinds)


def subcarrier_count(band: FrequencyBand, n_subcarriers: int | None = None) -> int:
    """n_subcarriers, or the 802.11 data+pilot tone count of the band if None."""
    if n_subcarriers is None:
        return DEFAULT_SUBCARRIERS[band.bandwidth_hz]
    return n_subcarriers


# --- impulse responses ---------------------------------------------------------


def _merge_taps(taps):
    taps = sorted((t for t in taps if t[1] != 0), key=lambda t: t[0])
    merged = []
    for delay, amp in taps:
        # taps at most 0.1 ps apart are one tap
        if merged and delay - merged[-1][0] <= 1e-13:
            merged[-1][1] += amp
        else:
            merged.append([delay, amp])
    return tuple((d, complex(a)) for d, a in merged)


def impulse_response(tx_port, rx_port, scene: Scene, band: FrequencyBand,
                     grid: int = 32, params: ChannelParams | None = None) -> ImpulseResponse:
    """Time-domain taps for one port pair.

    The taps are the channel engine's own discrete paths and integral at the
    band center.  A discrete path (direct, boundary image, near-field hop,
    antenna line of sight) travels its surface legs at the material phase
    velocity and its air leg at c.  The composite integral collapses to one
    aggregate tap at its magnitude-weighted mean delay; composite routes are
    treated as surface-guided diffuse energy, so the whole route uses the
    surface velocity — they never precede the direct surface arrival.
    """
    params = params or ChannelParams()
    (tk, tp), (rk, rp) = tx_port, rx_port
    m, f = scene.surface.material, [band.center_hz]
    if tk == ANTENNA and rk == ANTENNA:
        # no surface leg and no integral: neither the material nor a grid is read
        v, gamma, k, amp = math.inf, None, _wavenumber(f), 0
    else:
        v = phase_velocity(band, m)
        gamma, k = _propagation(m, f)
        g = _Grid(scene.surface, grid, params)
        h, fields = _integrals(g, m, gamma, k, params, [rx_port], [tx_port])
        amp = h[0, 0, 0]
    taps = [tap for _, _, _, legs, air, amps in _paths(scene, gamma, k, params, [rx_port],
                                                       [tx_port])
            for tap in zip((legs / v + air[:, None] / SPEED_OF_LIGHT).ravel(), amps[0].ravel())]

    # the composite tap, where the pair has an integral, weighted by the
    # magnitudes of the port fields that the integral's one-tone pass formed
    if amp != 0 and tk == CONTACT and rk == CONTACT:
        # sum w tau over point pairs, w = |A_S(tx,p1)| |A_air(p1,p2)| |A_S(p2,rx)|
        # and v tau = d1(p1) + d2(p1-p2) + d3(p2): three Toeplitz forms
        s_rx, s_tx, _, _, kernel = fields
        d1, d3 = (g.surface_distance(p, m.d0_m) for p in (tp, rp))
        w_tx, w_rx, w_air = np.abs(s_tx[0, 0]), np.abs(s_rx[0, 0]), np.abs(kernel[0])
        forms = g.correlate(w_air, np.stack([w_tx, w_tx * d1]),
                            np.stack([w_rx, w_rx * d3])).real
        # read out before the next correlation reuses the grid's buffers
        delay_sum, weight = forms[1, 0] + forms[0, 1], forms[0, 0]
        air = g.correlate(w_air * g.lattice_d, w_tx[None], w_rx[None]).real[0, 0]
        taps.append((float((delay_sum + air) / (v * weight)), amp))
    elif amp != 0:
        s_rx, s_tx, a_rx, a_tx, _ = fields
        contact, antenna = (tp, rp) if tk == CONTACT else (rp, tp)
        s, a = (s_tx, a_rx) if tk == CONTACT else (s_rx, a_tx)
        d_s = g.surface_distance(contact, m.d0_m)
        d_a = g.air_distance(antenna, params.air_ref_m)
        w = np.abs(s[0, 0] * a[0, 0])
        taps.append((float(np.sum(w * (d_s + d_a)) / (v * np.sum(w))), amp))
    return ImpulseResponse(_merge_taps(taps), band.bandwidth_hz)
