"""Information-theoretic and link-level analysis of channel matrices.

Every matrix function takes either one matrix ``(n_rx, n_tx)`` or a stack
``(..., n_rx, n_tx)`` (for example all subcarriers of a link, ``(F, n_rx,
n_tx)``), and answers a stack with one LAPACK call instead of a Python loop
over its matrices.  One matrix gives the scalar / 1-D result; a stack gives
the same result per matrix along the leading axes.

* Capacity is the equal-power log-det form, log2 det(I + snr/N_tx H H†),
  taken as ``sum_i log2(1 + snr/N_tx s_i^2)`` over the singular values.
* The condition number is sigma_max / sigma_min from a batched singular-value
  decomposition (+inf where a matrix is numerically singular).
* Stream separation uses a zero-forcing receiver.  Its noise amplification
  ``[(H†H)^-1]_kk`` is read off the thin SVD ``H = U S V†`` as
  ``sum_i |V_ki|^2 / s_i^2``.  Forming and inverting the Gram matrix ``H†H``
  would square the condition number before the inverse is taken, so
  near-singular links would lose twice as many digits; the SVD form loses
  only what the channel itself costs, and the same singular values decide
  whether the streams are separable at all.  ``link_metrics`` reads the
  capacity, the condition number and the all-column ZF SNRs off one SVD, so
  a link analysis decomposes its full stack once.
* A single stream needs no decomposition: ``[(h†h)^-1] = 1 / sum |h_i|^2``,
  so its ZF SNR is the maximal-ratio-combined ``snr * sum |h_i|^2``.  Its one
  singular value is ``|h|``, which ``_singular`` flags exactly when the
  column is all zero, so that is when it is not separable.
* Per-subcarrier SNRs are compressed to a single effective SNR which an MCS
  table maps to a PHY rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StreamSeparationError, UndefinedConditionError


def _as_matrix(h) -> np.ndarray:
    """One matrix or a stack of them as a complex array; a vector is one
    column."""
    m = np.asarray(getattr(h, "entries", h), dtype=complex)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim < 2:
        raise DomainError(f"expected a matrix, got array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("channel matrix contains non-finite entries")
    return m


def _singular(s: np.ndarray, shape) -> np.ndarray:
    """Numerically singular matrices, from singular values sorted descending."""
    return s[..., -1] <= s[..., 0] * max(shape[-2:]) * np.finfo(float).eps


def _scalar_or_stack(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def _check_snr(snr_linear: float) -> None:
    if snr_linear <= 0:
        raise DomainError(f"snr_linear must be positive, got {snr_linear}")


def _capacity(s: np.ndarray, snr_linear: float, n_tx: int):
    """sum_i log2(1 + (snr/N_tx) s_i^2) over the singular values s (..., n)."""
    return _scalar_or_stack(np.log1p((snr_linear / n_tx) * s**2).sum(-1) / math.log(2.0))


def capacity(h, snr_linear: float):
    """Shannon capacity log2 det(I + (snr/N_tx) H H†), in bits/s/Hz; a float
    for one matrix, an array over the leading axes of a stack.

    Transmit power is split equally over the N_tx columns (no waterfilling).
    """
    _check_snr(snr_linear)
    m = _as_matrix(h)
    return _capacity(np.linalg.svd(m, compute_uv=False), snr_linear, m.shape[-1])


def _nonzero(m: np.ndarray) -> np.ndarray:
    """m, after refusing a stack in which any matrix is all zero."""
    if not np.all(np.any(m, axis=(-2, -1))):
        raise UndefinedConditionError("condition number of the zero matrix is undefined")
    return m


def _kappa(s: np.ndarray, shape):
    """sigma_max / sigma_min from singular values sorted descending; +inf
    where the matrix is singular."""
    with np.errstate(divide="ignore"):
        return _scalar_or_stack(np.where(_singular(s, shape), math.inf, s[..., 0] / s[..., -1]))


def _zf_snrs(s: np.ndarray, vh: np.ndarray, snr_linear: float) -> np.ndarray:
    """ZF stream SNRs snr / (N_tx * [(H†H)^-1]_kk) from the thin SVD of H:
    singular values s (..., n) and right singular vectors vh (..., n, n_tx)."""
    inv_diag = np.sum(np.abs(vh) ** 2 / s[..., :, None] ** 2, axis=-2)
    return snr_linear / (vh.shape[-1] * inv_diag)


def condition_number(h):
    """sigma_max / sigma_min of each matrix; +inf for (numerically) singular
    input.  A float for one matrix, an array over the leading axes of a stack."""
    m = _nonzero(_as_matrix(h))
    return _kappa(np.linalg.svd(m, compute_uv=False), m.shape)


def link_metrics(h, snr_linear: float):
    """(capacity(h, snr_linear), condition_number(h), zf_stream_snrs(h,
    snr_linear)) from one thin SVD of h.  The ZF SNRs are None where
    zf_stream_snrs would raise StreamSeparationError, and for one column agree
    with its closed form to rounding; a zero matrix raises as in
    condition_number."""
    m = _nonzero(_as_matrix(h))
    _check_snr(snr_linear)
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    n_rx, n_tx = m.shape[-2:]
    separable = n_rx >= n_tx and not np.any(_singular(s, m.shape))
    return (_capacity(s, snr_linear, n_tx), _kappa(s, m.shape),
            _zf_snrs(s, vh, snr_linear) if separable else None)


def mrc_combine(h, snr_linear: float = 1.0) -> float:
    """Maximal-ratio-combined SNR over receive branches with gains h.

    Per-branch SNR is snr_linear * |h_i|**2; MRC sums the branch SNRs, so N
    equal branches give an N-fold (e.g. N = 4 -> +6.02 dB) improvement.
    """
    g = np.asarray(h, dtype=complex).ravel()
    if g.size == 0:
        raise DomainError("mrc_combine needs at least one branch")
    _check_snr(snr_linear)
    return float(snr_linear * np.sum(np.abs(g) ** 2))


def zf_stream_snrs(h, snr_linear: float) -> np.ndarray:
    """Post-zero-forcing SNR per spatial stream: snr / (N_tx * [(H†H)^-1]_kk),
    with the inverse's diagonal taken from the thin SVD of H, or for one
    column the closed form snr * sum |h_i|^2.  Shape (n_tx,) for one matrix,
    (..., n_tx) for a stack.

    Raises StreamSeparationError when any matrix is singular (for one column:
    all zero), so callers can fall back to fewer streams.
    """
    m = _as_matrix(h)
    _check_snr(snr_linear)
    n_rx, n_tx = m.shape[-2:]
    if n_rx < n_tx:
        raise StreamSeparationError(
            f"cannot separate {n_tx} streams with {n_rx} receive ports"
        )
    if n_tx == 1:
        if not np.all(np.any(m, axis=-2)):
            raise StreamSeparationError("channel column is zero; the stream is not separable")
        return snr_linear * np.sum(np.abs(m) ** 2, axis=-2)
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    if np.any(_singular(s, m.shape)):
        raise StreamSeparationError("channel matrix is singular; streams are not separable")
    return _zf_snrs(s, vh, snr_linear)


def effective_snr(snrs_linear, beta: float = 1.0) -> float:
    """Exponential effective SNR mapping of per-subcarrier linear SNRs.

    ESM = -beta * ln(mean(exp(-snr_i / beta))); beta = 1 is the plain
    exponential average.  Always <= max(snr_i), with dispersed SNRs pulled
    toward the weakest subcarriers.
    """
    s = np.asarray(snrs_linear, dtype=float).ravel()
    if s.size == 0:
        raise DomainError("effective_snr needs at least one subcarrier")
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    # a log-mean-exp shifted by the max keeps exp(-snr/beta) from
    # underflowing at high SNR
    x = -s / beta
    top = x.max()
    return float(-beta * (top + math.log(np.mean(np.exp(x - top)))))


@dataclass(frozen=True)
class McsRow:
    mcs_index: int
    modulation: str
    coding_rate: str
    bandwidth_mhz: float
    guard_interval_ns: float
    phy_rate_bps: float
    min_snr_db: float


@dataclass(frozen=True)
class McsTable:
    """MCS rows of one or more bandwidths; map_rate reads one for_bandwidth."""

    rows: tuple

    def __post_init__(self):
        if not self.rows:
            raise DomainError("MCS table must not be empty")
        by_bw: dict = {}
        for row in self.rows:
            by_bw.setdefault(row.bandwidth_mhz, []).append(row)
        for bw, rows in by_bw.items():
            rows = sorted(rows, key=lambda r: r.mcs_index)
            rates = [r.phy_rate_bps for r in rows]
            snrs = [r.min_snr_db for r in rows]
            if any(b <= a for a, b in zip(rates, rates[1:])):
                raise DomainError(f"{bw} MHz MCS rates must increase strictly with index")
            if any(b <= a for a, b in zip(snrs, snrs[1:])):
                raise DomainError(f"{bw} MHz MCS SNR thresholds must increase strictly with rate")

    def for_bandwidth(self, bandwidth_mhz: float) -> "McsTable":
        rows = tuple(r for r in self.rows if r.bandwidth_mhz == bandwidth_mhz)
        if not rows:
            raise DomainError(f"no MCS rows for bandwidth {bandwidth_mhz} MHz")
        return McsTable(rows)

    @property
    def max_rate_bps(self) -> float:
        return max(r.phy_rate_bps for r in self.rows)


def map_rate(esnr_db: float, table: McsTable, n_streams: int = 1) -> float:
    """PHY rate for an effective SNR: highest MCS whose threshold is met,
    scaled linearly by the stream count.  Below the lowest threshold the
    link is down (0 bps).  The table must hold one bandwidth's rows."""
    if n_streams < 1:
        raise DomainError(f"n_streams must be >= 1, got {n_streams}")
    if len({r.bandwidth_mhz for r in table.rows}) > 1:
        raise DomainError("map_rate needs the rows of one bandwidth (for_bandwidth)")
    best = 0.0
    for row in table.rows:
        if row.min_snr_db <= esnr_db and row.phy_rate_bps > best:
            best = row.phy_rate_bps
    return best * n_streams


@dataclass(frozen=True)
class LinkResult:
    """Analysis summary for one scenario point."""

    capacity_bps: float
    condition_number: float
    stream_snrs_db: tuple
    phy_rate_bps: float
    mode: str
    # the transmit-column subset whose stream SNRs are reported (the winner);
    # () for a dead link, where no subset is separable
    tx_columns: tuple = ()

    def __post_init__(self):
        if self.capacity_bps < 0:
            raise DomainError("capacity_bps must be >= 0")
        if self.condition_number < 1:
            raise DomainError("condition_number must be >= 1")
