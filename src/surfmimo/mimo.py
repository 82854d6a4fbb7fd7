"""Information-theoretic and link-level analysis of channel matrices.

Every matrix function takes either one matrix ``(n_rx, n_tx)`` or a stack
``(..., n_rx, n_tx)`` (for example all subcarriers of a link, ``(F, n_rx,
n_tx)``, or every distance of a sweep, ``(D, F, n_rx, n_tx)``), and answers
a stack without a Python loop over its matrices.  One matrix is a stack of
one: it takes the arithmetic of a stack and gives the scalar / 1-D result,
bitwise equal to its slice of any stack, which gives the result per matrix
along the leading axes.

Every result is read off two per-matrix quantities, the singular values
s_i and the Gram determinant det(H†H):

* Capacity is the equal-power log-det form, log2 det(I + snr/N_tx H H†),
  taken as ``sum_i log2(1 + snr/N_tx s_i^2)``.
* The condition number is s_max / s_min (+inf where a matrix is
  numerically singular: s_min <= s_max * max(n_rx, n_tx) * eps).
* A zero-forcing (ZF) receiver gives stream k the SNR snr / (N_tx *
  ``[(H†H)^-1]_kk``), and the ZF diagonal is Cramer's rule on Gram
  determinants: ``[(H†H)^-1]_kk = det G_-k / det G``, with G_-k the Gram
  matrix of H without column k (1 for a one-column H).  No singular vector
  is formed.

Each matrix is scaled by the exact power of two 2^-e that puts its largest
part in [1/2, 1): the closed forms square only scaled entries, every
determinant is that of the scaled matrix, and the singular values and the
ZF quotients are scaled back exactly, so no square or determinant under- or
overflows.  Channels of one or two columns, which are all but the 3x3
links, take closed forms.  With a, c the squared column norms and
b = h_1† h_2:

* s_max^2 = (a + c)/2 + sqrt(((a - c)/2)^2 + |b|^2), a sum of non-negative
  terms, so nothing cancels under the root;
* det(H†H) = sum over the 2x2 minors of H of |minor|^2 (the Lagrange
  identity), so s_min^2 = det / s_max^2, and the ZF diagonal is (c, a) / det
  (for one column, 1 / a).

The determinant is taken from the minors of H itself, never as a c - |b|^2
from the Gram matrix: each minor is rounded relative to the entries it is
made of, so s_min is accurate to about eps * s_max, as from a
backward-stable SVD, and the ZF diagonal loses about log10 of the
condition number in digits, not twice that as an inverse of H†H would.
Exactly parallel columns give minors of at most one rounding per product,
so s_min <= eps * s_max / (2 sqrt 2), well inside the singular rule.  Three
or more columns take one batched LAPACK SVD of singular values alone, and
det(H†H) is the product of the scaled s_i^2.  The one- and two-column
determinants ``link_results`` needs for a three-column diagonal are those
of the subsets it walks anyway.

Per-subcarrier SNRs are compressed to a single effective SNR which an MCS
table maps to a PHY rate.  ``link_results`` is the one link analysis of the
runners: the search over transmit-column subsets for the best rate, for
every distance of a sweep at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StreamSeparationError, UndefinedConditionError


def _as_matrix(h):
    """(stack, one): h as a complex stack (..., n_rx, n_tx), where one matrix
    (a vector is one column) is a stack of one, and whether it was one."""
    m = np.asarray(getattr(h, "entries", h), dtype=complex)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim < 2:
        raise DomainError(f"expected a matrix, got array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("channel matrix contains non-finite entries")
    return (m[None], True) if m.ndim == 2 else (m, False)


def _decompose(m: np.ndarray):
    """(s, det, e) for a stack m (..., n_rx, n_tx): the singular values s
    (..., min(n_rx, n_tx)), descending; det (...), where n_rx >= n_tx the
    Gram determinant det(H†H) of the scaled matrix 2^-e H; and the exponent e
    (...) of the exact power of two that scales each matrix to a largest real
    or imaginary part in [1/2, 1).  Closed forms up to two columns, one
    batched LAPACK SVD of singular values alone above (see the module
    docstring)."""
    n_rx, n_tx = m.shape[-2:]
    parts = np.ascontiguousarray(m).view(float)
    largest = np.maximum(parts.max(axis=(-2, -1)), -parts.min(axis=(-2, -1)))
    e = np.frexp(largest)[1]
    if n_tx > 2:
        s = np.linalg.svd(m, compute_uv=False)
        return s, np.prod(np.ldexp(s, -e[..., None]) ** 2, axis=-1), e
    m = np.ldexp(parts, -e[..., None, None]).view(complex)
    norms = np.sum(m.real ** 2 + m.imag ** 2, axis=-2)
    if n_tx == 1:
        s2, det = norms, norms[..., 0]
    else:
        a, c = norms[..., 0], norms[..., 1]
        x, y = m[..., 0], m[..., 1]
        b = np.sum(x.conj() * y, axis=-1)
        hi = (a + c) / 2 + np.sqrt(((a - c) / 2) ** 2 + (b.real ** 2 + b.imag ** 2))
        det = np.zeros_like(a)
        for i, j in itertools.combinations(range(n_rx), 2):
            minor = x[..., i] * y[..., j] - x[..., j] * y[..., i]
            det += minor.real ** 2 + minor.imag ** 2
        # s_min^2 = det / s_max^2: 0 for a zero matrix, and never above
        # s_max^2, as rounding could put it for equal orthogonal columns
        lo = np.minimum(det / np.where(hi > 0, hi, 1.0), hi)
        s2 = np.stack([hi, lo], axis=-1)[..., :n_rx]
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(s2), e[..., None]), det, e


def _zf_diagonal(det, e, deletions):
    """The ZF diagonal [(H†H)^-1]_kk (..., k) of k-column matrices by
    Cramer's rule, det G_-k / det G with G = H†H and G_-k the Gram matrix of
    H without column k: from the det and e of _decompose of H and the
    (det, e) of each one-column deletion, in column order ((1, 0), the empty
    determinant, for one column).  Each quotient is taken on scaled
    determinants and scaled back exactly; inf or nan where det G is 0."""
    k = len(deletions)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.stack([np.ldexp(d / det, 2 * (k - 1) * e_d - 2 * k * e)
                         for d, e_d in deletions], axis=-1)


def _singular(s: np.ndarray, shape) -> np.ndarray:
    """Numerically singular matrices, from singular values sorted descending."""
    return s[..., -1] <= s[..., 0] * max(shape[-2:]) * np.finfo(float).eps


def _check_snr(snr_linear: float) -> None:
    if snr_linear <= 0:
        raise DomainError(f"snr_linear must be positive, got {snr_linear}")


def _capacity(s: np.ndarray, snr_linear: float, n_tx: int):
    """sum_i log2(1 + (snr/N_tx) s_i^2) over the singular values s (..., n)."""
    return np.log1p((snr_linear / n_tx) * s**2).sum(-1) / math.log(2.0)


def capacity(h, snr_linear: float):
    """Shannon capacity log2 det(I + (snr/N_tx) H H†), in bits/s/Hz; a float
    for one matrix, an array over the leading axes of a stack.

    Transmit power is split equally over the N_tx columns (no waterfilling).
    """
    _check_snr(snr_linear)
    m, one = _as_matrix(h)
    c = _capacity(_decompose(m)[0], snr_linear, m.shape[-1])
    return float(c[0]) if one else c


def _nonzero(m: np.ndarray) -> np.ndarray:
    """m, after refusing a stack in which any matrix is all zero."""
    if not np.all(np.any(m, axis=(-2, -1))):
        raise UndefinedConditionError("condition number of the zero matrix is undefined")
    return m


def _kappa(s: np.ndarray, shape):
    """sigma_max / sigma_min from singular values sorted descending; +inf
    where the matrix is singular."""
    with np.errstate(divide="ignore"):
        return np.where(_singular(s, shape), math.inf, s[..., 0] / s[..., -1])


def condition_number(h):
    """sigma_max / sigma_min of each matrix; +inf for (numerically) singular
    input.  A float for one matrix, an array over the leading axes of a stack."""
    m, one = _as_matrix(h)
    kappa = _kappa(_decompose(_nonzero(m))[0], m.shape)
    return float(kappa[0]) if one else kappa


def zf_stream_snrs(h, snr_linear: float) -> np.ndarray:
    """Post-zero-forcing SNR per spatial stream: snr / (N_tx * [(H†H)^-1]_kk),
    for one column the maximal-ratio-combined snr * sum |h_i|^2.  Shape
    (n_tx,) for one matrix, (..., n_tx) for a stack.

    Raises StreamSeparationError when any matrix is singular (for one column:
    all zero), so callers can fall back to fewer streams.
    """
    m, one = _as_matrix(h)
    _check_snr(snr_linear)
    n_rx, n_tx = m.shape[-2:]
    if n_rx < n_tx:
        raise StreamSeparationError(
            f"cannot separate {n_tx} streams with {n_rx} receive ports"
        )
    s, det, e = _decompose(m)
    if np.any(_singular(s, m.shape)):
        raise StreamSeparationError("channel matrix is singular; streams are not separable")
    deletions = ([(1.0, 0)] if n_tx == 1 else
                 [_decompose(np.delete(m, j, axis=-1))[1:] for j in range(n_tx)])
    snrs = snr_linear / (n_tx * _zf_diagonal(det, e, deletions))
    return snrs[0] if one else snrs


def _esm(snrs_linear: np.ndarray, beta: float) -> np.ndarray:
    """effective_snr along the last axis of an array of linear SNRs."""
    # a log-mean-exp shifted by the max keeps exp(-snr/beta) from
    # underflowing at high SNR
    x = -snrs_linear / beta
    top = x.max(axis=-1)
    return -beta * (top + np.log(np.mean(np.exp(x - top[..., None]), axis=-1)))


def _esnr_db(snrs_linear, beta: float):
    """Effective SNR in dB along the last axis of linear SNRs."""
    return 10.0 * np.log10(np.maximum(_esm(snrs_linear, beta), 1e-300))


def effective_snr(snrs_linear, beta: float = 1.0) -> float:
    """Exponential effective SNR mapping of per-subcarrier linear SNRs.

    ESM = -beta * ln(mean(exp(-snr_i / beta))); beta = 1 is the plain
    exponential average.  Always <= max(snr_i), with dispersed SNRs pulled
    toward the weakest subcarriers.
    """
    s = np.asarray(snrs_linear, dtype=float).ravel()
    if s.size == 0:
        raise DomainError("effective_snr needs at least one subcarrier")
    if not 0 < beta < math.inf:
        raise DomainError(f"beta must be finite and positive, got {beta}")
    return float(_esm(s, beta))


@dataclass(frozen=True)
class McsRow:
    mcs_index: int
    bandwidth_mhz: float
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


def _one_bandwidth(table: McsTable) -> None:
    if len({r.bandwidth_mhz for r in table.rows}) > 1:
        raise DomainError("map_rate needs the rows of one bandwidth (for_bandwidth)")


def map_rate(esnr_db: float, table: McsTable, n_streams: int = 1) -> float:
    """PHY rate for an effective SNR: highest MCS whose threshold is met,
    scaled linearly by the stream count.  Below the lowest threshold the
    link is down (0 bps).  The table must hold one bandwidth's rows."""
    if n_streams < 1:
        raise DomainError(f"n_streams must be >= 1, got {n_streams}")
    _one_bandwidth(table)
    best = 0.0
    for row in table.rows:
        if row.min_snr_db <= esnr_db and row.phy_rate_bps > best:
            best = row.phy_rate_bps
    return best * n_streams


def _rate_steps(table: McsTable):
    """One bandwidth's rows as (thresholds_db, rates_bps) for _lookup_rates:
    the thresholds ascending, and the rates with the link-down 0 ahead."""
    _one_bandwidth(table)
    rows = sorted(table.rows, key=lambda r: r.min_snr_db)
    return (np.array([r.min_snr_db for r in rows]),
            np.array([0.0] + [r.phy_rate_bps for r in rows]))


def _lookup_rates(esnr_db, steps) -> np.ndarray:
    """map_rate (one stream) of every effective SNR of an array, from the
    _rate_steps of its table.  McsTable makes the rates rise with the
    thresholds, so the highest rate met is indexed by the count of
    thresholds met: 0 is the link down, and a NaN meets none."""
    thresholds, rates = steps
    return rates[np.sum(np.asarray(esnr_db)[..., None] >= thresholds, axis=-1)]


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


def link_results(h, snr_linear: float, beta: float, table: McsTable,
                 bandwidth_hz: float) -> list:
    """Link analysis of a channel stacked as (F, D, n_rx, n_tx): one
    LinkResult per distance.  Capacity (over bandwidth_hz) is the mean and
    the condition number the largest over subcarriers.  Each transmit-column
    subset's ZF SNRs are pooled by effective_snr with beta and looked up in
    table (one bandwidth's rows); the first subset (fewest streams, then
    lowest columns) with the highest rate wins, a subset being skipped where
    it is singular at some subcarrier.  An all-zero matrix raises
    UndefinedConditionError."""
    steps = _rate_steps(table)
    h = np.moveaxis(h, 1, 0)  # (D, F, n_rx, n_tx)
    n_d, _, n_rx, n_tx = h.shape
    full = _decompose(_nonzero(h))
    caps = _capacity(full[0], snr_linear, n_tx).mean(axis=-1)
    kappa = _kappa(full[0], h.shape).max(axis=-1)
    best_rate = np.full(n_d, -1.0)
    best = [((float("-inf"),), ())] * n_d  # (stream ESNRs in dB, columns)
    # the (det, e) of every subset walked, read by the subsets one column larger
    dets = {(): (1.0, 0)}
    for k in range(1, min(n_rx, n_tx) + 1):
        for subset in itertools.combinations(range(n_tx), k):
            s, det, e = full if k == n_tx else _decompose(h[..., subset])
            dets[subset] = det, e
            live = np.flatnonzero(~np.any(_singular(s, (n_rx, k)), axis=-1))
            if not live.size:
                continue
            g = _zf_diagonal(det, e, [dets[subset[:j] + subset[j + 1:]] for j in range(k)])
            snrs = np.swapaxes(snr_linear / (k * g[live]), -1, -2)  # (live, k, F)
            rate = _lookup_rates(_esnr_db(snrs.reshape(len(live), -1), beta), steps) * k
            better = rate > best_rate[live]
            won = live[better]
            best_rate[won] = rate[better]
            for d, db in zip(won, _esnr_db(snrs[better], beta)):
                best[d] = (tuple(db.tolist()), subset)

    mode = "SISO" if n_tx == 1 else f"MIMO-{n_tx}x{n_tx}"
    # a distance where every subset is singular reports a dead link
    return [LinkResult(capacity_bps=bandwidth_hz * float(c),
                       condition_number=float(kap), stream_snrs_db=snrs_db,
                       phy_rate_bps=max(float(rate), 0.0), mode=mode, tx_columns=columns)
            for c, kap, rate, (snrs_db, columns) in zip(caps, kappa, best_rate, best)]
