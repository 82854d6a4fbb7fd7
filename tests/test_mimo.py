"""Capacity, conditioning, receiver SNRs, and MCS rate mapping."""

import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from surfmimo.errors import DomainError, StreamSeparationError, UndefinedConditionError
from surfmimo.mimo import (
    LinkResult,
    McsRow,
    McsTable,
    capacity,
    condition_number,
    effective_snr,
    map_rate,
    mrc_combine,
    zf_stream_snrs,
)
from surfmimo import presets


def _random_stack(rng, n, n_rx, n_tx):
    shape = (n, n_rx, n_tx)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _logdet_capacity(h, rho):
    """The capacity oracle: log2 det(I + rho/Nt H H+) by a batched slogdet of
    the receive-side Gram matrix, independent of the SVD form under test."""
    n_rx, n_tx = h.shape[-2:]
    gram = np.eye(n_rx) + (rho / n_tx) * (h @ h.conj().swapaxes(-1, -2))
    sign, logdet = np.linalg.slogdet(gram)
    assert np.all(sign.real > 0)
    return logdet / math.log(2.0)


def test_capacity_equals_svd_eigen_sum():
    # sum_i log2(1 + rho/Nt s_i^2) must equal log2 det(I + rho/Nt H H+), for
    # square and non-square, full-rank and rank-one stacks, from far below
    # 0 dB to 20 dB.  The oracle forms H H+, so its own rounding grows like
    # rho * s_max^2 * eps: at rho = 1e4 a rank-one stack puts it 2e-11 off
    # (the SVD form stays within 4e-15 of a 50-digit determinant there).
    rng = np.random.default_rng(1905)
    t0 = time.time()
    for n_rx, n_tx in ((2, 2), (3, 3), (1, 3), (3, 1), (2, 4), (4, 2)):
        full = _random_stack(rng, 300, n_rx, n_tx)
        rank_one = _random_stack(rng, 300, n_rx, 1) @ _random_stack(rng, 300, 1, n_tx)
        for h in (full, rank_one):
            for rho in (1e-6, 1e-2, 1.0, 100.0):
                got = capacity(h, rho)
                oracle = _logdet_capacity(h, rho)
                assert got.shape == (300,)
                assert np.all(np.abs(got - oracle) <= 1e-12 + 1e-12 * np.abs(oracle))
                for m, o in zip(h[:5], oracle):
                    c = capacity(m, rho)
                    assert isinstance(c, float)
                    assert abs(c - o) <= 1e-12 + 1e-12 * abs(o)
    assert time.time() - t0 < 5.0


def test_capacity_known_values_and_validation():
    # identity 2x2 at snr 3 -> 2 streams at snr 1.5 each
    assert capacity(np.eye(2), 3.0) == pytest.approx(2 * math.log2(2.5), rel=1e-12)
    assert capacity(np.zeros((2, 2)), 10.0) == 0.0
    # column vector = receive diversity only
    assert capacity(np.array([[1.0], [1.0]]), 1.0) == pytest.approx(math.log2(3.0), rel=1e-12)
    with pytest.raises(DomainError):
        capacity(np.eye(2), 0.0)
    with pytest.raises(DomainError):
        capacity(np.array([[np.nan, 0], [0, 1]]), 1.0)


def test_condition_number():
    assert condition_number(np.diag([4.0, 2.0])) == pytest.approx(2.0, rel=1e-12)
    assert condition_number(np.eye(3)) == pytest.approx(1.0)
    assert condition_number(np.array([[1.0, 1.0], [1.0, 1.0]])) == math.inf
    with pytest.raises(UndefinedConditionError):
        condition_number(np.zeros((2, 2)))


def test_mrc_gain_of_equal_branches():
    # four equal branches combine to 4x the single-branch SNR: +6.02 dB
    one = mrc_combine([1.0], snr_linear=5.0)
    four = mrc_combine([1.0, 1.0, 1.0, 1.0], snr_linear=5.0)
    assert four == pytest.approx(4 * one)
    assert 10 * math.log10(four / one) == pytest.approx(6.02, abs=0.01)
    with pytest.raises(DomainError):
        mrc_combine([], 1.0)
    with pytest.raises(DomainError):
        mrc_combine([1.0], 0.0)


def test_zf_stream_snrs_orthogonal_and_oracle():
    rho = 50.0
    # orthogonal columns separate losslessly: snr_k = rho/Nt * |col_k|^2
    h = np.array([[2.0, 0.0], [0.0, 3.0]], dtype=complex)
    snrs = zf_stream_snrs(h, rho)
    assert snrs[0] == pytest.approx(rho / 2 * 4.0, rel=1e-12)
    assert snrs[1] == pytest.approx(rho / 2 * 9.0, rel=1e-12)
    # generic matrix against the pseudoinverse noise-amplification form
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    snrs = zf_stream_snrs(h, rho)
    pinv = np.linalg.pinv(h)
    for k in range(2):
        noise_amp = float(np.real(pinv[k] @ pinv[k].conj()))
        assert snrs[k] == pytest.approx(rho / 2 / noise_amp, rel=1e-9)


def test_zf_stream_snrs_failures():
    with pytest.raises(StreamSeparationError):
        zf_stream_snrs(np.ones((1, 2)), 10.0)  # more streams than receive ports
    with pytest.raises(StreamSeparationError):
        zf_stream_snrs(np.array([[1.0, 1.0], [1.0, 1.0]]), 10.0)  # singular
    with pytest.raises(DomainError):
        zf_stream_snrs(np.eye(2), -1.0)


def test_effective_snr_pooling():
    # equal SNRs pool to themselves; dispersion pulls toward the weak ones
    assert effective_snr([7.0, 7.0, 7.0]) == pytest.approx(7.0, rel=1e-12)
    mixed = effective_snr([1.0, 100.0])
    assert mixed <= 100.0
    assert mixed == pytest.approx(-math.log(0.5 * (math.exp(-1.0) + math.exp(-100.0))), rel=1e-12)
    # beta scales the pooling sharpness
    assert effective_snr([1.0, 100.0], beta=50.0) > mixed
    # huge SNRs must not underflow to garbage
    big = effective_snr([1e9, 2e9])
    assert big == pytest.approx(1e9 + math.log(2.0), rel=1e-9)
    with pytest.raises(DomainError):
        effective_snr([])
    with pytest.raises(DomainError):
        effective_snr([1.0], beta=0.0)
    for beta in (math.inf, math.nan):  # both once pooled to nan
        with pytest.raises(DomainError, match="finite and positive"):
            effective_snr([1.0], beta=beta)


def _scipy_esm(snrs, beta=1.0):
    s = np.asarray(snrs, dtype=float)
    return -beta * (logsumexp(-s / beta) - math.log(s.size))


def test_effective_snr_matches_scipy_logsumexp():
    rng = np.random.default_rng(4)
    cases = [(10.0 ** rng.uniform(-1.0, 3.5, size), beta)
             for size in (1, 2, 7, 56, 114) for beta in (0.5, 1.0, 3.0)]
    # above 1e4 every exp(-snr) underflows; one subcarrier is the SNR itself
    cases += [(10.0 ** rng.uniform(4.0, 9.0, size), 1.0) for size in (1, 3, 114)]
    cases += [(np.array([2e4, 3e4]), 1.0), (np.array([1e6]), 2.0), (np.array([0.25]), 1.0)]
    for snrs, beta in cases:
        want = _scipy_esm(snrs, beta)
        assert abs(effective_snr(snrs, beta) - want) <= 1e-12 * abs(want)
    assert effective_snr([0.25]) == 0.25


def _tiny_table():
    return McsTable((
        McsRow(0, "BPSK", "1/2", 40.0, 800.0, 30e6, 5.0),
        McsRow(1, "QPSK", "1/2", 40.0, 800.0, 60e6, 8.0),
        McsRow(2, "16-QAM", "1/2", 40.0, 800.0, 120e6, 14.0),
    ))


def test_map_rate_thresholds():
    t = _tiny_table()
    assert map_rate(4.9, t) == 0.0          # below the lowest threshold: link down
    assert map_rate(5.0, t) == 30e6
    assert map_rate(13.99, t) == 60e6
    assert map_rate(50.0, t) == 120e6
    assert map_rate(50.0, t, n_streams=3) == 360e6
    with pytest.raises(DomainError):
        map_rate(10.0, t, n_streams=0)


def test_map_rate_refuses_rows_of_several_bandwidths():
    full = presets.load_mcs_table()
    with pytest.raises(DomainError):
        map_rate(30.0, full)
    assert map_rate(30.0, full.for_bandwidth(20.0)) == 86.7e6
    assert map_rate(30.0, full.for_bandwidth(40.0)) == 180e6


def test_mcs_table_validation_and_filtering():
    with pytest.raises(DomainError):
        McsTable(())
    rows = _tiny_table().rows
    with pytest.raises(DomainError):  # rate must increase with index
        McsTable((rows[1], McsRow(2, "x", "1/2", 40.0, 800.0, 60e6, 14.0)))
    with pytest.raises(DomainError):  # snr threshold must increase with rate
        McsTable((rows[0], McsRow(1, "x", "1/2", 40.0, 800.0, 60e6, 4.0)))
    full = presets.load_mcs_table()
    t40 = full.for_bandwidth(40.0)
    assert all(r.bandwidth_mhz == 40.0 for r in t40.rows)
    with pytest.raises(DomainError):
        full.for_bandwidth(80.0)


def test_preset_mcs_rates():
    # top single-stream rates that anchor the aggregation arithmetic
    shipped = presets.load_mcs_table()
    assert shipped.for_bandwidth(40).max_rate_bps == 200e6
    assert shipped.for_bandwidth(20).max_rate_bps == 86.7e6


def test_link_result_validation():
    with pytest.raises(DomainError):
        LinkResult(-1.0, 2.0, (1.0,), 0.0, "SISO")
    with pytest.raises(DomainError):
        LinkResult(1.0, 0.5, (1.0,), 0.0, "SISO")
    r = LinkResult(1e8, 3.0, (20.0, 18.0), 1.2e8, "MIMO-2x2")
    assert r.phy_rate_bps == 1.2e8
