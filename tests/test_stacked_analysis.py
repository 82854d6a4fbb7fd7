"""Stacked link analysis: the (..., n, k) forms of capacity, condition number
and zero-forcing SNRs against per-matrix references kept here and, bitwise,
against each matrix alone, the closed forms of one- and two-column channels
against LAPACK and exact arithmetic, the rate lookup against map_rate,
analyze_link against a per-subcarrier reference loop, the analysis of a
stack of distances against each distance alone, and preset parsing per
run."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfmimo import experiments, mimo, presets
from surfmimo.channel import ChannelMatrix
from surfmimo.errors import DomainError, StreamSeparationError, UndefinedConditionError
from surfmimo.experiments import (
    FOOT_M,
    MODE_2X2,
    SWEEP_MODES,
    LinkSettings,
    SharingConfig,
    SharingPair,
    aggregate_sweep,
    analyze_link,
    default_distances_m,
    multi_mode_sweep,
    scenario2_plan,
    share_sim,
)
from surfmimo.geometry import CONTACT
from surfmimo.io import sweep_result_set
from surfmimo.mimo import (
    LinkResult,
    McsRow,
    McsTable,
    capacity,
    condition_number,
    effective_snr,
    map_rate,
    zf_stream_snrs,
)
from surfmimo.propagation import FrequencyBand


def _gram_inverse_diag_exact(h) -> np.ndarray:
    """Real diagonal of inv(H†H), computed in exact rational arithmetic.

    The complex k x k Gram matrix is carried as its real 2k x 2k embedding
    [[Re, -Im], [Im, Re]], whose inverse embeds the complex inverse; its first
    k diagonal entries are Re[(H†H)^-1]_kk.  Gauss-Jordan on Fractions has no
    rounding, so the reference is exact for the float entries given.
    """
    h = np.asarray(h, dtype=complex)
    hr = np.block([[h.real, -h.imag], [h.imag, h.real]])
    cols = [[Fraction(float(x)) for x in col] for col in hr.T]
    n = len(cols)
    g = [[sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if g[r][c] != 0)
        g[c], g[p] = g[p], g[c]
        piv = g[c][c]
        g[c] = [x / piv for x in g[c]]
        for r in range(n):
            if r != c and g[r][c] != 0:
                f = g[r][c]
                g[r] = [x - f * y for x, y in zip(g[r], g[c])]
    k = h.shape[1]
    return np.array([float(g[i][n + i]) for i in range(k)])


def _zf_float_inv(h, rho) -> np.ndarray:
    """Per-matrix ZF SNRs from the float inverse of the Gram matrix."""
    m = np.asarray(h, dtype=complex)
    s = np.linalg.svd(m, compute_uv=False)
    if m.shape[0] < m.shape[1] or s[-1] <= s[0] * max(m.shape) * np.finfo(float).eps:
        raise StreamSeparationError("singular")
    return rho / (m.shape[1] * np.real(np.diag(np.linalg.inv(m.conj().T @ m))))


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _conditioned(rng, n_rx, k, kappa):
    """An n_rx x k matrix with condition number kappa and a random scale."""
    s = np.sort(rng.uniform(1.0 / kappa, 1.0, size=k))[::-1]
    s[0], s[-1] = 1.0, (1.0 / kappa if k > 1 else 1.0)
    scale = 10.0 ** rng.uniform(-4.0, 2.0)
    return scale * (_unitary(rng, n_rx)[:, :k] * s) @ _unitary(rng, k).conj().T


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rx=st.integers(1, 4),
       k=st.integers(1, 4), f=st.integers(1, 5), log_kappa=st.floats(0.0, 4.0))
@example(seed=137216, n_rx=4, k=2, f=4, log_kappa=2.865173475406666)
def test_stacked_zf_matches_exact_gram_inverse(seed, n_rx, k, f, log_kappa):
    k = min(k, n_rx)
    rng = np.random.default_rng(seed)
    kappas = 10.0 ** rng.uniform(0.0, log_kappa, size=f)
    kappas[0] = 10.0 ** log_kappa
    stack = np.stack([_conditioned(rng, n_rx, k, kap) for kap in kappas])
    rho = 10.0 ** rng.uniform(0.0, 4.0)
    got = zf_stream_snrs(stack, rho)
    assert got.shape == (f, k)
    for m, g in zip(stack, got):
        ref = rho / (k * _gram_inverse_diag_exact(m))
        np.testing.assert_allclose(g, ref, rtol=1e-9, atol=0)
        np.testing.assert_array_equal(g, zf_stream_snrs(m, rho))


def test_float_gram_inverse_loses_digits_the_svd_keeps():
    # At condition number 1e4 the float inverse of H^H H (condition 1e8) is
    # off by far more than the SVD form; this is why the SVD form is used.
    rng = np.random.default_rng(20)
    h = np.stack([_conditioned(rng, 3, 3, 1e4) for _ in range(20)])
    exact = np.array([100.0 / (3 * _gram_inverse_diag_exact(m)) for m in h])
    svd_err = np.max(np.abs(zf_stream_snrs(h, 100.0) / exact - 1))
    inv_err = np.max(np.abs(np.array([_zf_float_inv(m, 100.0) for m in h]) / exact - 1))
    assert svd_err < 1e-11
    assert inv_err > 10 * svd_err


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rx=st.integers(2, 4))
def test_zf_near_parallel_columns_stay_finite_and_monotone(seed, n_rx):
    # H = [a, a + t b] with b orthogonal to a: the exact stream SNRs are
    # rho/2 |a|^2 t^2|b|^2 / (|a|^2 + t^2|b|^2) and rho/2 t^2 |b|^2, both
    # increasing in t.  (Without b orthogonal to a the first need not be.)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
    b = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
    b = b - a * (np.vdot(a, b) / np.vdot(a, a))
    t = np.logspace(-6.0, 0.0, 13)
    stack = np.stack([np.column_stack([a, a + ti * b]) for ti in t])
    rho = 100.0
    snrs = zf_stream_snrs(stack, rho)
    assert np.all(np.isfinite(snrs)) and np.all(snrs > 0)
    assert np.all(np.diff(snrs, axis=0) >= 0)
    aa, bb = np.vdot(a, a).real, np.vdot(b, b).real
    closed = np.column_stack([rho / 2 * aa * t**2 * bb / (aa + t**2 * bb),
                              rho / 2 * t**2 * bb])
    np.testing.assert_allclose(snrs, closed, rtol=1e-6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rx=st.integers(1, 4),
       n_tx=st.integers(1, 4), f=st.integers(1, 6), rank_deficient=st.booleans())
def test_stacked_capacity_and_condition_equal_per_matrix_loop(seed, n_rx, n_tx, f,
                                                              rank_deficient):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((f, n_rx, n_tx)) + 1j * rng.standard_normal((f, n_rx, n_tx))
    if rank_deficient and n_tx > 1:
        stack[f // 2, :, 1] = stack[f // 2, :, 0]
    rho = 10.0 ** rng.uniform(-1.0, 4.0)
    caps = capacity(stack, rho)
    conds = condition_number(stack)
    assert caps.shape == conds.shape == (f,)
    for m, c, kappa in zip(stack, caps, conds):
        assert c == pytest.approx(capacity(m, rho), rel=1e-12)
        ref = condition_number(m)
        assert kappa == ref if math.isinf(ref) else kappa == pytest.approx(ref, rel=1e-12)
    if rank_deficient and 1 < n_tx <= n_rx:
        assert math.isinf(conds[f // 2])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rx=st.integers(1, 4), n_tx=st.integers(1, 3),
       lead=st.sampled_from([(1,), (5,), (2, 3)]), log_kappa=st.floats(0.0, 6.0))
@example(seed=4152712436, n_rx=3, n_tx=2, lead=(5,), log_kappa=3.4916468562521508)
@example(seed=1778620364, n_rx=2, n_tx=2, lead=(5,), log_kappa=2.2097156619089304)
def test_one_matrix_equals_its_slice_of_a_stack_bitwise(seed, n_rx, n_tx, lead, log_kappa):
    # one matrix is a stack of one, so it takes the arithmetic of a stack:
    # the closed forms up to two columns, LAPACK for three
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((*lead, n_rx, n_tx)) + 1j * rng.standard_normal((*lead, n_rx, n_tx))
    # the last column leans toward the first by up to 10^-log_kappa
    lean = 10.0 ** -rng.uniform(0.0, log_kappa, size=(*lead, 1))
    stack[..., -1] = stack[..., 0] + lean * stack[..., -1]
    stack *= 10.0 ** rng.uniform(-4.0, 2.0, size=(*lead, 1, 1))
    rho = 10.0 ** rng.uniform(-1.0, 4.0)
    caps, conds = capacity(stack, rho), condition_number(stack)
    snrs = zf_stream_snrs(stack, rho) if n_tx <= n_rx else None
    for i in np.ndindex(lead):
        assert capacity(stack[i], rho) == caps[i]
        assert condition_number(stack[i]) == conds[i]
        if snrs is not None:
            np.testing.assert_array_equal(zf_stream_snrs(stack[i], rho), snrs[i])


def test_stack_with_one_singular_matrix_is_not_separable():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
    zf_stream_snrs(stack, 10.0)  # separable as drawn
    stack[4, :, 1] = 2.0 * stack[4, :, 0]
    with pytest.raises(StreamSeparationError):
        zf_stream_snrs(stack, 10.0)
    stack[4] = 0.0
    with pytest.raises(UndefinedConditionError):
        condition_number(stack)
    # one column: its one singular value |h| is singular exactly when the
    # column is all zero, and tiny entries underflow to an SNR of 0, not a raise
    column = stack[:, :, :1].copy()
    with pytest.raises(StreamSeparationError):
        zf_stream_snrs(column, 10.0)
    column[:] = 1e-200
    np.testing.assert_array_equal(zf_stream_snrs(column, 10.0), np.zeros((6, 1)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rx=st.integers(1, 4),
       n_tx=st.integers(1, 4), f=st.integers(1, 5), rank_deficient=st.booleans())
def test_link_metrics_from_one_svd_match_the_separate_calls(seed, n_rx, n_tx, f,
                                                            rank_deficient):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((f, n_rx, n_tx)) + 1j * rng.standard_normal((f, n_rx, n_tx))
    if rank_deficient and n_tx > 1:
        stack[f // 2, :, 1] = stack[f // 2, :, 0]
    # the one decomposition that link_results reads the capacity and the
    # condition number from is the one capacity and condition_number take:
    # singular values alone at every width
    s = mimo._decompose(stack)[0]
    np.testing.assert_array_equal(mimo._capacity(s, 50.0, n_tx), capacity(stack, 50.0))
    np.testing.assert_array_equal(mimo._kappa(s, stack.shape), condition_number(stack))
    try:
        zf_stream_snrs(stack, 50.0)
    except StreamSeparationError:
        assert n_tx > n_rx or np.any(mimo._singular(s, stack.shape))


def _reference_analyze(stack, st_: LinkSettings):
    """The per-subcarrier analysis loop: capacity, condition number and
    float-Gram-inverse ZF one matrix of the (F, n_rx, n_tx) stack at a time."""
    rho = st_.snr_linear()
    table = st_.rate_table()
    n_tx = stack.shape[-1]
    caps = [capacity(m, rho) for m in stack]
    conds = [condition_number(m) for m in stack]
    best = (-1.0, (float("-inf"),), ())
    skipped = []
    for k in range(1, n_tx + 1):
        for subset in itertools.combinations(range(n_tx), k):
            per_stream = [[] for _ in subset]
            try:
                for m in stack:
                    for i, s in enumerate(_zf_float_inv(m[:, subset], rho)):
                        per_stream[i].append(s)
            except StreamSeparationError:
                skipped.append(subset)
                continue
            pooled = np.concatenate([np.asarray(s) for s in per_stream])
            esnr = max(effective_snr(pooled, st_.esm_beta), 1e-300)
            rate = map_rate(10.0 * math.log10(esnr), table, n_streams=k)
            if rate > best[0]:
                snrs = tuple(10.0 * math.log10(max(effective_snr(np.asarray(s), st_.esm_beta),
                                                   1e-300)) for s in per_stream)
                best = (rate, snrs, subset)
    return (st_.band.bandwidth_hz * float(np.mean(caps)), float(np.max(conds)),
            best, skipped)


@pytest.mark.parametrize("parallel", [True, False],
                         ids=["parallel-columns", "well-conditioned"])
def test_analyze_link_matches_per_subcarrier_loop(parallel):
    rng = np.random.default_rng(11)
    band = FrequencyBand(2.437e9, 40e6)
    if parallel:
        entries = rng.standard_normal((12, 3, 3)) + 1j * rng.standard_normal((12, 3, 3))
        entries[5, :, 1] = entries[5, :, 0]  # columns 0 and 1 parallel at one subcarrier
    else:
        entries = np.stack([_conditioned(rng, 3, 3, 10.0 ** rng.uniform(0.5, 2.0))
                            for _ in range(12)])
    ports = (CONTACT,) * 3
    st_ = LinkSettings(band=band, snr_db=22.0 if parallel else 60.0)

    cap, cond, (rate, snrs, columns), skipped = _reference_analyze(entries, st_)
    assert skipped == ([(0, 1), (0, 1, 2)] if parallel else [])
    got = analyze_link(ChannelMatrix(entries, band, ports, ports), st_)
    assert rate > 0
    assert got.phy_rate_bps == rate
    assert got.tx_columns == columns
    np.testing.assert_allclose(got.stream_snrs_db, snrs, rtol=1e-9)
    assert got.capacity_bps == pytest.approx(cap, rel=1e-9)
    if parallel:
        assert math.isinf(got.condition_number) and math.isinf(cond)
    else:
        assert math.isfinite(cond)
        assert got.condition_number == pytest.approx(cond, rel=1e-12)


def test_dead_link_has_no_columns_in_sweep_csv():
    band = FrequencyBand(2.437e9, 40e6)
    ports = (CONTACT,) * 2
    # each column vanishes at one subcarrier, so no subset is separable
    dead_entries = np.array([[[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]])
    dead = analyze_link(ChannelMatrix(dead_entries, band, ports, ports),
                        LinkSettings(band=band, snr_db=20.0))
    assert dead.phy_rate_bps == 0.0 and dead.tx_columns == ()
    # a link starved of SNR still names the subset whose SNRs it reports
    starved = analyze_link(ChannelMatrix(np.eye(2), band, ports, ports),
                           LinkSettings(band=band, snr_db=-60.0))
    assert starved.phy_rate_bps == 0.0 and starved.tx_columns == (0,)
    live = LinkResult(3e8, 12.5, (21.0, 18.0), 1.2e8, "MIMO-3x3", tx_columns=(0, 2))
    rs = sweep_result_set({"surface-3x3": [(FOOT_M, live), (2 * FOOT_M, dead)]}, 0.65)
    assert rs.columns[-2:] == ("n_streams", "tx_columns")
    assert [row[-2:] for row in rs.rows] == [(2, "0;2"), (0, "none")]


SHIPPED_ONCE = {"materials.json": 1, "mcs_80211.csv": 1}


def test_throughput_sweep_parses_presets_once(file_reads):
    rows = multi_mode_sweep(distances_m=default_distances_m(), modes=(MODE_2X2,),
                            settings=LinkSettings(grid=8, n_subcarriers=2))[MODE_2X2]
    assert len(rows) == 16
    assert file_reads == SHIPPED_ONCE


def test_aggregate_and_share_parse_presets_once(file_reads):
    fast = LinkSettings(grid=8, n_subcarriers=2)
    rows = aggregate_sweep(scenario2_plan(), (FOOT_M, 2 * FOOT_M), settings=fast)
    assert len(rows) == 2
    pairs = (SharingPair((0.2, 0.3), (0.5, 0.3), 1),
             SharingPair((0.2, 0.1), (0.5, 0.1), 1),
             SharingPair((0.2, 0.5), (0.5, 0.5), 6))
    share_sim(SharingConfig(pairs), 50, settings=fast)
    share_sim(SharingConfig(pairs), 50)
    assert file_reads == SHIPPED_ONCE


# --- closed forms of one- and two-column channels ---------------------------------


def _column_case(rng, n_rx, n_tx, kappa):
    """An n_rx x n_tx matrix of condition number kappa when n_tx <= n_rx, else
    a random one."""
    if n_tx <= n_rx:
        return _conditioned(rng, n_rx, n_tx, kappa)
    return rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rx=st.integers(1, 4), n_tx=st.integers(1, 2),
       f=st.integers(1, 4), log_kappa=st.floats(0.0, 6.0))
def test_closed_forms_match_lapack_and_exact_zf(seed, n_rx, n_tx, f, log_kappa):
    # Both sides are backward stable: singular values agree to rounding of
    # s_max, so s_min, kappa and the ZF diagonal (led by 1/s_min^2) agree to
    # rounding times kappa; the ZF diagonal also matches exact arithmetic.
    rng = np.random.default_rng(seed)
    stack = np.stack([_column_case(rng, n_rx, n_tx, 10.0 ** log_kappa) for _ in range(f)])
    s = mimo._decompose(stack)[0]
    _, s_ref, vh = np.linalg.svd(stack, full_matrices=False)
    assert s.shape == s_ref.shape == (f, min(n_rx, n_tx))
    assert np.all(np.diff(s, axis=-1) <= 0)
    kappa_ref = s_ref[:, 0] / s_ref[:, -1]
    assert np.all(np.abs(s - s_ref) <= 1e-13 * s_ref[:, :1])
    assert np.all(np.abs(s[:, 0] / s[:, -1] / kappa_ref - 1) <= 1e-13 * kappa_ref)
    if n_tx > n_rx:
        return
    g = 7.0 / (n_tx * zf_stream_snrs(stack, 7.0))
    g_ref = np.sum(np.abs(vh) ** 2 / s_ref[..., :, None] ** 2, axis=-2)
    assert np.all(np.abs(g / g_ref - 1) <= 1e-13 * kappa_ref[:, None])
    for m, g_m in zip(stack, g):
        np.testing.assert_allclose(g_m, _gram_inverse_diag_exact(m), rtol=1e-9, atol=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rx=st.integers(1, 4), n_tx=st.integers(1, 2),
       log_kappa=st.floats(0.0, 6.0))
def test_closed_forms_are_exactly_scale_invariant(seed, n_rx, n_tx, log_kappa):
    # each matrix is rescaled by an exact power of two before anything is
    # squared, so a power-of-two scale moves every result by exactly its power
    rng = np.random.default_rng(seed)
    m = np.stack([_column_case(rng, n_rx, n_tx, 10.0 ** log_kappa) for _ in range(3)])
    s = mimo._decompose(m)[0]
    for p in (600, -600):
        scaled = mimo._decompose(np.ldexp(1.0, p) * m)[0]
        np.testing.assert_array_equal(scaled, np.ldexp(s, p))
        np.testing.assert_array_equal(condition_number(np.ldexp(1.0, p) * m),
                                      condition_number(m))
    if n_tx <= n_rx:
        # the ZF SNRs scale by the square of the power, inside the float range
        snrs = zf_stream_snrs(m, 3.0)
        for p in (250, -250):
            np.testing.assert_array_equal(zf_stream_snrs(np.ldexp(1.0, p) * m, 3.0),
                                          np.ldexp(snrs, 2 * p))
    # 1e-200, whose squares underflow unscaled, is no power of two: rounding
    # the scaled entries moves s by rounding of s_max and kappa by rounding
    # times kappa
    tiny, kappa = 1e-200 * m, condition_number(m)
    assert np.all(np.abs(mimo._decompose(tiny)[0] - 1e-200 * s) <= 1e-13 * 1e-200 * s[:, :1])
    assert np.all(np.abs(condition_number(tiny) / kappa - 1) <= 1e-14 * kappa)


@pytest.mark.parametrize("factor", [1.0, 2.0, 0.5, -1.0, 1j, -2j])
@pytest.mark.parametrize("n_rx", [2, 3, 4])
def test_parallel_or_doubled_columns_are_singular(factor, n_rx):
    # with c h exact, each 2x2 minor of [h, c h] is zero up to one rounding
    # per product (a fused multiply-add need not round h_i h_j and h_j h_i
    # alike), so s_min <= eps s_max / (2 sqrt 2), well inside the singular
    # rule's max(n_rx, n_tx) eps s_max
    rng = np.random.default_rng(n_rx)
    h = rng.standard_normal((5, n_rx)) + 1j * rng.standard_normal((5, n_rx))
    stack = np.stack([h, factor * h], axis=-1)
    s = mimo._decompose(stack)[0]
    assert np.all(s[:, 1] <= s[:, 0] * np.finfo(float).eps / 2)
    assert np.all(np.isinf(condition_number(stack)))
    with pytest.raises(StreamSeparationError):
        zf_stream_snrs(stack, 10.0)


# --- the ZF diagonal by Cramer's rule ---------------------------------------------


def _zf_diagonal_svd(m) -> np.ndarray:
    """The ZF diagonal read off the thin SVD H = U S V†, sum_i |V_ki|^2 /
    s_i^2: the oracle of Cramer's rule (the package's form for three or more
    columns before it)."""
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    return np.sum((np.abs(vh) / s[..., :, None]) ** 2, axis=-2)


def _zf_diagonal_closed(m) -> np.ndarray:
    """The package's closed ZF diagonal of one- and two-column stacks before
    Cramer's rule: 1/a, and (c, a)/det with det the sum of the |2x2 minors|^2,
    on each matrix scaled by 2^-e to a largest part in [1/2, 1), scaled back
    by 2^-2e."""
    parts = np.ascontiguousarray(m).view(float)
    largest = np.maximum(parts.max(axis=(-2, -1)), -parts.min(axis=(-2, -1)))
    e = np.frexp(largest)[1][..., None]
    m = np.ldexp(parts, -e[..., None]).view(complex)
    norms = np.sum(m.real ** 2 + m.imag ** 2, axis=-2)
    if m.shape[-1] == 1:
        return np.ldexp(1.0 / norms, -2 * e)
    x, y = m[..., 0], m[..., 1]
    det = np.zeros(m.shape[:-2])
    for i, j in itertools.combinations(range(m.shape[-2]), 2):
        minor = x[..., i] * y[..., j] - x[..., j] * y[..., i]
        det += minor.real ** 2 + minor.imag ** 2
    return np.ldexp(np.stack([norms[..., 1], norms[..., 0]], axis=-1) / det[..., None], -2 * e)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), extra=st.integers(0, 3),
       f=st.integers(1, 4), spread=st.booleans(), log_kappa=st.floats(0.0, 6.0),
       p=st.integers(-250, 250))
@example(seed=2567, k=4, extra=0, f=3, spread=False, log_kappa=0.0, p=-250)
@example(seed=1, k=3, extra=1, f=2, spread=True, log_kappa=6.0, p=250)
def test_zf_diagonal_by_cramers_rule_matches_the_singular_vectors(seed, k, extra, f, spread,
                                                                  log_kappa, p):
    # det G_-k / det G against sum_i |V_ki|^2 / s_i^2: both are backward
    # stable, so they agree to rounding times kappa, for singular values
    # spread to 1/kappa or equal to 1e-9 (where V is ill-determined but the
    # diagonal is not), at any power-of-two scale
    n_rx = min(k + extra, 4)
    rng = np.random.default_rng(seed)
    if spread:
        stack = np.stack([_conditioned(rng, n_rx, k, 10.0 ** log_kappa) for _ in range(f)])
    else:
        s = 1.0 + rng.uniform(0.0, 1e-9, size=(f, 1, k))
        stack = np.stack([_unitary(rng, n_rx)[:, :k] for _ in range(f)]) * s
        stack = stack @ np.stack([_unitary(rng, k).conj().T for _ in range(f)])
    stack = np.ldexp(1.0, p) * stack
    rho = 3.0
    snrs = zf_stream_snrs(stack, rho)
    s_ref = np.linalg.svd(stack, compute_uv=False)
    kappa = s_ref[:, :1] / s_ref[:, -1:]
    g = rho / (k * snrs)
    assert np.all(np.abs(g / _zf_diagonal_svd(stack) - 1) <= 1e-13 * kappa)
    if k <= 2:
        # one and two columns: the quotients are the closed forms' (c, a)/det
        # and 1/a, bit for bit
        np.testing.assert_array_equal(snrs, rho / (k * _zf_diagonal_closed(stack)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), extra=st.integers(0, 2),
       factor=st.sampled_from([1.0, 2.0, 0.5, -1.0, 1j, -2j, 0.0]), p=st.integers(-250, 250))
def test_exactly_rank_deficient_matrices_are_singular(seed, k, extra, factor, p):
    # one column an exact multiple of another (or zero) at one tone: that
    # matrix is singular, so ZF refuses the stack and the link analysis
    # drops every subset holding both columns
    n_rx = min(k + extra, 4)
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((3, n_rx, k)) + 1j * rng.standard_normal((3, n_rx, k))
    stack = np.ldexp(1.0, p) * stack
    i, j = (int(c) for c in rng.choice(k, 2, replace=False))
    stack[1, :, j] = factor * stack[1, :, i]
    s = mimo._decompose(stack)[0]
    assert mimo._singular(s, stack.shape).tolist() == [False, True, False]
    with pytest.raises(StreamSeparationError):
        zf_stream_snrs(stack, 10.0)
    table = presets.load_mcs_table().for_bandwidth(40.0)
    (result,) = mimo.link_results(stack[:, None], 1e3, 1.0, table, 40e6)
    assert not {i, j} <= set(result.tx_columns)


def test_link_analysis_forms_no_singular_vectors(monkeypatch):
    svd = np.linalg.svd

    def values_only(a, full_matrices=True, compute_uv=True, hermitian=False):
        if compute_uv:
            raise AssertionError("singular vectors asked of LAPACK")
        return svd(a, full_matrices, compute_uv, hermitian)

    monkeypatch.setattr(np.linalg, "svd", values_only)
    rng = np.random.default_rng(27)
    table = presets.load_mcs_table().for_bandwidth(40.0)
    for n_tx in (1, 2, 3, 4):
        h = rng.standard_normal((5, 2, 4, n_tx)) + 1j * rng.standard_normal((5, 2, 4, n_tx))
        assert len(mimo.link_results(h, 1e3, 1.0, table, 40e6)) == 2
        assert zf_stream_snrs(h[:, 0], 1e3).shape == (5, n_tx)


# --- rate lookup ------------------------------------------------------------------


@st.composite
def rate_tables(draw):
    n = draw(st.integers(1, 8))
    thresholds = sorted(draw(st.lists(st.floats(-10.0, 40.0), min_size=n, max_size=n,
                                      unique=True)))
    rates = sorted(draw(st.lists(st.floats(1e6, 1e9), min_size=n, max_size=n, unique=True)))
    rows = [McsRow(i, 20.0, r, t)
            for i, (t, r) in enumerate(zip(thresholds, rates))]
    return McsTable(tuple(draw(st.permutations(rows))))


@settings(max_examples=100, deadline=None)
@given(table=rate_tables(), data=st.data(), n_streams=st.integers(1, 3))
@example(table=presets.load_mcs_table().for_bandwidth(40.0), data=None, n_streams=2)
def test_rate_lookup_equals_map_rate(table, data, n_streams):
    thresholds = [r.min_snr_db for r in table.rows]
    # every threshold exactly, one ulp either side, and the ends of the range
    esnrs = [x for t in thresholds for x in (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf))]
    esnrs += [-np.inf, np.inf, np.nan, -1e300, 1e300]
    if data is not None:
        esnrs += data.draw(st.lists(st.floats(-20.0, 50.0), max_size=20))
    got = mimo._lookup_rates(np.array(esnrs), mimo._rate_steps(table)) * n_streams
    assert got.tolist() == [map_rate(e, table, n_streams) for e in esnrs]


def test_rate_lookup_needs_one_bandwidth():
    with pytest.raises(DomainError):
        mimo._rate_steps(presets.load_mcs_table())


# --- one analysis pass over a stack of distances -----------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rx=st.integers(1, 3), n_tx=st.integers(1, 3),
       f=st.integers(1, 6), n_d=st.integers(1, 5), singular=st.lists(st.booleans(),
                                                                  min_size=5, max_size=5),
       snr_db=st.floats(-10.0, 60.0))
def test_stacked_analysis_equals_one_distance_at_a_time(seed, n_rx, n_tx, f, n_d, singular,
                                                        snr_db):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((f, n_d, n_rx, n_tx)) + 1j * rng.standard_normal((f, n_d, n_rx, n_tx))
    h *= 10.0 ** rng.uniform(-3.0, 0.0, size=(1, n_d, 1, 1))
    for d in range(n_d):
        if singular[d] and n_tx > 1:  # columns 0 and 1 parallel at one tone of d
            h[f // 2, d, :, 1] = 2.0 * h[f // 2, d, :, 0]
    st_ = LinkSettings(snr_db=snr_db)
    together = experiments._analyze(h, st_)
    assert len(together) == n_d
    for d, got in enumerate(together):
        (alone,) = experiments._analyze(h[:, [d]], st_)
        assert got.phy_rate_bps == alone.phy_rate_bps
        assert got.tx_columns == alone.tx_columns
        assert got.mode == alone.mode
        np.testing.assert_allclose(got.stream_snrs_db, alone.stream_snrs_db, rtol=1e-12)
        assert got.capacity_bps == pytest.approx(alone.capacity_bps, rel=1e-12)
        assert got.condition_number == pytest.approx(alone.condition_number, rel=1e-12)
        if singular[d] and 1 < n_tx <= n_rx:
            assert math.isinf(got.condition_number)
            assert got.tx_columns[:2] != (0, 1)


def test_four_mode_sweep_takes_one_lapack_svd(monkeypatch):
    # one- and two-column subsets take the closed forms; only the all-column
    # stack of surface-3x3, every distance at once, goes to LAPACK
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    distances = default_distances_m()[:3]
    rows = multi_mode_sweep(distances_m=distances,
                            settings=LinkSettings(grid=8, n_subcarriers=4))
    assert list(rows) == list(SWEEP_MODES)
    assert calls == [(len(distances), 4, 3, 3)]


def test_an_all_zero_matrix_at_any_distance_raises():
    h = np.ones((3, 2, 2, 2), dtype=complex)
    h[1, 1] = 0.0
    with pytest.raises(UndefinedConditionError):
        experiments._analyze(h, LinkSettings(snr_db=20.0))
