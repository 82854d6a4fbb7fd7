"""Top-level acceptance checks: one test per shipped guarantee.

Each test prints a PASS line with the measured numbers (visible under -s);
the test name itself carries the criterion number for the -v listing.
"""

import math
import time

import numpy as np

from surfmimo import presets
from surfmimo.channel import build_mimo, csi, impulse_response
from surfmimo.cli import main
from surfmimo.experiments import (
    FOOT_M,
    MODE_2X2,
    MODE_3X3,
    MODE_SISO,
    LinkSettings,
    SharingConfig,
    SharingPair,
    aggregate_sweep,
    build_link_scene,
    default_template,
    pulse_profile,
    radiation_benchmark,
    scenario1_plan,
    scenario2_plan,
    separation_sweep,
    share_sim,
    throughput_sweep,
)
from surfmimo.io import load_config
from surfmimo.mimo import capacity, condition_number
from surfmimo.propagation import (
    SPEED_OF_LIGHT,
    air_gain,
    phase_velocity,
    surface_gain,
)

F0 = 2.437e9


def _scene(name):
    return load_config(presets.scene_path(name))


def test_criterion_01_capacity_oracle():
    rng = np.random.default_rng(1905)
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3):
        for _ in range(1000):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = float(rng.uniform(1.0, 1e4))
            direct = capacity(h, rho)
            sigma = np.linalg.svd(h, compute_uv=False)
            eigsum = float(sum(math.log2(1.0 + rho / n * s * s) for s in sigma))
            worst = max(worst, abs(direct - eigsum) / eigsum)
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"PASS criterion 1: capacity oracle, worst rel err {worst:.2e} "
          f"in {elapsed:.2f}s")


def test_criterion_02_path_loss_laws():
    m = presets.load_material("spraypaint")
    alpha = m.alpha_at(F0)
    worst = 0.0
    for d in np.linspace(m.d0_m, 5.0, 137):
        g = surface_gain(float(d), F0, m)
        worst = max(worst, abs(math.log(abs(g) * d / m.d0_m) + alpha * d))
    assert worst < 1e-12
    # doubling the distance scales |air gain| by exactly 1/2 (p=1), 1/4 (p=2)
    for k in range(1, 6):
        d = 0.1 * 2.0 ** k
        assert abs(air_gain(2 * d, F0, p=1.0)) / abs(air_gain(d, F0, p=1.0)) == 0.5
        assert abs(air_gain(2 * d, F0, p=2.0)) / abs(air_gain(d, F0, p=2.0)) == 0.25
    print(f"PASS criterion 2: surface log-linearity worst {worst:.2e}, "
          f"air doubling ratios exact for p in {{1, 2}}")


def test_criterion_03_multiplexing_asymptote():
    cfg = _scene("default_2x2")
    h = build_mimo(cfg.scene, cfg.settings.band, grid=cfg.settings.grid,
                   params=cfg.settings.params).entries

    def ratio(snr_db):
        rho = 10.0 ** (snr_db / 10.0)
        best_siso = max(
            capacity(np.array([[h[i, j]]]), rho)
            for i in range(h.shape[0]) for j in range(h.shape[1])
        )
        return capacity(h, rho) / best_siso

    r30, r60 = ratio(30.0), ratio(60.0)
    assert r30 >= 1.8
    assert abs(r60 - 2.0) <= 0.02 * 2.0
    print(f"PASS criterion 3: capacity ratio {r30:.4f} at 30 dB, "
          f"{r60:.4f} at 60 dB")


def test_criterion_04_conditioning():
    tpl = default_template()
    st = LinkSettings()
    worst = 0.0
    for mode in (MODE_2X2, MODE_3X3):
        for ft in range(1, 17):
            scene = build_link_scene(tpl, ft * FOOT_M, mode, st)
            c = condition_number(csi(scene, st.band, st.n_subcarriers, st.grid, st.params))
            assert np.all(np.isfinite(c))
            assert np.all(c < 1e6)  # sigma_min > 1e-6 * sigma_max
            worst = max(worst, float(c.max()))
    print(f"PASS criterion 4: worst condition number {worst:.1f} "
          f"across 2x2/3x3, 1-16 ft, all subcarriers")


def test_criterion_05_throughput_gain():
    start = time.monotonic()
    rates = {}
    for mode in (MODE_SISO, MODE_2X2, MODE_3X3):
        rows = throughput_sweep(mode=mode)
        rates[mode] = np.array([r.phy_rate_bps for _, r in rows])
    elapsed = time.monotonic() - start
    r22 = float(np.mean(rates[MODE_2X2]) / np.mean(rates[MODE_SISO]))
    r33 = float(np.mean(rates[MODE_3X3]) / np.mean(rates[MODE_SISO]))
    assert 2.0 <= r22 <= 3.2
    assert 2.4 <= r33 <= 3.6
    assert np.mean(rates[MODE_3X3]) >= np.mean(rates[MODE_2X2])
    assert elapsed < 60.0
    print(f"PASS criterion 5: mean rate gains 2x2/SISO {r22:.3f}, "
          f"3x3/SISO {r33:.3f} in {elapsed:.1f}s")


def test_criterion_06_separation_insensitivity():
    rows = dict(separation_sweep(separations_m=(0.01, 0.06)))
    ratio = rows[0.01].phy_rate_bps / rows[0.06].phy_rate_bps
    assert 0.85 <= ratio <= 1.15
    print(f"PASS criterion 6: 1 cm vs 6 cm mean-rate ratio {ratio:.4f}")


def test_criterion_07_aggregation_range():
    plan1, plan2 = scenario1_plan(), scenario2_plan()
    assert plan1.total_bandwidth_hz == 260e6
    assert plan2.total_bandwidth_hz == 240e6
    rows = aggregate_sweep(plan1)
    totals = [total for _, total, _ in rows]
    peak_d, peak_total, peak_chains = rows[0]
    assert peak_total == 1286.7e6
    for c in peak_chains:
        top = presets.load_mcs_table().for_bandwidth(c.bandwidth_hz / 1e6).max_rate_bps
        assert c.phy_rate_bps == top
    assert all(0.74e9 <= t <= 1.33e9 for t in totals)
    print(f"PASS criterion 7: peak {peak_total / 1e6:.1f} Mbps at "
          f"{peak_d / FOOT_M:.0f} ft, sweep totals "
          f"{min(totals) / 1e9:.3f}-{max(totals) / 1e9:.3f} Gbps, "
          f"bandwidths 260/240 MHz exact")


def test_criterion_08_radiation_offsets():
    for s in radiation_benchmark():
        expected = 13.0 if s.position[2] >= 0 else 25.0
        assert s.offset_db == expected
        assert s.reference_dbm - s.surface_fed_dbm == expected
    print("PASS criterion 8: surface-fed offsets exactly -13 dB front / "
          "-25 dB back")


def test_criterion_09_sharing_fairness():
    def pair(ch):
        return SharingPair((0.3, 0.3), (0.9, 0.3), ch, solo_rate_bps=100e6)

    res = share_sim(SharingConfig((pair(6), pair(6))), 100_000)
    for r in res:
        assert abs(r.win_fraction - 0.5) <= 0.03
        assert r.throughput_bps == r.win_fraction * 100e6

    mixed = share_sim(SharingConfig((pair(6), pair(6), pair(11))), 20_000)
    alone = share_sim(SharingConfig((pair(11),)), 20_000)
    assert mixed[2].win_fraction == alone[0].win_fraction  # zero cross-talk
    print(f"PASS criterion 9: same-channel shares "
          f"{res[0].win_fraction:.4f}/{res[1].win_fraction:.4f}, "
          f"cross-channel delta 0")


def test_criterion_10_pulse_physics():
    cfg = _scene("cloth_10ft")
    material = cfg.scene.surface.material
    tx = cfg.scene.transmitters()[0].ports[0]
    rx = cfg.scene.receivers()[0].ports[0]
    d = math.dist(tx[1], rx[1])
    v = phase_velocity(cfg.settings.band, material)
    resp = impulse_response(tx, rx, cfg.scene, cfg.settings.band,
                            grid=cfg.settings.grid,
                            params=cfg.settings.params)
    assert resp.delays()[0] == d / v

    # the same span through the air arrives earlier
    air = d / SPEED_OF_LIGHT
    assert air < resp.delays()[0]

    spread = resp.rms_delay_spread()
    assert spread > 0.0
    prof = pulse_profile(cfg.scene, tx, rx, band=cfg.settings.band,
                         grid=cfg.settings.grid, params=cfg.settings.params)
    residual = prof.residual_after(300e-9)
    assert residual < 0.05
    print(f"PASS criterion 10: first arrival d/v = {d / v * 1e9:.3f} ns exact, "
          f"air {air * 1e9:.3f} ns, spread {spread * 1e9:.2f} ns, "
          f"300 ns residual {residual:.3g}")


def test_criterion_11_determinism_and_convergence(tmp_path):
    argv = ["channel", "--scene", "default_2x2", "--seed", "1905"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    worst = 0.0
    for name in ("default_2x2", "default_3x3", "cloth_10ft", "sweep_spraypaint"):
        cfg = _scene(name)
        g0 = cfg.settings.grid
        coarse = build_mimo(cfg.scene, cfg.settings.band, grid=g0,
                            params=cfg.settings.params).entries
        fine = build_mimo(cfg.scene, cfg.settings.band, grid=2 * g0,
                          params=cfg.settings.params).entries
        rel = np.abs(fine - coarse) / np.abs(coarse)
        assert np.all(rel < 0.02)
        worst = max(worst, float(np.max(rel)))
    print(f"PASS criterion 11: byte-identical rerun, grid-doubling worst "
          f"entry change {worst:.2e}")
