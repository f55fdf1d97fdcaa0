"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Each test prints its measured values.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from submig import analysis as ana
from submig import forward as fwd
from submig import geometry as geo
from submig import harness
from submig import imaging as img
from submig import spectral
from submig import specfun as sf

BAND = ana.BandLimits.from_wavelengths(0.5, 0.3, 10)
SIGMA1 = geo.get_curve("sigma1")


@pytest.fixture(scope="module")
def sigma1_clean_matrices():
    dirs = fwd.make_directions(48)
    inc = geo.ThinInclusion(curve=SIGMA1)
    out = []
    for lam in np.linspace(0.5, 0.3, 10):
        out.append(fwd.assemble_msr(dirs, 2 * math.pi / lam, inc))
    return out


@pytest.fixture(scope="module")
def fig1_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fig1")
    cfg_a = harness.preset_config("fig1", out_dir=str(root / "a"))
    start = time.perf_counter()
    report_a = harness.run_experiment(cfg_a)
    elapsed = time.perf_counter() - start
    cfg_b = harness.preset_config("fig1", out_dir=str(root / "b"))
    report_b = harness.run_experiment(cfg_b)
    return report_a, report_b, elapsed, root


@pytest.fixture(scope="module")
def fig4_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fig4")
    return harness.run_experiment(harness.preset_config("fig4", out_dir=str(root / "run")))


def test_criterion_01_log_integral_identity():
    start = time.perf_counter()
    worst = 0.0
    for a, b in ((0.5, 5.0), (1.0, 20.0), (3.0, 50.0)):
        closed = sf.integral_log_j0sq(a, b)
        brute = sf.quad_adaptive(lambda x: np.log(x) * sf.bessel_j(0, x) ** 2, a, b)
        rel = abs(closed - brute) / abs(brute)
        worst = max(worst, rel)
        assert rel < 1e-7, f"({a},{b}): relative error {rel:.3e}"
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst relative error {worst:.3e}, runtime {elapsed:.3f}s")
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_02_j0sq_integral_identity():
    worst = 0.0
    for a, b in ((0.0, 10.0), (1.0, 30.0)):
        closed = sf.integral_j0sq(a, b)
        brute = sf.quad_adaptive(lambda x: sf.bessel_j(0, x) ** 2, a, b)
        rel = abs(closed - brute) / abs(brute)
        worst = max(worst, rel)
        assert rel < 1e-7, f"({a},{b}): relative error {rel:.3e}"
    print(f"criterion 2: worst relative error {worst:.3e}")


def test_criterion_03_clean_msr_symmetry(sigma1_clean_matrices):
    worst = 0.0
    for k in sigma1_clean_matrices:
        asym = np.linalg.norm(k.entries - k.entries.T) / np.linalg.norm(k.entries)
        worst = max(worst, asym)
        assert asym < 1e-12, f"omega={k.omega}: asymmetry {asym:.3e}"
    print(f"criterion 3: worst relative asymmetry {worst:.3e}")


def test_criterion_04_svd_contract(sigma1_clean_matrices):
    worst_recon = worst_ortho = 0.0
    for k in sigma1_clean_matrices:
        f = spectral.svd(k)
        n = k.dirs.count
        recon = np.linalg.norm((f.u * f.s) @ f.v.conj().T - k.entries)
        recon /= np.linalg.norm(k.entries)
        ortho = max(
            np.max(np.abs(f.u.conj().T @ f.u - np.eye(n))),
            np.max(np.abs(f.v.conj().T @ f.v - np.eye(n))),
        )
        worst_recon = max(worst_recon, recon)
        worst_ortho = max(worst_ortho, ortho)
        assert recon < 1e-10 and ortho < 1e-10
    worst_sv = 0.0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        s = spectral.svd(k).s
        eigs = np.sort(np.linalg.eigvalsh(k.conj().T @ k))[::-1]
        oracle = np.sqrt(np.clip(eigs, 0.0, None))
        err = np.max(np.abs(s - oracle)) / oracle[0]
        worst_sv = max(worst_sv, err)
        assert err < 1e-8, f"seed {seed}: singular value error {err:.3e}"
    print(
        f"criterion 4: reconstruction {worst_recon:.3e}, orthonormality "
        f"{worst_ortho:.3e}, eigensolver agreement {worst_sv:.3e}"
    )


def test_criterion_05_lemma2_agreement():
    start = time.perf_counter()
    omega = 2 * math.pi / 0.5
    target = np.array([0.2, -0.1])
    # point-like inclusion with permittivity contrast; monopole steering
    curve = geo.PolynomialCurve(
        x_coeffs=(target[0], 1.0), y_coeffs=(target[1],), s_min=-0.005, s_max=0.005
    )
    inc = geo.ThinInclusion(curve=curve, permittivity=5.0, permeability=1.0)
    k = fwd.assemble_msr(fwd.make_directions(48), omega, inc)
    grid = img.ImageGrid(nx=101, ny=101)
    out = img.map_single(k, spectral.svd(k), grid, img.SteeringConfig(c=(1, 0, 0)))
    scat = ana.ScattererSet(points=target.reshape(1, 2))
    analytic = ana.analytic_sf(grid.points(), scat, omega)
    pearson = np.corrcoef(out.values.ravel(), analytic)[0, 1]
    elapsed = time.perf_counter() - start
    print(f"criterion 5: Pearson correlation {pearson:.6f}, runtime {elapsed:.2f}s")
    assert pearson > 0.9, f"correlation {pearson:.4f} not above 0.9"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_06_improvement_sign_diagnostics():
    for r in (0.001, 0.01, 0.05):
        e1, e2 = ana.e1_e2(r, BAND)
        assert -e1 + e2 < 0.0, f"r={r}: -E1+E2 = {-e1 + e2:.4f} not negative"
    for r in (5.0, 10.0):
        e1, e2 = ana.e1_e2(r, BAND)
        assert abs(-e1 + e2) < 0.1 * BAND.width, (
            f"r={r}: |-E1+E2| = {abs(-e1 + e2):.4f} above 0.1*width"
        )
    print("criterion 6: sign diagnostics hold at all probe radii")


def test_criterion_07_fig1_reproduction(fig1_runs):
    report, _, elapsed, _ = fig1_runs
    se = {tag: report.metrics[tag]["sidelobe_energy"] for tag in ("MF", "WMF(1)", "LOG")}
    loc = report.metrics["LOG"]["localization_error"]
    print(
        f"criterion 7: sidelobes MF={se['MF']:.4f} WMF(1)={se['WMF(1)']:.4f} "
        f"LOG={se['LOG']:.4f}; LOG localization {loc:.4f}; runtime {elapsed:.1f}s"
    )
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    assert loc <= 0.15, f"LOG localization error {loc:.4f} above 0.15"
    assert se["LOG"] < se["WMF(1)"] < se["MF"], (
        f"sidelobe ordering LOG < WMF(1) < MF does not hold: {se}"
    )


def test_fig1_log_sits_between_wmf1_and_mf(fig1_runs):
    # the measured ordering that criterion 7 does not meet: LOG's weights tilt
    # less than omega, so at fig1 seed 0 it lands strictly between MF and WMF(1)
    report = fig1_runs[0]
    for metric in ("sidelobe_energy", "localization_error"):
        got = {tag: report.metrics[tag][metric] for tag in ("MF", "WMF(1)", "LOG")}
        print(f"{metric}: " + " ".join(f"{tag}={v:.6f}" for tag, v in got.items()))
        assert got["WMF(1)"] < got["LOG"] < got["MF"], f"{metric}: {got}"


def test_criterion_08_fig4_reproduction(fig4_run):
    se = {tag: fig4_run.metrics[tag]["sidelobe_energy"] for tag in ("MF", "WMF(1)", "LOG")}
    print(
        f"criterion 8: sidelobes MF={se['MF']:.4f} WMF(1)={se['WMF(1)']:.4f} "
        f"LOG={se['LOG']:.4f}"
    )
    assert se["LOG"] < se["MF"] and se["LOG"] < se["WMF(1)"], (
        f"LOG sidelobe energy not strictly below both: {se}"
    )


def test_criterion_09_noise_calibration(sigma1_clean_matrices):
    k = sigma1_clean_matrices[0]
    signal = np.mean(np.abs(k.entries) ** 2)
    noise = []
    for seed in range(200):
        noisy = fwd.add_awgn(k, 10.0, seed)
        noise.append(np.mean(np.abs(noisy.entries - k.entries) ** 2))
    snr = 10.0 * math.log10(signal / np.mean(noise))
    print(f"criterion 9: empirical SNR {snr:.3f} dB over 200 seeds")
    assert 9.5 <= snr <= 10.5, f"empirical SNR {snr:.3f} dB outside [9.5, 10.5]"


def test_criterion_10_determinism(fig1_runs):
    _, _, _, root = fig1_runs
    csvs = sorted(p.name for p in (root / "a").glob("*.csv"))
    assert csvs, "no CSV outputs found"
    for name in csvs:
        a = (root / "a" / name).read_bytes()
        b = (root / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    print(f"criterion 10: {len(csvs)} CSV files byte-identical across runs")
