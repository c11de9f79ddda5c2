"""Acceptance gate: every published figure of merit at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import math

import numpy as np
import pytest

import pulsequad as pq
from pulsequad.cli import main
from pulsequad.cli import _thinned_vacuum_blocks, _allan_tau_grid, _child_seed
from pulsequad.states import coherent_amplitudes, sample_quadratures
from pulsequad.tomography import mle_reconstruct

from reference import generate_trace, quadrature_pdf
from test_states import random_density_matrix


def check(criterion, ok, detail):
    print(f"[acceptance {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def record_batch(cfg, n, seed):
    trace, _ = generate_trace(cfg, pq.StateModel.vacuum(), [0.0], n, seed=seed)
    windows = pq.segment_pulses(trace, cfg.f_rep, 0.0, 1.0 / cfg.f_rep)
    return pq.pulse_areas(trace, windows)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps({"run": "characterize", "seed": 0, "out_dir": str(out)}))
    assert main(["characterize", "--config", str(cfg_path)]) == 0
    return json.loads((out / "report.json").read_text())


@pytest.fixture(scope="module")
def coherent_mle():
    phases = np.repeat(np.arange(7) * np.pi / 7, 5000)
    batch = sample_quadratures(pq.StateModel.coherent(0.86), phases, 35_000, seed=4)
    return mle_reconstruct(batch, 10)


@pytest.fixture(scope="module")
def photon_mle():
    n = 100_000
    rng = np.random.default_rng(7)
    phases = rng.uniform(0, 2 * np.pi, n)
    # preparation efficiency 0.649 and detection efficiency 0.86 in the data;
    # the POVM corrects the detection part only
    batch = sample_quadratures(
        pq.StateModel.fock(1, efficiency=0.649 * 0.86), phases, n, seed=11
    )
    return mle_reconstruct(batch, 10, eta=0.86)


def test_01_calibration_fidelity():
    cfg = pq.DetectorConfig()
    n = 100_000
    cal = pq.calibrate_vacuum(record_batch(cfg, n, seed=201))
    fresh = pq.apply_calibration(record_batch(cfg, n, seed=202), cal)
    mean = fresh.values.mean()
    var = fresh.values.var(ddof=1)
    check(
        1,
        abs(mean) < 0.01 and abs(var - 0.5) < 0.01,
        f"calibrated vacuum: |mean| = {abs(mean):.4f} < 0.01, "
        f"|var - 0.5| = {abs(var - 0.5):.4f} < 0.01",
    )


def test_02_shot_noise_linearity():
    det = pq.DetectorConfig()
    points = []
    for i, frac in enumerate((0.2, 0.4, 0.6, 0.8, 1.0)):
        cfg = det.with_power(det.p_lo * frac)
        points.append((cfg.p_lo, float(np.var(record_batch(cfg, 40_000, seed=1000 + i), ddof=1))))
    curve = pq.variance_vs_power(points)
    rel = abs(curve.fit_intercept / det.elec_noise_area_var - 1)
    check(
        2,
        curve.r_squared > 0.99 and rel < 0.15,
        f"R^2 = {curve.r_squared:.5f} > 0.99, intercept within {rel:.1%} of "
        f"configured electronic noise (< 15%)",
    )


def test_03_snr_arithmetic():
    snr_db, eta_en = pq.snr_and_efficiency(10**1.45, 1.0)
    eta_bhd = pq.overall_efficiency(eta_en, 0.90)
    check(
        3,
        abs(snr_db - 14.5) < 1e-9
        and abs(eta_en - 0.9645) <= 0.0005
        and abs(eta_bhd - 0.868) <= 0.001,
        f"14.5 dB -> eta_en = {eta_en:.4f} (0.9645 +/- 0.0005), "
        f"eta_bhd = {eta_bhd:.4f} (0.868 +/- 0.001)",
    )


def test_04_bandwidth(report):
    bw = report["bandwidth_hz"]
    check(
        4,
        abs(bw - 80e6) <= 0.15 * 80e6,
        f"-3 dB bandwidth = {bw / 1e6:.1f} MHz (80 MHz +/- 15%)",
    )


def test_05_correlation_coefficient():
    cfg = pq.DetectorConfig()
    areas = record_batch(cfg, 2000, seed=301)
    batch = pq.apply_calibration(areas, pq.calibrate_vacuum(areas))
    cc0, _ = pq.correlation_coefficient(batch, 0)
    cc1, _ = pq.correlation_coefficient(batch, 1)
    check(
        5,
        cc0 == 1.0 and abs(cc1) < 3.0 / math.sqrt(2000),
        f"CC(0) = {cc0} (exactly 1), |CC(1)| = {abs(cc1):.4f} < 0.066",
    )


def test_06_allan_deviation(report):
    det = pq.DetectorConfig()
    taus = _allan_tau_grid(1e-3)
    curves = [
        pq.allan_deviation(_thinned_vacuum_blocks(det, _child_seed(0, 50 + r)), 1e3, taus)
        for r in range(10)
    ]
    avg = pq.averaged_allan(curves)
    white = avg.taus <= 0.05
    slope = np.polyfit(np.log10(avg.taus[white]), np.log10(avg.deviations[white]), 1)[0]

    f, d = 1000.0, 3.7e-4
    ramp = pq.QuadratureBatch(values=d * np.arange(100_000) / f)
    ramp_taus = np.array([0.01, 0.1, 1.0, 10.0])
    ramp_dev = pq.allan_deviation(ramp, f, ramp_taus).deviations
    ramp_err = np.max(np.abs(ramp_dev / (d * ramp_taus / math.sqrt(2)) - 1))

    stability = report["stability_interval_s"]
    check(
        6,
        abs(slope + 0.5) <= 0.05 and ramp_err < 1e-12 and 1.0 <= stability <= 4.0,
        f"white slope = {slope:.3f} (-0.5 +/- 0.05), ramp law exact to "
        f"{ramp_err:.1e} (< 1e-12), stability interval = {stability:.2f} s in [1, 4]",
    )


def test_07_time_bandwidth_product(report):
    tbp = report["tbp"]
    check(
        7,
        1.6e8 / 2 <= tbp <= 1.6e8 * 2,
        f"TBP = {tbp:.3e} within a factor 2 of 1.6e8",
    )


def test_08_cmrr(report):
    check(
        8,
        abs(report["cmrr_db"] - 63.0) <= 1.0,
        f"CMRR = {report['cmrr_db']:.2f} dB (63 +/- 1 dB)",
    )


def test_09_coherent_state_tomography(coherent_mle):
    fid = pq.fidelity_pure(coherent_mle.rho, coherent_amplitudes(0.86, 10))
    check(
        9,
        fid >= 0.985,
        f"coherent |alpha| = 0.86 reconstruction fidelity = {fid:.4f} >= 0.985",
    )


def test_10_single_photon_tomography(photon_mle):
    w00 = float(pq.wigner(photon_mle.rho, [0.0], [0.0]).values[0, 0])
    p1 = float(photon_mle.rho.elements[1, 1].real)
    check(
        10,
        abs(w00 + 0.095) <= 0.01 and abs(p1 - 0.649) <= 0.02,
        f"W(0,0) = {w00:.4f} (-0.095 +/- 0.01), P(1) = {p1:.4f} (0.649 +/- 0.02)",
    )


def test_11_oracle_equivalences(coherent_mle, photon_mle):
    # quadrature pdf normalization
    x = np.linspace(-8, 8, 2**14)
    norm_err = 0.0
    for seed, dim in ((0, 4), (1, 10), (2, 20)):
        rho = random_density_matrix(dim, seed)
        for theta in (0.0, 1.1):
            norm_err = max(norm_err, abs(np.trapezoid(quadrature_pdf(rho, theta, x), x) - 1))

    # loss channel semigroup
    rho6 = random_density_matrix(6, 3)
    semi_err = 0.0
    for eta1, eta2 in ((0.86, 0.649), (0.3, 0.7), (1.0, 0.5)):
        twice = pq.loss_channel(pq.loss_channel(rho6, eta1), eta2)
        once = pq.loss_channel(rho6, eta1 * eta2)
        semi_err = max(semi_err, float(np.max(np.abs(twice.elements - once.elements))))

    # Wigner marginal against the quadrature pdf
    rho10 = random_density_matrix(10, 12)
    xg = np.linspace(-4, 4, 41)
    pg = np.linspace(-7.5, 7.5, 6001)
    marginal = np.trapezoid(pq.wigner(rho10, xg, pg).values, pg, axis=1)
    marg_err = float(np.max(np.abs(marginal - quadrature_pdf(rho10, 0.0, xg))))

    # likelihood histories never decrease
    monotone = True
    for result in (coherent_mle, photon_mle):
        gains = np.diff(result.history)
        monotone &= bool(np.all(gains >= -1e-10 * np.abs(result.history[:-1])))

    # fixed 4-level state recovered from 1e5 ideal samples
    truth = random_density_matrix(4, seed=20)
    n = 100_000
    phases = np.tile(np.arange(12) * np.pi / 12, n // 12 + 1)[:n]
    u = np.random.default_rng(21).random(n)
    values = np.empty(n)
    for theta in np.unique(phases):
        pdf = quadrature_pdf(truth, theta, x)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(x))))
        cdf /= cdf[-1]
        sel = phases == theta
        values[sel] = np.interp(u[sel], cdf, x)
    recon = mle_reconstruct(pq.QuadratureBatch(values=values, phases=phases), 4)
    tdist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(recon.rho.elements - truth.elements))))
    monotone &= bool(
        np.all(np.diff(recon.history) >= -1e-10 * np.abs(recon.history[:-1]))
    )

    check(
        11,
        norm_err < 1e-6 and semi_err < 1e-10 and marg_err < 1e-4 and monotone and tdist < 0.05,
        f"pdf normalization err = {norm_err:.1e} (< 1e-6), loss semigroup err = "
        f"{semi_err:.1e} (< 1e-10), Wigner marginal err = {marg_err:.1e} (< 1e-4), "
        f"likelihood monotone = {monotone}, D=4 trace distance = {tdist:.3f} (< 0.05)",
    )


def test_12_cli_determinism(tmp_path):
    configs = {
        "characterize": {"run": "characterize", "seed": 5, "n_pulses": 4000},
        "tomography": {
            "run": "tomography",
            "seed": 5,
            "n_pulses": 4000,
            "state": {"kind": "coherent", "alpha": 0.6},
            "phases": {"kind": "sweep", "count": 5},
            "tomography": {"cutoff": 6},
        },
        "trace-export": {"run": "trace-export", "seed": 5, "n_pulses": 100},
    }
    identical = True
    for name, doc in configs.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            cfg = tmp_path / f"{name}-{attempt}.json"
            cfg.write_text(json.dumps({**doc, "out_dir": str(out)}))
            assert main([name, "--config", str(cfg)]) == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
            )
        identical &= outputs[0] == outputs[1]
    check(12, identical, "all three run types byte-identical across two invocations")
