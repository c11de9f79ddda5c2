"""Trace synthesis: scaling oracles, noise calibration, determinism, export."""

import math

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsequad.detector import (
    BLOCK_PULSES,
    PULSE_SHAPES,
    DetectorConfig,
    DriftModel,
    area_scale,
    electronic_only_areas,
    generate_areas,
    leakage_area,
    photons_per_pulse,
    read_trace_binary,
    single_diode_pulse_area,
)
from pulsequad.extraction import pulse_areas, segment_pulses
from pulsequad.states import StateModel

from reference import (
    electronic_only_trace,
    generate_trace,
    single_diode_trace,
    write_trace_binary,
    write_trace_csv,
)

QUIET = dict(
    elec_noise_area_var=0.0,
    cmrr_db=math.inf,
    drift=DriftModel(linear_rate=0.0, random_walk_sigma=0.0),
)


def record_areas(trace, f_rep):
    windows = segment_pulses(trace, f_rep, 0.0, 1.0 / f_rep)
    return pulse_areas(trace, windows)


class TestScalingOracles:
    def test_photons_per_pulse_default(self):
        # oracle: photon energy h*c/lambda = 2.3933e-19 J at 830 nm
        n = photons_per_pulse(5e-3, 830e-9, 80e6)
        assert n == pytest.approx(2.6114e8, rel=4e-3)

    def test_photons_per_pulse_half_power(self):
        assert photons_per_pulse(2.5e-3, 830e-9, 80e6) == pytest.approx(
            1.30572e8, rel=1e-4
        )

    def test_photons_per_pulse_linearity(self):
        full = photons_per_pulse(5e-3, 830e-9, 80e6)
        half = photons_per_pulse(2.5e-3, 830e-9, 80e6)
        assert half == pytest.approx(full / 2, rel=1e-12)

    def test_photons_per_pulse_domain_errors(self):
        for args in [(0.0, 830e-9, 80e6), (5e-3, -1e-9, 80e6), (5e-3, 830e-9, 0.0)]:
            with pytest.raises(ValueError):
                photons_per_pulse(*args)

    def test_area_scale_default(self):
        assert area_scale(DetectorConfig()) == pytest.approx(1.19e-10, rel=0.01)

    def test_area_scale_zero_efficiency(self):
        assert area_scale(DetectorConfig(eta_pd=0.0)) == 0.0

    def test_area_scale_sqrt_power_dependence(self):
        base = DetectorConfig()
        quadrupled = base.with_power(4 * base.p_lo)
        assert area_scale(quadrupled) == pytest.approx(2 * area_scale(base), rel=1e-12)

    def test_single_diode_area_default(self):
        assert single_diode_pulse_area(DetectorConfig()) == pytest.approx(
            6.77e-7, rel=0.01
        )

    def test_default_electronic_noise_sets_snr(self):
        cfg = DetectorConfig()
        shot_var = 0.5 * area_scale(cfg) ** 2
        assert 10 * math.log10(shot_var / cfg.elec_noise_area_var) == pytest.approx(
            14.5, abs=1e-9
        )


class TestConfigValidation:
    def test_rejects_nonpositive_parameters(self):
        for kwargs in [{"p_lo": 0.0}, {"f_rep": -1.0}, {"fwhm_pulse": 0.0}]:
            with pytest.raises(ValueError):
                DetectorConfig(**kwargs)

    def test_rejects_pulse_as_long_as_its_period(self):
        for fwhm in (12.5e-9, 1e-3):  # f_rep 80 MHz: a 12.5 ns period
            with pytest.raises(ValueError, match="shorter than the pulse period"):
                DetectorConfig(fwhm_pulse=fwhm)
        # shorter than the period, but a rectangle of 12.4 ns covers all 25
        # samples and leaves a flat trace; a Gaussian of that width does not
        with pytest.raises(ValueError, match="flat"):
            DetectorConfig(fwhm_pulse=12.4e-9)
        assert DetectorConfig(fwhm_pulse=12.4e-9, pulse_shape="gaussian").fwhm_pulse == 12.4e-9

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            DetectorConfig(eta_pd=1.2)

    def test_rejects_non_integer_samples_per_period(self):
        with pytest.raises(ValueError):
            DetectorConfig(sample_rate=1.9e9)

    def test_rejects_too_few_samples_per_period(self):
        with pytest.raises(ValueError):
            DetectorConfig(sample_rate=80e6 * 4)

    def test_rejects_unknown_pulse_shape(self):
        with pytest.raises(ValueError):
            DetectorConfig(pulse_shape="triangle")

    def test_rejects_negative_random_walk(self):
        with pytest.raises(ValueError):
            DriftModel(random_walk_sigma=-0.1)

    def test_rejects_non_finite_drift(self):
        for kwargs in [{"linear_rate": math.nan}, {"random_walk_sigma": math.inf}]:
            with pytest.raises(ValueError):
                DriftModel(**kwargs)

    def test_rejects_non_finite_noise_or_areas(self):
        # each overflows the default noise variance, a pulse area or the leak
        for kwargs in [
            {"p_lo": 1e300},
            {"gain": 1e308},
            {"wavelength": math.inf},
            {"cmrr_db": math.nan},
            {"cmrr_db": -math.inf},
            {"cmrr_db": -1e308},
            {"elec_noise_area_var": math.nan},
        ]:
            with pytest.raises(ValueError):
                DetectorConfig(**kwargs)

    def test_perfect_rejection_is_valid(self):
        assert leakage_area(DetectorConfig(cmrr_db=math.inf)) == 0.0


class TestGenerateTrace:
    def test_vacuum_variance_converges_to_half(self):
        cfg = DetectorConfig(**QUIET)
        n = 100_000
        trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], n, seed=1)
        x = record_areas(trace, cfg.f_rep) / area_scale(cfg)
        se = 0.5 * math.sqrt(2.0 / (n - 1))
        assert abs(np.var(x, ddof=1) - 0.5) < 3 * se

    def test_silent_detector_gives_zero_trace(self):
        cfg = DetectorConfig(**QUIET)
        trace = electronic_only_trace(cfg, 200, seed=2)
        assert np.all(trace.samples == 0.0)

    def test_ground_truth_consistency(self):
        # noise-free: every window integrates to area_scale * X_k exactly
        cfg = DetectorConfig(**QUIET)
        trace, truth = generate_trace(cfg, StateModel.vacuum(), [0.0], 500, seed=3)
        areas = record_areas(trace, cfg.f_rep)
        expected = area_scale(cfg) * truth.quadratures
        assert np.max(np.abs(areas - expected)) < 1e-6 * np.max(np.abs(expected))

    @pytest.mark.parametrize("shape", ["rectangular", "gaussian", "half_cosine"])
    def test_ground_truth_consistency_all_shapes(self, shape):
        cfg = DetectorConfig(pulse_shape=shape, **QUIET)
        trace, truth = generate_trace(cfg, StateModel.vacuum(), [0.0], 200, seed=4)
        areas = record_areas(trace, cfg.f_rep)
        expected = area_scale(cfg) * truth.quadratures
        assert np.max(np.abs(areas - expected)) < 1e-9 * np.max(np.abs(expected))

    def test_linear_drift_recovered_by_regression(self):
        # regression oracle on ground truth: remove the known quadrature part,
        # the remaining baseline must ramp at d * area_scale
        d = 0.02
        cfg = DetectorConfig(
            elec_noise_area_var=0.0,
            cmrr_db=math.inf,
            drift=DriftModel(linear_rate=d, random_walk_sigma=0.0),
        )
        n = 50_000
        trace, truth = generate_trace(cfg, StateModel.vacuum(), [0.0], n, seed=5)
        areas = record_areas(trace, cfg.f_rep)
        baseline = areas - area_scale(cfg) * truth.quadratures
        t = np.arange(n) / cfg.f_rep
        slope = np.polyfit(t, baseline, 1)[0]
        assert slope == pytest.approx(d * area_scale(cfg), rel=0.01)

    def test_phase_schedule_length_checked(self):
        cfg = DetectorConfig()
        with pytest.raises(ValueError):
            generate_trace(cfg, StateModel.vacuum(), [0.0, 0.1, 0.2], 5, seed=0)

    def test_determinism(self):
        cfg = DetectorConfig()
        a, _ = generate_trace(cfg, StateModel.coherent(0.5), [0.0], 300, seed=11)
        b, _ = generate_trace(cfg, StateModel.coherent(0.5), [0.0], 300, seed=11)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_seed_changes_trace(self):
        cfg = DetectorConfig()
        a, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 300, seed=11)
        b, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 300, seed=12)
        assert not np.array_equal(a.samples, b.samples)

    def test_shot_noise_linear_in_power(self):
        base = DetectorConfig(**QUIET)
        powers = np.array([0.5, 1.0, 2.0, 3.0, 5.0]) * 1e-3
        variances = []
        for i, p in enumerate(powers):
            cfg = base.with_power(p)
            trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 20_000, seed=20 + i)
            variances.append(np.var(record_areas(trace, cfg.f_rep), ddof=1))
        slope, intercept = np.polyfit(powers, variances, 1)
        fit = slope * powers + intercept
        ss_res = np.sum((variances - fit) ** 2)
        ss_tot = np.sum((variances - np.mean(variances)) ** 2)
        assert 1 - ss_res / ss_tot > 0.995

    def test_gaussian_pulse_separability(self):
        # analytic: tail outside one 12.5 ns period window is below 1%
        sigma = 5.5e-9 / (2 * math.sqrt(2 * math.log(2)))
        outside = 1 - math.erf(6.25e-9 / (sigma * math.sqrt(2)))
        assert outside < 0.01

    def test_baseline_ground_truth_includes_leak_and_drift(self):
        cfg = DetectorConfig(elec_noise_area_var=0.0)
        trace, truth = generate_trace(cfg, StateModel.vacuum(), [0.0], 1000, seed=6)
        areas = record_areas(trace, cfg.f_rep)
        expected = area_scale(cfg) * truth.quadratures + truth.baseline_areas
        assert np.max(np.abs(areas - expected)) < 1e-6 * np.max(np.abs(expected))
        assert truth.baseline_areas[0] == pytest.approx(leakage_area(cfg), rel=1e-12)


class TestBlockAreas:
    """The area path integrates the trace that generate_trace would return,
    block by block, and must give its segmented areas bit for bit."""

    @pytest.mark.parametrize("n_pulses", [1, 2, 3, 4095, 4096, 4097, 8193, 40001])
    @given(
        record=st.sampled_from(["vacuum", "electronic", "coherent-drift"]),
        shape=st.sampled_from(PULSE_SHAPES),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_equal_segmented_trace_areas(self, n_pulses, record, shape, seed):
        assert BLOCK_PULSES == 4096  # the n_pulses cases straddle block edges
        if record == "electronic":
            cfg = DetectorConfig(pulse_shape=shape)
            trace = electronic_only_trace(cfg, n_pulses, seed)
            areas = electronic_only_areas(cfg, n_pulses, seed)
        else:
            state, phases, drift = StateModel.vacuum(), [0.0], DriftModel()
            if record == "coherent-drift":
                state = StateModel.coherent(1.5 - 0.5j)
                phases = np.linspace(0.0, np.pi, n_pulses)
                drift = DriftModel(linear_rate=1e3, random_walk_sigma=0.01)
            cfg = DetectorConfig(pulse_shape=shape, drift=drift)
            trace, _ = generate_trace(cfg, state, phases, n_pulses, seed)
            areas = generate_areas(cfg, state, phases, n_pulses, seed)
        assert np.array_equal(areas, record_areas(trace, cfg.f_rep))

    def test_noiseless_detector(self):
        cfg = DetectorConfig(elec_noise_area_var=0.0, pulse_shape="gaussian")
        trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 5000, seed=2)
        areas = generate_areas(cfg, StateModel.vacuum(), [0.0], 5000, seed=2)
        assert np.array_equal(areas, record_areas(trace, cfg.f_rep))
        assert not np.any(electronic_only_areas(cfg, 5000, seed=2))

    def test_rejects_empty_records(self):
        cfg = DetectorConfig()
        with pytest.raises(ValueError):
            generate_areas(cfg, StateModel.vacuum(), [0.0], 0, seed=1)
        with pytest.raises(ValueError):
            electronic_only_areas(cfg, 0, seed=1)
        # the records drawn from fixed areas share one check, in the pulse
        # blocks; the sampled ones fail first, in the sampler
        for record in (single_diode_trace, electronic_only_trace, electronic_only_areas):
            with pytest.raises(ValueError, match="n_pulses must be at least 1"):
                record(cfg, 0, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            generate_trace(cfg, StateModel.vacuum(), [0.0], 0, seed=1)


class TestSingleDiode:
    def test_pulse_area(self):
        cfg = DetectorConfig(elec_noise_area_var=0.0)
        trace = single_diode_trace(cfg, 100, seed=7)
        areas = record_areas(trace, cfg.f_rep)
        assert np.allclose(areas, single_diode_pulse_area(cfg), rtol=1e-9)
        assert areas[0] == pytest.approx(6.77e-7, rel=0.01)

    def test_vanishing_power_leaves_noise_only(self):
        n = 2000
        cfg = DetectorConfig(p_lo=1e-30, elec_noise_area_var=1e-22)
        trace = single_diode_trace(cfg, n, seed=8)
        areas = record_areas(trace, cfg.f_rep)
        assert abs(np.mean(areas)) < 3 * math.sqrt(1e-22 / n)
        assert np.var(areas, ddof=1) == pytest.approx(1e-22, rel=0.1)


class TestTraceExport:
    def test_csv_format(self, tmp_path):
        cfg = DetectorConfig()
        trace = electronic_only_trace(cfg, 4, seed=9)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().split("\n")
        assert lines[0] == "time_s,voltage_v"
        assert lines[-1] == ""  # newline-terminated
        assert len(lines) == 2 + len(trace.samples)
        t0, v0 = lines[1].split(",")
        assert float(t0) == trace.t0
        assert float(v0) == trace.samples[0]

    def test_binary_round_trip(self, tmp_path):
        cfg = DetectorConfig()
        trace = electronic_only_trace(cfg, 10, seed=10)
        path = tmp_path / "trace.bin"
        write_trace_binary(trace, path)
        raw = path.read_bytes()
        assert raw[:8] == b"PQTRACE2"
        assert len(raw) == 32 + 8 * len(trace.samples)
        loaded = read_trace_binary(path)
        assert loaded.sample_rate == trace.sample_rate
        assert np.array_equal(loaded.samples, trace.samples)

    def test_binary_export_keeps_pulse_windows(self, tmp_path):
        # a trace read back from file segments and integrates exactly as the
        # trace in memory: its t0 puts every window on the same samples
        cfg = DetectorConfig()
        trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 40_000, seed=4)
        path = tmp_path / "trace.bin"
        write_trace_binary(trace, path)
        loaded = read_trace_binary(path)
        assert loaded.t0 == trace.t0 != 0.0
        areas = record_areas(loaded, cfg.f_rep)
        assert areas.size == 40_000
        assert np.array_equal(areas, record_areas(trace, cfg.f_rep))

    def test_binary_reads_version_one(self, tmp_path):
        samples = np.arange(6.0)
        path = tmp_path / "old.bin"
        path.write_bytes(b"PQTRACE1" + struct.pack("<dQ", 4e9, 6) + samples.tobytes())
        loaded = read_trace_binary(path)
        assert (loaded.sample_rate, loaded.t0) == (4e9, 0.0)
        assert np.array_equal(loaded.samples, samples)

    @pytest.mark.parametrize(
        "raw",
        [
            b"PQTRACE2" + struct.pack("<dQ", 4e9, 1),  # v2 header cut before t0
            b"PQTRACE2" + struct.pack("<dQd", 4e9, 3, 0.0) + b"\x00" * 16,  # truncated data
        ],
    )
    def test_binary_rejects_short_files(self, tmp_path, raw):
        path = tmp_path / "short.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError):
            read_trace_binary(path)

    @pytest.mark.parametrize("count", [2**61, 2**64 - 1])
    def test_binary_rejects_huge_count(self, tmp_path, count):
        # count * 8 would not fit an index-sized integer
        path = tmp_path / "huge.bin"
        path.write_bytes(b"PQTRACE2" + struct.pack("<dQd", 4e9, count, 0.0) + b"\x00" * 8)
        with pytest.raises(ValueError, match="truncated"):
            read_trace_binary(path)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -4e9, 0.0])
    def test_binary_rejects_bad_sample_rate(self, tmp_path, rate):
        path = tmp_path / "rate.bin"
        path.write_bytes(b"PQTRACE2" + struct.pack("<dQd", rate, 1, 0.0) + b"\x00" * 8)
        with pytest.raises(ValueError, match="sample rate"):
            read_trace_binary(path)

    @pytest.mark.parametrize("t0", [math.inf, -math.inf, math.nan])
    def test_binary_rejects_non_finite_t0(self, tmp_path, t0):
        path = tmp_path / "t0.bin"
        path.write_bytes(b"PQTRACE2" + struct.pack("<dQd", 4e9, 1, t0) + b"\x00" * 8)
        with pytest.raises(ValueError, match="start time"):
            read_trace_binary(path)

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_trace_binary(path)
