"""Segmentation, integration and calibration against moment oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsequad.detector import (
    DetectorConfig,
    DriftModel,
    TraceBuffer,
    area_scale,
)
from pulsequad.extraction import (
    CalibrationScale,
    _trapezoid_rows,
    QuadratureBatch,
    apply_calibration,
    calibrate_vacuum,
    pulse_areas,
    segment_pulses,
    write_batch_csv,
)
from pulsequad.states import StateModel

from reference import generate_trace, integrate_pulse


def make_trace(n_samples, fs=2e9, t0=-6e-9, fill=0.0):
    return TraceBuffer(sample_rate=fs, t0=t0, samples=np.full(n_samples, fill))


class TestSegmentPulses:
    def test_default_window_layout(self):
        trace = make_trace(2500)
        windows = segment_pulses(trace, 80e6, 0.0, 12.5e-9)
        assert windows.shape == (100, 2)
        assert np.all(windows[:, 1] - windows[:, 0] == 25)
        assert windows[0, 0] == 0
        assert windows[-1, 1] == 2500

    def test_short_trace_gives_no_windows(self):
        windows = segment_pulses(make_trace(10), 80e6, 0.0, 12.5e-9)
        assert windows.shape == (0, 2)

    def test_narrow_windows_leave_gaps(self):
        trace = make_trace(2500)
        windows = segment_pulses(trace, 80e6, 0.0, 10e-9)
        assert np.all(windows[:, 1] - windows[:, 0] == 20)
        gaps = windows[1:, 0] - windows[:-1, 1]
        assert np.all(gaps == 5)

    def test_window_longer_than_period_rejected(self):
        with pytest.raises(ValueError):
            segment_pulses(make_trace(2500), 80e6, 0.0, 13e-9)

    @pytest.mark.parametrize(
        "f_rep, t_first, tau_p",
        [
            (80e6, 0.0, math.nan),
            (math.nan, 0.0, 12.5e-9),
            (80e6, math.nan, 12.5e-9),
            (80e6, 1e300, 12.5e-9),
        ],
    )
    def test_non_finite_or_far_arguments_rejected(self, f_rep, t_first, tau_p):
        # a t_first 1e300 s away overflowed its sample index
        with pytest.raises(ValueError, match="f_rep|t_first"):
            segment_pulses(make_trace(2500), f_rep, t_first, tau_p)

    def test_windows_follow_t_first(self):
        # a sub-period shift moves every window; the last one no longer fits
        trace = make_trace(2500)
        shifted = segment_pulses(trace, 80e6, 2.5e-9, 12.5e-9)
        assert shifted[0, 0] == 5
        assert shifted.shape == (99, 2)


class TestIntegratePulse:
    def test_constant_window(self):
        # 25 samples at 2 GS/s span 24 intervals of 0.5 ns
        assert integrate_pulse(np.ones(25), 2e9) == pytest.approx(1.2e-8, rel=1e-12)

    def test_zero_window(self):
        assert integrate_pulse(np.zeros(25), 2e9) == 0.0

    def test_gaussian_analytic_area(self):
        fs = 2e9
        sigma = 2e-9
        t = (np.arange(101) - 50) / fs
        window = np.exp(-0.5 * (t / sigma) ** 2)
        analytic = sigma * math.sqrt(2 * math.pi)
        assert integrate_pulse(window, fs) == pytest.approx(analytic, rel=1e-4)

    def test_window_too_short(self):
        with pytest.raises(ValueError):
            integrate_pulse(np.array([1.0]), 2e9)

    def test_pulse_areas_matches_single_integration(self):
        rng = np.random.default_rng(0)
        trace = TraceBuffer(sample_rate=2e9, t0=0.0, samples=rng.normal(size=250))
        windows = np.array([[0, 25], [25, 50], [100, 125]])
        batch = pulse_areas(trace, windows)
        for (lo, hi), area in zip(windows, batch):
            assert area == integrate_pulse(trace.samples[lo:hi], 2e9)


def gathered_areas(trace, windows):
    """Areas of an index gather of every window, through the shared area
    kernel: the layout ``pulse_areas`` used for all windows before the
    strided view."""
    windows = np.asarray(windows)
    n_w = int(windows[0, 1] - windows[0, 0])
    rows = trace.samples[windows[:, 0][:, None] + np.arange(n_w)]
    return _trapezoid_rows(rows, trace.sample_rate)


class TestPulseAreasLayouts:
    @pytest.fixture(scope="class")
    def trace(self):
        cfg = DetectorConfig()
        return generate_trace(cfg, StateModel.vacuum(), [0.0], 4000, seed=3)[0]

    @pytest.mark.parametrize(
        "f_rep, tau_p, t_first",
        [
            (80e6, 12.5e-9, 0.0),  # default: contiguous windows, step == length
            (80e6, 10e-9, 1.5e-9),  # narrower windows, step > length
            (76e6, 12e-9, 0.0),  # 26.3 samples per period: uneven starts
        ],
    )
    def test_matches_gather_bit_for_bit(self, trace, f_rep, tau_p, t_first):
        windows = segment_pulses(trace, f_rep, t_first, tau_p)
        assert len(windows) > 3000
        assert np.array_equal(pulse_areas(trace, windows), gathered_areas(trace, windows))

    @pytest.mark.parametrize(
        "windows",
        [
            [[40, 65]],  # one window
            [[0, 25], [30, 55], [100, 125], [101, 126]],  # uneven
            [[0, 25], [10, 35], [20, 45]],  # evenly spaced but overlapping
            [[90, 115], [60, 85], [30, 55]],  # descending
            [[5, 30], [5, 30]],  # repeated
        ],
    )
    def test_explicit_layouts_match_gather(self, trace, windows):
        assert np.array_equal(pulse_areas(trace, windows), gathered_areas(trace, windows))

    @pytest.mark.parametrize("n_w", [2, 3, 25, 26, 101])
    def test_kernel_rows_independent_of_block_size(self, n_w):
        rows = np.random.default_rng(n_w).normal(size=(1001, n_w))
        whole = _trapezoid_rows(rows, 2e9)
        lone = [_trapezoid_rows(rows[i : i + 1], 2e9)[0] for i in range(len(rows))]
        assert np.array_equal(whole, lone)
        odd = [_trapezoid_rows(rows[a : a + 7], 2e9) for a in range(0, len(rows), 7)]
        assert np.array_equal(whole, np.concatenate(odd))
        # a strided, unaligned view of the same rows
        padded = np.empty((len(rows), n_w + 3))
        padded[:, 1 : n_w + 1] = rows
        assert np.array_equal(whole, _trapezoid_rows(padded[:, 1 : n_w + 1], 2e9))

    @pytest.mark.parametrize(
        "windows",
        [
            [[-2, 3]],  # starts before the trace
            [[8, 12]],  # runs past its end
            [[0, 4], [4, 8], [8, 12]],  # evenly spaced, the last one overruns
            [[3, 4]],  # one sample
            [[3, 3]],  # empty
            [[5, 3]],  # reversed
        ],
    )
    def test_bad_windows_rejected(self, windows):
        trace = TraceBuffer(sample_rate=1.0, t0=0.0, samples=np.arange(10.0))
        with pytest.raises(ValueError):
            pulse_areas(trace, np.array(windows))


class TestCalibration:
    def test_moment_estimators_converge(self):
        rng = np.random.default_rng(1)
        n = 100_000
        a, s = 3.2e-10, 1.7e-10
        areas = a + s * rng.normal(0.0, math.sqrt(0.5), n)
        cal = calibrate_vacuum(areas)
        assert abs(cal.offset - a) < 3 * s * math.sqrt(0.5 / n)
        assert abs(cal.scale - s) < 3 * s * math.sqrt(0.5 / n)
        assert cal.n_cal == n

    def test_constant_areas_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            calibrate_vacuum(np.full(100, 2e-10))

    def test_too_few_areas_rejected(self):
        with pytest.raises(ValueError):
            calibrate_vacuum(np.array([1e-10]))

    def test_simulation_scale_matches_configured(self):
        cfg = DetectorConfig()
        trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 40_000, seed=2)
        windows = segment_pulses(trace, cfg.f_rep, 0.0, 1.0 / cfg.f_rep)
        cal = calibrate_vacuum(pulse_areas(trace, windows))
        # measured scale includes electronic noise, so it sits a bit above
        assert cal.scale == pytest.approx(area_scale(cfg), rel=0.02)

    def test_apply_baseline_and_unit_step(self):
        cal = CalibrationScale(scale=2e-10, offset=5e-11, n_cal=10)
        batch = apply_calibration(np.array([5e-11, 2.5e-10]), cal)
        assert batch.values[0] == 0.0
        assert batch.values[1] == pytest.approx(1.0, rel=1e-12)

    def test_end_to_end_coherent_mean(self):
        cfg = DetectorConfig(drift=DriftModel(linear_rate=0.0))
        n = 40_000
        cal_trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], n, seed=3)
        windows = segment_pulses(cal_trace, cfg.f_rep, 0.0, 1.0 / cfg.f_rep)
        cal = calibrate_vacuum(pulse_areas(cal_trace, windows))
        sig_trace, _ = generate_trace(cfg, StateModel.coherent(0.86), [0.0], n, seed=4)
        batch = apply_calibration(pulse_areas(sig_trace, windows), cal)
        expected = math.sqrt(2) * 0.86
        se = math.sqrt(0.5 / n) * math.sqrt(2)  # calibration and signal noise
        assert abs(batch.values.mean() - expected) < 3 * se + 0.01 * expected

    def test_round_trip_with_true_calibration(self):
        cfg = DetectorConfig(
            elec_noise_area_var=0.0,
            cmrr_db=math.inf,
            drift=DriftModel(linear_rate=0.0),
        )
        trace, truth = generate_trace(cfg, StateModel.coherent(0.4), [0.7], 2000, seed=5)
        windows = segment_pulses(trace, cfg.f_rep, 0.0, 1.0 / cfg.f_rep)
        cal = CalibrationScale(scale=area_scale(cfg), offset=0.0, n_cal=2)
        batch = apply_calibration(pulse_areas(trace, windows), cal)
        assert np.max(np.abs(batch.values - truth.quadratures)) < 1e-4

    def test_calibration_idempotence(self):
        rng = np.random.default_rng(6)
        areas = 1e-10 + 2e-10 * rng.normal(0, math.sqrt(0.5), 10_000)
        once = apply_calibration(areas, calibrate_vacuum(areas))
        cal2 = calibrate_vacuum(once.values)
        assert abs(cal2.offset) < 1e-12
        assert cal2.scale == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    def test_affine_equivariance(self, c):
        rng = np.random.default_rng(7)
        areas = 2e-10 + 1e-10 * rng.normal(0, math.sqrt(0.5), 500)
        cal = calibrate_vacuum(areas)
        cal_scaled = calibrate_vacuum(c * areas)
        assert cal_scaled.scale == pytest.approx(c * cal.scale, rel=1e-9)
        assert cal_scaled.offset == pytest.approx(c * cal.offset, rel=1e-9)
        out = apply_calibration(areas, cal)
        out_scaled = apply_calibration(c * areas, cal_scaled)
        assert np.allclose(out.values, out_scaled.values, atol=1e-9)


class TestQuadratureBatch:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuadratureBatch(values=np.zeros(3), phases=np.zeros(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            QuadratureBatch(values=np.array([0.0, np.nan]))

    def test_csv_format(self, tmp_path):
        batch = QuadratureBatch(
            values=np.array([0.5, -1.0]),
            phases=np.array([0.0, 0.1]),
            timestamps=np.array([0.0, 1.25e-8]),
        )
        path = tmp_path / "batch.csv"
        write_batch_csv(batch, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "timestamp_s,phase_rad,quadrature"
        assert lines[1] == "0.0,0.0,0.5"
        assert lines[2] == "1.25e-08,0.1,-1.0"

    def test_csv_empty_phase_column(self, tmp_path):
        batch = QuadratureBatch(values=np.array([0.25]))
        path = tmp_path / "batch.csv"
        write_batch_csv(batch, path)
        assert path.read_text().splitlines()[1] == ",,0.25"
