"""Figure-of-merit operations against closed-form and statistical oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsequad.characterization import (
    SPECTRUM_BLOCK_SAMPLES,
    AllanCurve,
    DetectorReport,
    SpectrumEstimate,
    allan_deviation,
    averaged_allan,
    bandwidth_minus3db,
    cmrr_db,
    correlation_coefficient,
    find_stability_interval,
    noise_spectrum,
    overall_efficiency,
    snr_and_efficiency,
    time_bandwidth_product,
    variance_vs_power,
)
from pulsequad.cli import (
    ALLAN_RECORDS,
    SPECTRUM_PULSES,
    _allan_block_pulses,
    _allan_record,
    _allan_tau_grid,
    _child_seed,
    _thinned_vacuum_blocks,
)
from pulsequad.detector import (
    DetectorConfig,
    DriftModel,
    TraceBuffer,
    _signal_areas,
    _trace_blocks,
    single_diode_pulse_area,
)
from pulsequad.extraction import QuadratureBatch
from pulsequad.states import StateModel

from reference import _assemble_trace, generate_trace, single_diode_trace

QUIET = dict(
    elec_noise_area_var=0.0,
    cmrr_db=math.inf,
    drift=DriftModel(linear_rate=0.0, random_walk_sigma=0.0),
)


class TestVarianceVsPower:
    def test_exact_line(self):
        p = np.array([1e-3, 2e-3, 3e-3, 4e-3])
        curve = variance_vs_power(np.column_stack([p, 3e-18 * p + 2.5e-22]))
        assert curve.fit_slope == pytest.approx(3e-18, rel=1e-9)
        assert curve.fit_intercept == pytest.approx(2.5e-22, rel=1e-6)
        assert curve.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_too_few_powers(self):
        with pytest.raises(ValueError):
            variance_vs_power([(1e-3, 1e-20), (2e-3, 2e-20)])

    @pytest.mark.parametrize(
        "points",
        [
            [(2e-3, 2e-20), (1e-3, 1e-20), (2e-3, 3e-20), (1e-3, 2e-20)],  # two distinct
            np.zeros((0, 2)),
            [1e-3, 2e-3, 3e-3],  # not (power, variance) rows
        ],
    )
    def test_too_few_distinct_powers(self, points):
        with pytest.raises(ValueError):
            variance_vs_power(points)

    def test_repeated_powers_count_once(self):
        p = np.array([3e-3, 1e-3, 3e-3, 2e-3])
        curve = variance_vs_power(np.column_stack([p, 2e-18 * p]))
        assert curve.fit_slope == pytest.approx(2e-18, rel=1e-9)

    def test_simulated_sweep_is_linear(self):
        det = DetectorConfig()
        points = []
        for i, frac in enumerate((0.2, 0.4, 0.6, 0.8, 1.0)):
            cfg = det.with_power(det.p_lo * frac)
            trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 8000, seed=40 + i)
            from pulsequad.extraction import pulse_areas, segment_pulses

            areas = pulse_areas(trace, segment_pulses(trace, cfg.f_rep, 0.0, 1 / cfg.f_rep))
            points.append((cfg.p_lo, np.var(areas, ddof=1)))
        curve = variance_vs_power(points)
        assert curve.r_squared > 0.99
        assert curve.fit_intercept == pytest.approx(det.elec_noise_area_var, rel=0.25)


class TestSnrArithmetic:
    def test_published_operating_point(self):
        snr, eta_en = snr_and_efficiency(10**1.45, 1.0)
        assert snr == pytest.approx(14.5, abs=1e-12)
        assert eta_en == pytest.approx(0.9645, abs=5e-5)

    def test_vanishing_electronic_noise(self):
        _, eta_en = snr_and_efficiency(1.0, 1e-12)
        assert eta_en == pytest.approx(1.0, abs=1e-9)

    def test_equal_split(self):
        snr, eta_en = snr_and_efficiency(2.0, 1.0)
        assert snr == pytest.approx(3.0103, abs=1e-4)
        assert eta_en == pytest.approx(0.5, abs=1e-12)

    def test_electronics_dominated_split_as_measured(self):
        # sampling can put the total variance at or below the electronic one
        assert snr_and_efficiency(1.0, 1.0) == (0.0, 0.0)
        snr, eta_en = snr_and_efficiency(1.0, 2.0)
        assert snr == pytest.approx(-3.0103, abs=1e-4)
        assert eta_en == 0.0

    def test_invalid_inputs(self):
        for args in [(1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                snr_and_efficiency(*args)

    def test_overall_efficiency(self):
        assert overall_efficiency(0.9645, 0.90) == pytest.approx(0.868, abs=5e-4)
        assert overall_efficiency(1.0, 0.73) == 0.73
        assert overall_efficiency(0.0, 0.73) == 0.0
        with pytest.raises(ValueError):
            overall_efficiency(1.2, 0.5)


class TestCorrelationCoefficient:
    def test_zero_lag_is_exactly_one(self):
        batch = QuadratureBatch(values=np.random.default_rng(0).normal(size=500))
        cc, std = correlation_coefficient(batch, 0)
        assert cc == 1.0
        assert std == pytest.approx(1 / math.sqrt(500))

    def test_independent_samples_are_uncorrelated(self):
        n = 2000
        batch = QuadratureBatch(
            values=np.random.default_rng(1).normal(0, math.sqrt(0.5), n)
        )
        cc, std = correlation_coefficient(batch, 1)
        assert std == pytest.approx(1 / math.sqrt(n - 1))
        assert abs(cc) < 3 * std

    def test_perfectly_correlated_lag(self):
        # a linear ramp is invariant up to an affine shift at any lag
        batch = QuadratureBatch(values=np.arange(100, dtype=float))
        assert correlation_coefficient(batch, 1)[0] == pytest.approx(1.0, abs=1e-12)

    def test_lag_out_of_range(self):
        batch = QuadratureBatch(values=np.zeros(10) + np.arange(10))
        with pytest.raises(ValueError):
            correlation_coefficient(batch, 10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), m=st.integers(0, 5))
    def test_bounds(self, seed, m):
        vals = np.random.default_rng(seed).normal(size=50)
        cc, _ = correlation_coefficient(QuadratureBatch(values=vals), m)
        assert -1.0 <= cc <= 1.0


class TestAllanDeviation:
    def test_white_noise_formula(self):
        f = 1e4
        n = 1_000_000
        rng = np.random.default_rng(2)
        batch = QuadratureBatch(values=rng.normal(0, math.sqrt(0.5), n))
        tau = 0.1
        curve = allan_deviation(batch, f, [tau])
        expected = math.sqrt(0.5 / (f * tau))
        assert curve.deviations[0] == pytest.approx(expected, rel=0.07)
        assert curve.n_pairs[0] == n // int(f * tau) - 1

    def test_pure_ramp_closed_form(self):
        f = 1000.0
        d = 3.7e-4
        n = 100_000
        batch = QuadratureBatch(values=d * np.arange(n) / f)
        taus = np.array([0.01, 0.1, 1.0, 10.0])
        curve = allan_deviation(batch, f, taus)
        expected = d * taus / math.sqrt(2)
        assert np.max(np.abs(curve.deviations / expected - 1)) < 1e-12

    def test_constant_series_is_zero(self):
        batch = QuadratureBatch(values=np.full(1000, 0.25))
        curve = allan_deviation(batch, 100.0, [0.1, 1.0])
        assert np.all(curve.deviations == 0.0)

    def test_white_noise_slope_two_decades(self):
        rng = np.random.default_rng(3)
        batch = QuadratureBatch(values=rng.normal(0, 1.0, 10_000_000))
        taus = np.logspace(1, 3, 21)  # samples per block: 10 to 1000 at f_rep=1
        curve = allan_deviation(batch, 1.0, taus)
        slope = np.polyfit(np.log10(curve.taus), np.log10(curve.deviations), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_tau_too_large(self):
        batch = QuadratureBatch(values=np.zeros(100) + np.arange(100.0))
        with pytest.raises(ValueError):
            allan_deviation(batch, 1.0, [60.0])

    @pytest.mark.parametrize("f_rep, tau", [(1.0, math.nan), (math.inf, 1.0), (1e300, 1e10)])
    def test_non_finite_block_length(self, f_rep, tau):
        # an overflowing product of two finite values included
        batch = QuadratureBatch(values=np.arange(100.0))
        with pytest.raises(ValueError, match="finite"):
            allan_deviation(batch, f_rep, [tau])

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(4)
        vals = rng.normal(0, 1, 4000)
        taus = [10.0, 40.0, 100.0]
        base = allan_deviation(QuadratureBatch(values=vals), 1.0, taus)
        scaled = allan_deviation(QuadratureBatch(values=c * vals), 1.0, taus)
        assert np.allclose(scaled.deviations, c * base.deviations, rtol=1e-9)


def blockwise_allan(values, f_rep, taus):
    """Allan deviation by averaging every block on its own for each tau: the
    ``reshape(...).mean(axis=1)`` form the running sum replaced."""
    devs, pairs = [], []
    for tau in taus:
        m = int(round(f_rep * tau))
        n_whole = values.size // m
        diffs = np.diff(values[: n_whole * m].reshape(n_whole, m).mean(axis=1))
        devs.append(math.sqrt(0.5 * np.mean(diffs**2)))
        pairs.append(diffs.size)
    return np.array(devs), np.array(pairs)


class TestAllanRunningSum:
    @pytest.mark.parametrize("record", range(10))
    def test_matches_blockwise_on_thinned_vacuum_records(self, record):
        batch = _thinned_vacuum_blocks(DetectorConfig(), _child_seed(0, 50 + record))
        taus = _allan_tau_grid(1e-3)
        curve = allan_deviation(batch, 1e3, taus)
        devs, pairs = blockwise_allan(batch.values, 1e3, taus)
        assert np.array_equal(curve.n_pairs, pairs)
        assert np.max(np.abs(curve.deviations / devs - 1)) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_blockwise_on_random_series(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20_000))
        values = rng.uniform(-3.0, 3.0) + rng.normal(0.0, rng.uniform(0.1, 10.0), n)
        blocks = np.unique(rng.integers(1, n // 2 + 1, size=12))
        curve = allan_deviation(QuadratureBatch(values=values), 1.0, blocks.astype(float))
        devs, pairs = blockwise_allan(values, 1.0, blocks)
        assert np.array_equal(curve.n_pairs, pairs)
        assert np.max(np.abs(curve.deviations / devs - 1)) <= 1e-12

    @pytest.mark.parametrize("value", [0.1, -7.3, 1e6 + 0.1, 2.0**-30])
    def test_any_constant_series_is_zero(self, value):
        batch = QuadratureBatch(values=np.full(80_000, value))
        curve = allan_deviation(batch, 1e3, _allan_tau_grid(1e-3))
        assert np.all(curve.deviations == 0.0)


@pytest.mark.parametrize("f_rep", [1400.0, 1e3, 80e6])
def test_allan_of_pure_drift_at_its_block_length(f_rep):
    # a block is 1 ms rounded to whole pulses: 1 pulse, 1/1400 s, at 1400 Hz
    det = DetectorConfig(
        f_rep=f_rep,
        sample_rate=25 * f_rep,
        fwhm_pulse=0.44 / f_rep,
        drift=DriftModel(linear_rate=1.0),
    )
    curve = averaged_allan(_allan_record(det, 0, r) for r in range(ALLAN_RECORDS))
    k = int(np.argmin(np.abs(curve.taus - 1.0)))
    assert curve.deviations[k] == pytest.approx(curve.taus[k] / math.sqrt(2), rel=0.01)


def test_random_walk_allan_at_one_block_follows_the_exact_law():
    # at tau = one block of n pulses a walk of per-pulse step sigma has Allan
    # variance sigma^2 (2n^2 + 1) / (6n); a block's end value gives 1.5 times that
    sigma = 1e-3
    det = DetectorConfig(drift=DriftModel(linear_rate=0.0, random_walk_sigma=sigma))
    n = _allan_block_pulses(det)
    avar = np.mean([_allan_record(det, 0, r).deviations[0] ** 2 for r in range(20)])
    white = 0.5 / n  # shot noise: each block mean has variance 0.5 / n
    assert avar - white == pytest.approx(sigma**2 * (2 * n * n + 1) / (6 * n), rel=0.05)


class TestStabilityInterval:
    def test_minimum_location(self):
        curve = AllanCurve(
            taus=np.array([0.1, 1.0, 2.0, 4.0]),
            deviations=np.array([3.0, 1.0, 0.5, 2.0]),
            n_pairs=np.array([9, 9, 9, 9]),
        )
        assert find_stability_interval(curve) == 2.0

    def test_monotone_decreasing_picks_largest(self):
        curve = AllanCurve(
            taus=np.array([1.0, 2.0, 4.0]),
            deviations=np.array([3.0, 2.0, 1.0]),
            n_pairs=np.array([5, 5, 5]),
        )
        assert find_stability_interval(curve) == 4.0

    def test_tie_breaks_toward_larger_tau(self):
        curve = AllanCurve(
            taus=np.array([1.0, 2.0, 4.0]),
            deviations=np.array([2.0, 1.0, 1.0]),
            n_pairs=np.array([5, 5, 5]),
        )
        assert find_stability_interval(curve) == 4.0

    def test_needs_three_points(self):
        curve = AllanCurve(
            taus=np.array([1.0, 2.0]),
            deviations=np.array([1.0, 2.0]),
            n_pairs=np.array([5, 5]),
        )
        with pytest.raises(ValueError):
            find_stability_interval(curve)

    @pytest.mark.parametrize(
        "taus, deviations",
        [
            ([1.0, 2.0, math.inf], [3.0, 2.0, 1.0]),
            ([math.nan], [1.0]),
            ([1.0, 2.0], [1.0, math.inf]),
        ],
    )
    def test_curve_must_be_finite(self, taus, deviations):
        with pytest.raises(ValueError, match="taus|deviations"):
            AllanCurve(taus=taus, deviations=deviations, n_pairs=np.ones(len(taus), dtype=int))


class TestAveragedAllan:
    def make(self, devs):
        return AllanCurve(
            taus=np.array([1.0, 2.0]),
            deviations=np.asarray(devs, dtype=float),
            n_pairs=np.array([10, 4]),
        )

    def test_identical_curves(self):
        avg = averaged_allan([self.make([1.0, 2.0])] * 10)
        assert np.array_equal(avg.deviations, [1.0, 2.0])
        assert np.array_equal(avg.deviation_std, [0.0, 0.0])
        assert np.array_equal(avg.n_pairs, [100, 40])

    def test_one_curve_has_zero_error(self):
        avg = averaged_allan([self.make([1.0, 2.0])])
        assert np.array_equal(avg.deviations, [1.0, 2.0])
        assert np.array_equal(avg.deviation_std, [0.0, 0.0])

    def test_two_point_arithmetic(self):
        avg = averaged_allan([self.make([1.0, 1.0]), self.make([3.0, 1.0])])
        assert avg.deviations[0] == 2.0
        assert avg.deviation_std[0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch(self):
        other = AllanCurve(
            taus=np.array([1.0, 3.0]),
            deviations=np.array([1.0, 1.0]),
            n_pairs=np.array([5, 5]),
        )
        with pytest.raises(ValueError):
            averaged_allan([self.make([1.0, 1.0]), other])


class TestNoiseSpectrum:
    def test_sinusoid_power_in_one_bin(self):
        fs = 2e9
        seg = 1024
        k = 32
        amp = 0.3
        t = np.arange(seg * 16) / fs
        trace = TraceBuffer(
            sample_rate=fs, t0=0.0, samples=amp * np.sin(2 * np.pi * (k * fs / seg) * t)
        )
        spec = noise_spectrum([trace.samples], seg, trace.sample_rate)
        assert spec.psd[k] * spec.resolution_hz == pytest.approx(amp**2 / 2, rel=0.01)
        others = np.delete(spec.psd, k)
        assert np.max(others) < 1e-6 * spec.psd[k]

    def test_white_noise_level_and_scatter(self):
        fs = 2e9
        seg, n_seg = 512, 64
        sigma = 0.05
        rng = np.random.default_rng(5)
        trace = TraceBuffer(
            sample_rate=fs, t0=0.0, samples=rng.normal(0, sigma, seg * n_seg)
        )
        spec = noise_spectrum([trace.samples], seg, trace.sample_rate)
        inner = spec.psd[1:-1]
        assert np.mean(inner) == pytest.approx(2 * sigma**2 / fs, rel=0.05)
        scatter = np.std(inner) / np.mean(inner)
        assert 0.7 / math.sqrt(n_seg) < scatter < 1.5 / math.sqrt(n_seg)

    @pytest.mark.parametrize("segment_len", [128, 1024, 2**15])
    def test_equals_whole_array_periodogram(self, segment_len):
        # more than one transform block, and samples left over past the
        # last whole segment
        n_seg = 2 * SPECTRUM_BLOCK_SAMPLES // segment_len + 3
        rng = np.random.default_rng(segment_len)
        samples = 0.2 + rng.normal(size=n_seg * segment_len + segment_len // 2 + 1)
        trace = TraceBuffer(sample_rate=2e9, t0=0.0, samples=samples)
        x = samples[: n_seg * segment_len] - samples.mean()
        spec = np.fft.rfft(x.reshape(n_seg, segment_len), axis=1)
        psd = np.mean(np.abs(spec) ** 2, axis=0) / (2e9 * segment_len)
        psd[1:-1] *= 2.0
        spectrum = noise_spectrum([trace.samples], segment_len, trace.sample_rate)
        assert np.array_equal(spectrum.psd, psd)

    def test_parseval(self):
        rng = np.random.default_rng(6)
        samples = np.cumsum(rng.normal(size=4096))  # correlated, broadband
        trace = TraceBuffer(sample_rate=1e6, t0=0.0, samples=samples)
        spec = noise_spectrum([trace.samples], 1024, trace.sample_rate)
        integral = np.sum(spec.psd) * spec.resolution_hz
        assert integral == pytest.approx(np.var(samples), rel=0.05)

    def test_shot_noise_follows_gaussian_pulse_envelope(self):
        cfg = DetectorConfig(pulse_shape="gaussian", **QUIET)
        trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 40_960, seed=7)
        spec = noise_spectrum([trace.samples], 2048, trace.sample_rate)
        sigma = cfg.fwhm_pulse / (2 * math.sqrt(2 * math.log(2)))
        envelope = np.exp(-4 * np.pi**2 * sigma**2 * spec.freqs**2)
        sel = np.flatnonzero((spec.freqs > 0) & (envelope > 0.1))
        # average away per-bin periodogram scatter in chunks of 16 bins
        n_chunk = sel.size // 16 * 16
        meas = spec.psd[sel[:n_chunk]].reshape(-1, 16).mean(axis=1)
        ref = envelope[sel[:n_chunk]].reshape(-1, 16).mean(axis=1)
        ratio = (meas / meas[0]) / (ref / ref[0])
        assert np.max(np.abs(ratio - 1)) < 0.05

    def test_segment_length_must_be_power_of_two(self):
        trace = TraceBuffer(sample_rate=1e6, t0=0.0, samples=np.zeros(1000))
        with pytest.raises(ValueError):
            noise_spectrum([trace.samples], 300, trace.sample_rate)

    def test_trace_shorter_than_segment(self):
        trace = TraceBuffer(sample_rate=1e6, t0=0.0, samples=np.zeros(100))
        with pytest.raises(ValueError):
            noise_spectrum([trace.samples], 128, trace.sample_rate)


class TestChunkedSpectrum:
    @pytest.mark.parametrize("segment_len", [2**10, 2**15])
    @pytest.mark.parametrize("record", ["vacuum", "dark", "single diode"])
    def test_pulse_blocks_match_assembled_trace(self, segment_len, record):
        # 2,621-pulse blocks of 65,525 samples: 2**15-sample segments span blocks
        det = DetectorConfig()
        n = SPECTRUM_PULSES
        areas = {
            "vacuum": lambda: _signal_areas(det, StateModel.vacuum(), [0.0], n, 5),
            "dark": lambda: np.zeros(n),
            "single diode": lambda: np.full(n, single_diode_pulse_area(det)),
        }[record]()
        trace = _assemble_trace(det, areas, 5)
        whole = noise_spectrum([trace.samples], segment_len, trace.sample_rate)
        blocks = _trace_blocks(det, areas, 5)
        streamed = noise_spectrum(blocks, segment_len, sample_rate=det.sample_rate)
        assert np.array_equal(streamed.freqs, whole.freqs)
        assert streamed.resolution_hz == whole.resolution_hz
        assert np.max(np.abs(streamed.psd / whole.psd - 1)) <= 1e-12

    def test_any_chunking_matches_whole_trace(self):
        rng = np.random.default_rng(8)
        samples = 3.0 + rng.normal(size=40 * 256 + 100)
        cuts = np.sort(np.r_[0, 0, rng.integers(0, samples.size, 30)])
        chunks = np.split(samples, cuts)  # empty (the first two) and sub-segment chunks too
        whole = noise_spectrum([samples], 256, 1e6)
        streamed = noise_spectrum(chunks, 256, sample_rate=1e6)
        assert np.max(np.abs(streamed.psd / whole.psd - 1)) <= 1e-12

    def test_non_finite_input(self):
        # inf - inf is formed by neither the chunk sum nor the transform
        with pytest.raises(ValueError, match="samples"):
            noise_spectrum([np.zeros(128), np.r_[np.inf, -np.inf]], 128, sample_rate=1e6)
        for rate in (-1e6, math.inf):
            with pytest.raises(ValueError, match="sample_rate"):
                noise_spectrum([np.zeros(256)], 128, sample_rate=rate)

    def test_shorter_than_one_segment(self):
        with pytest.raises(ValueError, match="shorter"):
            noise_spectrum([np.zeros(100), np.zeros(27)], 128, sample_rate=1e6)
        with pytest.raises(ValueError, match="shorter"):
            noise_spectrum([], 128, sample_rate=1e6)


class TestBandwidth:
    def flat(self, level, freqs):
        return SpectrumEstimate(
            freqs=freqs, psd=np.full(freqs.size, level), resolution_hz=freqs[1]
        )

    def test_flat_spectrum_has_no_crossing(self):
        freqs = np.linspace(0, 1e9, 513)
        assert bandwidth_minus3db(self.flat(1.0, freqs), self.flat(0.0, freqs)) is None

    def test_known_rolloff(self):
        freqs = np.linspace(0, 1e9, 4097)
        f3 = 80e6
        psd = 1.0 / (1.0 + (freqs / f3) ** 2)  # single pole: -3 dB at f3
        shot = SpectrumEstimate(freqs=freqs, psd=psd, resolution_hz=freqs[1])
        bw = bandwidth_minus3db(shot, self.flat(0.0, freqs))
        assert bw == pytest.approx(f3, rel=0.01)

    def test_gaussian_pulse_half_power_point(self):
        # analytic oracle: |S(f)|^2 of a Gaussian pulse of FWHM T halves at
        # 0.3126 / T, i.e. 56.8 MHz for 5.5 ns
        cfg = DetectorConfig(pulse_shape="gaussian", **QUIET)
        trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 40_960, seed=8)
        zero = electronic_zero(cfg, trace)
        bw = bandwidth_minus3db(noise_spectrum([trace.samples], 1024, trace.sample_rate), zero)
        assert bw == pytest.approx(0.3126 / cfg.fwhm_pulse, rel=0.08)

    def test_rectangular_pulse_half_power_point(self):
        # analytic oracle: sinc^2 halves at 0.4423 / T -> 80.4 MHz for 5.5 ns
        cfg = DetectorConfig(**QUIET)
        trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 40_960, seed=9)
        zero = electronic_zero(cfg, trace)
        bw = bandwidth_minus3db(noise_spectrum([trace.samples], 1024, trace.sample_rate), zero)
        assert bw == pytest.approx(0.4423 / cfg.fwhm_pulse, rel=0.08)

    def test_halving_fwhm_doubles_bandwidth(self):
        widths = {}
        for fwhm in (5.5e-9, 2.75e-9):
            cfg = DetectorConfig(fwhm_pulse=fwhm, **QUIET)
            trace, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], 40_960, seed=10)
            zero = electronic_zero(cfg, trace)
            spec = noise_spectrum([trace.samples], 1024, trace.sample_rate)
            widths[fwhm] = bandwidth_minus3db(spec, zero)
        assert widths[2.75e-9] == pytest.approx(2 * widths[5.5e-9], rel=0.15)


def electronic_zero(cfg, trace):
    spec = noise_spectrum([trace.samples], 1024, trace.sample_rate)
    return SpectrumEstimate(
        freqs=spec.freqs, psd=np.zeros_like(spec.psd), resolution_hz=spec.resolution_hz
    )


class TestCmrr:
    def test_constructed_line_ratio(self):
        freqs = np.linspace(0, 1e9, 1025)
        k = int(np.argmin(np.abs(freqs - 80e6)))
        balanced = np.full(freqs.size, 1e-15)
        blocked = balanced.copy()
        blocked[k] = balanced[k] * 10**6.3
        bal = SpectrumEstimate(freqs=freqs, psd=balanced, resolution_hz=freqs[1])
        blk = SpectrumEstimate(freqs=freqs, psd=blocked, resolution_hz=freqs[1])
        assert cmrr_db(bal, blk, 80e6) == pytest.approx(63.0, abs=1e-9)

    def test_identical_spectra(self):
        freqs = np.linspace(0, 1e9, 257)
        spec = SpectrumEstimate(
            freqs=freqs, psd=np.ones(freqs.size), resolution_hz=freqs[1]
        )
        assert cmrr_db(spec, spec, 80e6) == 0.0

    def test_f_rep_outside_grid(self):
        freqs = np.linspace(0, 1e6, 257)
        spec = SpectrumEstimate(
            freqs=freqs, psd=np.ones(freqs.size), resolution_hz=freqs[1]
        )
        with pytest.raises(ValueError):
            cmrr_db(spec, spec, 80e6)
        with pytest.raises(ValueError):
            cmrr_db(spec, spec, math.nan)

    @pytest.mark.parametrize("line", [0.0, math.inf, math.nan])
    def test_blocked_line_must_be_positive_and_finite(self, line):
        freqs = np.linspace(0, 1e9, 257)
        balanced = SpectrumEstimate(freqs=freqs, psd=np.ones(freqs.size), resolution_hz=freqs[1])
        blocked = SpectrumEstimate(
            freqs=freqs, psd=np.full(freqs.size, line), resolution_hz=freqs[1]
        )
        with pytest.raises(ValueError, match="blocked"):
            cmrr_db(balanced, blocked, 80e6)

    def test_round_trip_through_simulation(self):
        cfg = DetectorConfig(drift=DriftModel(linear_rate=0.0))
        n = 20_972
        balanced, _ = generate_trace(cfg, StateModel.vacuum(), [0.0], n, seed=11)
        blocked = single_diode_trace(cfg, n, seed=12)
        bal = noise_spectrum([balanced.samples], 2**15, balanced.sample_rate)
        blk = noise_spectrum([blocked.samples], 2**15, blocked.sample_rate)
        assert cmrr_db(bal, blk, cfg.f_rep) == pytest.approx(63.0, abs=1.0)


class TestReport:
    def make_report(self, **overrides):
        kwargs = dict(
            snr_db=14.5,
            eta_en=0.9645,
            eta_pd=0.90,
            eta_bhd=0.868,
            bandwidth_hz=80e6,
            cc=((0, 1.0, 0.0), (1, -0.019, 0.02)),
            cmrr_db=63.0,
            stability_interval_s=2.0,
            tbp=1.6e8,
        )
        kwargs.update(overrides)
        return DetectorReport(**kwargs)

    def test_tbp_consistency_enforced(self):
        with pytest.raises(ValueError):
            self.make_report(tbp=1.0)
        with pytest.raises(ValueError):
            self.make_report(bandwidth_hz=None)
        assert self.make_report(bandwidth_hz=None, tbp=None).to_json_dict()["tbp"] is None

    def test_eta_range_enforced(self):
        with pytest.raises(ValueError):
            self.make_report(eta_en=1.5)

    def test_json_keys(self):
        doc = self.make_report().to_json_dict()
        assert list(doc) == [
            "snr_db",
            "eta_en",
            "eta_pd",
            "eta_bhd",
            "bandwidth_hz",
            "cc",
            "cmrr_db",
            "stability_interval_s",
            "tbp",
        ]
        assert doc["cc"][1] == {"m": 1, "cc": -0.019, "std": 0.02}

    def test_time_bandwidth_product(self):
        assert time_bandwidth_product(80e6, 2.0) == pytest.approx(1.6e8)
        assert time_bandwidth_product(1.0, 1.0) == 1.0
        for args in [(-1.0, 2.0), (80e6, math.nan), (80e6, math.inf), (80e6, 0.0)]:
            with pytest.raises(ValueError):
                time_bandwidth_product(*args)
