"""Reference implementations that the tests compare the package against.

Every run synthesizes and integrates its traces in pulse blocks and never
holds one whole, and the sampler inverts one cumulative harmonic table.
These functions do the same work the direct way: they assemble a whole
trace, write it whole, integrate one window at a time, and evaluate the
quadrature density point by point.
"""

from dataclasses import dataclass

import numpy as np

from pulsequad.detector import (
    DetectorConfig,
    TraceBuffer,
    _child_seed,
    _flat_samples,
    _seeded_rng,
    _signal_areas,
    _stream_trace_bin,
    _stream_trace_csv,
    _trace_blocks,
    _trace_t0,
    area_scale,
    leakage_area,
    single_diode_pulse_area,
)
from pulsequad.extraction import _trapezoid_rows
from pulsequad.states import DensityMatrix, StateModel, fock_wavefunctions, sample_quadratures


@dataclass(frozen=True)
class GroundTruth:
    """Per-pulse truth behind a simulated trace: quadratures and residual areas."""

    quadratures: np.ndarray
    baseline_areas: np.ndarray


def _assemble_trace(config: DetectorConfig, areas: np.ndarray, seed: int) -> TraceBuffer:
    """The whole trace of the per-pulse ``areas``, filled from the pulse blocks."""
    samples = np.empty(areas.size * config.samples_per_period)
    for k, x in _flat_samples(_trace_blocks(config, areas, seed)):
        samples[k : k + x.size] = x
    return TraceBuffer(config.sample_rate, _trace_t0(config), samples)


def generate_trace(
    config: DetectorConfig, state: StateModel, phases, n_pulses: int, seed: int
) -> tuple[TraceBuffer, GroundTruth]:
    """The balanced-output trace that ``trace-export`` writes and
    ``generate_areas`` integrates for the same arguments, held whole.

    The ground truth is drawn here from the same child streams of ``seed``
    as the package draws them: the quadratures from stream 0 and the drift's
    random walk from stream 1.
    """
    areas = _signal_areas(config, state, phases, n_pulses, seed)
    x = sample_quadratures(state, phases, n_pulses, _child_seed(seed, 0)).values
    baseline = config.drift.linear_rate * (np.arange(n_pulses) / config.f_rep)
    if config.drift.random_walk_sigma > 0:
        walk = _seeded_rng(seed, 1).normal(0.0, config.drift.random_walk_sigma, n_pulses)
        baseline = baseline + np.cumsum(walk)
    truth = GroundTruth(x, area_scale(config) * baseline + leakage_area(config))
    return _assemble_trace(config, areas, seed), truth


def single_diode_trace(config: DetectorConfig, n_pulses: int, seed: int) -> TraceBuffer:
    """Unsubtracted single-diode trace: equal pulses carrying half the LO power."""
    areas = np.full(n_pulses, single_diode_pulse_area(config))
    return _assemble_trace(config, areas, seed)


def electronic_only_trace(config: DetectorConfig, n_pulses: int, seed: int) -> TraceBuffer:
    """Dark trace spanning ``n_pulses`` periods: electronic noise only."""
    return _assemble_trace(config, np.zeros(n_pulses), seed)


def write_trace_csv(trace: TraceBuffer, path) -> None:
    """A whole trace through the one ``trace.csv`` writer."""
    _stream_trace_csv(trace.sample_rate, trace.t0, [trace.samples], path)


def write_trace_binary(trace: TraceBuffer, path) -> None:
    """A whole trace through the one ``trace.bin`` writer."""
    _stream_trace_bin(trace.sample_rate, trace.t0, [trace.samples], path)


def integrate_pulse(window, sample_rate: float) -> float:
    """Trapezoidal integral of one voltage window, in V*s: one row of the area kernel."""
    w = np.asarray(window, dtype=float)
    if w.size < 2:
        raise ValueError("window must contain at least two samples")
    return float(_trapezoid_rows(w[None, :], sample_rate)[0])


def quadrature_pdf(rho: DensityMatrix, theta: float, x):
    """Probability density of the quadrature at LO phase ``theta``.

    ``p(x|theta) = sum_mn rho_mn exp(i(n-m)theta) psi_m(x) psi_n(x)``
    (Lvovsky & Raymer, RMP 81, 299 (2009)), evaluated point by point and
    clamped at zero against numerical round-off.
    """
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    psi = fock_wavefunctions(rho.dim, xs)
    phase = np.exp(1j * np.arange(rho.dim) * theta)
    rotated = (phase.conj()[:, None] * rho.elements) * phase[None, :]
    p = np.einsum("mx,mn,nx->x", psi, rotated, psi).real
    p = np.maximum(p, 0.0)
    return float(p[0]) if scalar else p
