"""Time-domain simulation of a pulsed balanced photodetector.

Each laser pulse deposits a voltage pulse whose integrated area encodes one
quadrature sample, scaled by ``sqrt(2) * eta * e * G * |alpha_LO|``.  On top
of the quantum signal the model adds white electronic noise (calibrated by
its per-pulse integrated-area variance), a slowly drifting baseline, and a
deterministic common-mode leakage line at the repetition rate whose size is
set by the configured common-mode rejection ratio.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .extraction import _trapezoid_rows, write_csv
from .states import StateModel, sample_quadratures

__all__ = [
    "DriftModel",
    "DetectorConfig",
    "TraceBuffer",
    "GroundTruth",
    "photons_per_pulse",
    "area_scale",
    "generate_trace",
    "generate_areas",
    "single_diode_trace",
    "electronic_only_trace",
    "electronic_only_areas",
    "write_trace_csv",
    "write_trace_binary",
    "read_trace_binary",
]

ELEMENTARY_CHARGE = 1.602176634e-19
PLANCK = 6.62607015e-34
SPEED_OF_LIGHT = 2.99792458e8

TRACE_MAGIC_V1 = b"PQTRACE1"  # 24-byte header without t0; still read
TRACE_MAGIC = b"PQTRACE2"

BLOCK_PULSES = 4096  # pulse periods synthesized at a time (0.8 MB at 25 samples)

DEFAULT_SNR_DB = 14.5

PULSE_SHAPES = ("rectangular", "gaussian", "half_cosine")


@dataclass(frozen=True)
class DriftModel:
    """Baseline drift: a linear ramp plus an optional per-pulse random walk.

    Both parameters are expressed in quadrature units (the ramp per second,
    the walk increment per pulse).
    """

    linear_rate: float = 3.95e-5
    random_walk_sigma: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.linear_rate):
            raise ValueError("linear_rate must be finite")
        if not 0 <= self.random_walk_sigma < math.inf:
            raise ValueError("random_walk_sigma must be nonnegative and finite")


@dataclass(frozen=True)
class DetectorConfig:
    """Physical and electronic parameters of the simulated detector."""

    f_rep: float = 80e6
    wavelength: float = 830e-9
    p_lo: float = 5e-3
    eta_pd: float = 0.90
    gain: float = 36e3
    fwhm_pulse: float = 5.5e-9
    sample_rate: float = 2e9
    elec_noise_area_var: float | None = None
    cmrr_db: float = 63.0
    pulse_shape: str = "rectangular"
    drift: DriftModel = field(default_factory=DriftModel)

    def __post_init__(self):
        for name in ("f_rep", "wavelength", "p_lo", "gain", "fwhm_pulse", "sample_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        if not 0.0 <= self.eta_pd <= 1.0:
            raise ValueError("eta_pd must lie in [0, 1]")
        if self.pulse_shape not in PULSE_SHAPES:
            raise ValueError(f"pulse_shape must be one of {PULSE_SHAPES}")
        ratio = self.sample_rate / self.f_rep
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 8:
            raise ValueError("sample_rate must be an integer multiple (>= 8) of f_rep")
        try:
            if self.elec_noise_area_var is None:
                # default sets the integrated-pulse SNR at the configured LO power
                var = 0.5 * area_scale(self) ** 2 * 10 ** (-DEFAULT_SNR_DB / 10)
                object.__setattr__(self, "elec_noise_area_var", var)
            sizes = (self.elec_noise_area_var, single_diode_pulse_area(self), leakage_area(self))
        except ArithmeticError:  # an overflowing power, or a photon energy of zero
            sizes = (math.inf,)
        if not all(math.isfinite(v) for v in sizes):
            raise ValueError("parameters give a non-finite noise variance or pulse area")
        if self.elec_noise_area_var < 0:
            raise ValueError("elec_noise_area_var must be nonnegative")

    @property
    def samples_per_period(self) -> int:
        return int(round(self.sample_rate / self.f_rep))

    def with_power(self, p_lo: float) -> "DetectorConfig":
        """Copy with a different LO power, electronic noise held fixed."""
        return replace(self, p_lo=p_lo)


@dataclass(frozen=True)
class TraceBuffer:
    """Uniformly sampled detector output voltage record."""

    sample_rate: float
    t0: float
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError("trace sample rate must be finite and positive")
        if not math.isfinite(self.t0):
            raise ValueError("trace start time must be finite")
        arr = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("trace contains non-finite samples")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) / self.sample_rate


@dataclass(frozen=True)
class GroundTruth:
    """Per-pulse truth behind a simulated trace: quadratures and residual areas."""

    quadratures: np.ndarray
    baseline_areas: np.ndarray


def photons_per_pulse(p_lo: float, wavelength: float, f_rep: float) -> float:
    """Mean LO photon number per pulse, ``(P/f_rep) / (h c / lambda)``."""
    if p_lo <= 0 or wavelength <= 0 or f_rep <= 0:
        raise ValueError("power, wavelength and repetition rate must be positive")
    return (p_lo / f_rep) / (PLANCK * SPEED_OF_LIGHT / wavelength)


def area_scale(config: DetectorConfig) -> float:
    """Pulse area per quadrature unit: ``sqrt(2) eta e G sqrt(N_LO)`` in V*s."""
    n_lo = photons_per_pulse(config.p_lo, config.wavelength, config.f_rep)
    return (
        math.sqrt(2.0)
        * config.eta_pd
        * ELEMENTARY_CHARGE
        * config.gain
        * math.sqrt(n_lo)
    )


def leakage_area(config: DetectorConfig) -> float:
    """Constant per-pulse area of the unsubtracted common-mode component.

    Sized so that the repetition-rate spectral line sits ``cmrr_db`` below
    the corresponding line of a blocked-diode trace.
    """
    return single_diode_pulse_area(config) * 10 ** (-config.cmrr_db / 20.0)


def single_diode_pulse_area(config: DetectorConfig) -> float:
    """Area of one photocurrent pulse with only one diode illuminated."""
    n_lo = photons_per_pulse(config.p_lo, config.wavelength, config.f_rep)
    return config.eta_pd * ELEMENTARY_CHARGE * config.gain * (n_lo / 2.0)


def _noise_sigma(config: DetectorConfig) -> float:
    # per-sample std making the window trapezoid variance equal the target
    n_w = config.samples_per_period
    dt = 1.0 / config.sample_rate
    return math.sqrt(config.elec_noise_area_var / (dt * dt * (n_w - 1.5)))


def _pulse_shape(config: DetectorConfig) -> np.ndarray:
    """Unit-area pulse samples over one period window, peak at index spp//2.

    Normalized so the trapezoidal integral over the window is exactly one;
    any tail of the analytic shape beyond the window is folded into the
    normalization.
    """
    n_w = config.samples_per_period
    dt = 1.0 / config.sample_rate
    offs = (np.arange(n_w) - n_w // 2) * dt
    if config.pulse_shape == "gaussian":
        sigma = config.fwhm_pulse / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        v = np.exp(-0.5 * (offs / sigma) ** 2)
    elif config.pulse_shape == "rectangular":
        v = (np.abs(offs) <= config.fwhm_pulse / 2.0 + 1e-15).astype(float)
    else:  # half_cosine: support 1.5x FWHM
        width = 1.5 * config.fwhm_pulse
        v = np.where(
            np.abs(offs) <= width / 2.0, np.cos(np.pi * offs / width), 0.0
        )
    norm = np.trapezoid(v, dx=dt)
    if norm <= 0:
        raise ValueError("pulse shape has nonpositive area on the sample grid")
    return v / norm


def _child_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _seeded_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _trace_blocks(config: DetectorConfig, areas: np.ndarray, seed: int):
    """Yield the trace of the per-pulse ``areas`` as row blocks, in stream order.

    Each block is a ``(<= BLOCK_PULSES, samples_per_period)`` array whose row
    k is the period of one pulse: white electronic noise from stream 2 of
    ``seed``, scaled in place, plus the pulse added in place.  The normals
    are drawn in stream order, so the rows are the same floats whatever
    the block size, and they equal ``outer(areas, shape) + normal(0, sigma)``.
    """
    shape = _pulse_shape(config)
    sigma = _noise_sigma(config)
    rng = _seeded_rng(seed, 2) if config.elec_noise_area_var > 0 else None
    for start in range(0, areas.size, BLOCK_PULSES):
        pulses = areas[start : start + BLOCK_PULSES, None] * shape
        if rng is None:
            yield pulses
            continue
        # pulses stays alive until the next block; freeing it as soon as the
        # noise is added measured 0.5-1 MB more peak RSS on a default run
        block = rng.standard_normal(pulses.shape)
        block *= sigma
        block += pulses
        yield block


def _assemble_trace(config: DetectorConfig, areas: np.ndarray, seed: int) -> TraceBuffer:
    spp = config.samples_per_period
    dt = 1.0 / config.sample_rate
    samples = np.empty((areas.size, spp))
    start = 0
    for block in _trace_blocks(config, areas, seed):
        samples[start : start + len(block)] = block
        start += len(block)
    return TraceBuffer(
        sample_rate=config.sample_rate, t0=-(spp // 2) * dt, samples=samples.reshape(-1)
    )


def _block_areas(config: DetectorConfig, areas: np.ndarray, seed: int) -> np.ndarray:
    """Trapezoid area of every pulse period of the trace, integrated block
    by block as it is drawn, so the trace is never held."""
    blocks = _trace_blocks(config, areas, seed)
    return np.concatenate([_trapezoid_rows(b, config.sample_rate) for b in blocks])


def _signal_areas(
    config: DetectorConfig, state: StateModel, phases, n_pulses: int, seed: int
) -> tuple[np.ndarray, GroundTruth]:
    """Noise-free pulse areas: quadratures sampled at ``DEFAULT_CUTOFF``, plus
    drift and leakage."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    if phases.size not in (1, n_pulses):
        raise ValueError("phase schedule must have length 1 or n_pulses")

    # the batch, phases included, lives until return: freeing it before the
    # area arrays are drawn raised a characterize run's peak RSS by 1.1 MB
    batch = sample_quadratures(state, phases, n_pulses, _child_seed(seed, 0))
    x = batch.values

    t_k = np.arange(n_pulses) / config.f_rep
    baseline = config.drift.linear_rate * t_k
    if config.drift.random_walk_sigma > 0:
        rng_walk = _seeded_rng(seed, 1)
        baseline = baseline + np.cumsum(
            rng_walk.normal(0.0, config.drift.random_walk_sigma, n_pulses)
        )

    scale = area_scale(config)
    leak = leakage_area(config)
    areas = scale * (x + baseline) + leak
    return areas, GroundTruth(quadratures=x, baseline_areas=scale * baseline + leak)


def generate_trace(
    config: DetectorConfig, state: StateModel, phases, n_pulses: int, seed: int
) -> tuple[TraceBuffer, GroundTruth]:
    """Simulate a balanced-output voltage trace for ``n_pulses`` pulses.

    Pulse k is centred at ``t_k = k / f_rep``; the trace starts half a
    period earlier so every pulse window is complete.  Identical arguments
    produce bit-identical traces.
    """
    areas, truth = _signal_areas(config, state, phases, n_pulses, seed)
    return _assemble_trace(config, areas, seed), truth


def generate_areas(
    config: DetectorConfig, state: StateModel, phases, n_pulses: int, seed: int
) -> np.ndarray:
    """Integrated pulse areas of the trace :func:`generate_trace` draws for
    the same arguments, without holding that trace.

    Equal, bit for bit, to ``pulse_areas(trace, segment_pulses(trace,
    f_rep, 0.0, 1 / f_rep))`` of that trace; the trace is synthesized and
    integrated ``BLOCK_PULSES`` periods at a time.
    """
    areas, _ = _signal_areas(config, state, phases, n_pulses, seed)
    return _block_areas(config, areas, seed)


def single_diode_trace(config: DetectorConfig, n_pulses: int, seed: int) -> TraceBuffer:
    """Unsubtracted single-diode trace: equal pulses carrying half the LO power."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    areas = np.full(n_pulses, single_diode_pulse_area(config))
    return _assemble_trace(config, areas, seed)


def electronic_only_trace(config: DetectorConfig, n_pulses: int, seed: int) -> TraceBuffer:
    """Dark trace spanning ``n_pulses`` periods: electronic noise only."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    return _assemble_trace(config, np.zeros(n_pulses), seed)


def electronic_only_areas(config: DetectorConfig, n_pulses: int, seed: int) -> np.ndarray:
    """Integrated pulse areas of :func:`electronic_only_trace`, drawn block
    by block like :func:`generate_areas`."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    return _block_areas(config, np.zeros(n_pulses), seed)


def write_trace_csv(trace: TraceBuffer, path) -> None:
    """Write ``time_s,voltage_v`` rows, one per sample."""
    write_csv(path, "time_s,voltage_v", (trace.times(), trace.samples))


def write_trace_binary(trace: TraceBuffer, path) -> None:
    """Raw little-endian export: 32-byte header then float64 samples.

    Header layout: magic ``PQTRACE2``, sample rate as float64, sample count
    as uint64, start time ``t0`` as float64.
    """
    samples = np.ascontiguousarray(trace.samples, dtype="<f8")
    header = TRACE_MAGIC + struct.pack("<dQd", trace.sample_rate, samples.size, trace.t0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples.tobytes())


def read_trace_binary(path) -> TraceBuffer:
    """Read a trace written by :func:`write_trace_binary`.

    Also reads the older 24-byte ``PQTRACE1`` header, which stores no start
    time; such a trace gets ``t0 = 0``.  Every malformed header raises
    ``ValueError``: a sample count beyond the bytes left in the file, or a
    rate or ``t0`` that :class:`TraceBuffer` rejects.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic not in (TRACE_MAGIC, TRACE_MAGIC_V1):
            raise ValueError("not a trace binary file")
        fields = "<dQd" if magic == TRACE_MAGIC else "<dQ"
        header = fh.read(struct.calcsize(fields))
        if len(header) != struct.calcsize(fields):
            raise ValueError("not a trace binary file")
        rate, count, *t0 = struct.unpack(fields, header)
        # checked before the read: count * 8 of a corrupt count may not even
        # fit an index-sized integer
        if count > (os.fstat(fh.fileno()).st_size - fh.tell()) // 8:
            raise ValueError("trace binary file is truncated")
        data = np.frombuffer(fh.read(count * 8), dtype="<f8")
    return TraceBuffer(sample_rate=rate, t0=t0[0] if t0 else 0.0, samples=data)
