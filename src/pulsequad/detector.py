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

from .extraction import _trapezoid_rows, _write_csv_blocks
from .states import StateModel, sample_quadratures

__all__ = [
    "DriftModel",
    "DetectorConfig",
    "TraceBuffer",
    "photons_per_pulse",
    "area_scale",
    "generate_areas",
    "electronic_only_areas",
    "read_trace_binary",
]

ELEMENTARY_CHARGE = 1.602176634e-19
PLANCK = 6.62607015e-34
SPEED_OF_LIGHT = 2.99792458e8

TRACE_MAGIC = b"PQTRACE2"
TRACE_HEADER = struct.Struct("<8sdQd")  # magic, sample rate, sample count, t0

# trace samples synthesized at a time, in whole pulse periods (2,621 periods
# at 25 samples): a block buffer holds at most 512 KiB at any oversampling
BLOCK_SAMPLES = 2**16
# the most samples per period a config may ask for: an array over one period
# (the pulse shape, a block row) then holds at most 32 KiB, and a block 16 periods
MAX_SAMPLES_PER_PERIOD = 4096

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
        if self.fwhm_pulse * self.f_rep >= 1.0:
            raise ValueError("fwhm_pulse must be shorter than the pulse period 1 / f_rep")
        if not 0.0 <= self.eta_pd <= 1.0:
            raise ValueError("eta_pd must lie in [0, 1]")
        if self.pulse_shape not in PULSE_SHAPES:
            raise ValueError(f"pulse_shape must be one of {PULSE_SHAPES}")
        ratio = self.sample_rate / self.f_rep
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 8:
            raise ValueError("sample_rate must be an integer multiple (>= 8) of f_rep")
        if round(ratio) > MAX_SAMPLES_PER_PERIOD:  # before any period-long array is built
            raise ValueError(f"sample_rate must be at most {MAX_SAMPLES_PER_PERIOD} times f_rep")
        # a pulse that covers every sample of its period leaves a flat trace
        # with no pulse in it (a rectangular fwhm_pulse of 12 ns at 80 MHz, 2 GS/s)
        if np.ptp(_pulse_shape(self)) == 0:
            raise ValueError("the sampled pulse shape is flat over its period; shorten fwhm_pulse")
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


def photons_per_pulse(p_lo: float, wavelength: float, f_rep: float) -> float:
    """Mean LO photon number per pulse, ``(P/f_rep) / (h c / lambda)``."""
    for name, value in (("p_lo", p_lo), ("wavelength", wavelength), ("f_rep", f_rep)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
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
    # v >= 0 and v = 1 at the interior node spp // 2, so the norm is at least dt
    return v / np.trapezoid(v, dx=dt)


def _child_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _seeded_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _trace_t0(config: DetectorConfig) -> float:
    """Trace start, half a period before pulse 0; ``/ sample_rate`` rounds otherwise."""
    return -(config.samples_per_period // 2) * (1.0 / config.sample_rate)


def _trace_blocks(config: DetectorConfig, areas: np.ndarray, seed: int):
    """Yield the trace of the per-pulse ``areas`` as row blocks, in stream order.

    Each block is a ``(rows, samples_per_period)`` array, ``rows`` at most
    ``max(1, BLOCK_SAMPLES // samples_per_period)``, whose row k is the
    period of one pulse: white electronic noise from stream 2 of
    ``seed``, scaled in place, plus the pulse added in place.  The normals
    are drawn in stream order, so the rows are the same floats whatever
    the block size, and they equal ``outer(areas, shape) + normal(0, sigma)``.
    Every block is written into the same two buffers, so a block is
    overwritten by the next: a caller copies what it keeps.  Two fresh
    arrays per block held a default characterize run's peak RSS about
    1.6 MB higher.
    """
    if areas.size < 1:
        raise ValueError("n_pulses must be at least 1")
    shape = _pulse_shape(config)
    sigma = _noise_sigma(config)
    rng = _seeded_rng(seed, 2) if config.elec_noise_area_var > 0 else None
    rows = min(max(1, BLOCK_SAMPLES // shape.size), areas.size)
    pulses_buf = np.empty((rows, shape.size))
    block_buf = np.empty((rows, shape.size)) if rng is not None else None
    for start in range(0, areas.size, rows):
        chunk = areas[start : start + rows, None]
        pulses = np.multiply(chunk, shape, out=pulses_buf[: chunk.shape[0]])
        if rng is None:
            yield pulses
            continue
        block = rng.standard_normal(out=block_buf[: chunk.shape[0]])
        block *= sigma
        block += pulses
        yield block


def _flat_samples(blocks):
    """Yield ``(k, samples)`` per block: its samples flattened, k the first one's index."""
    start = 0
    for block in blocks:
        samples = np.reshape(block, -1)
        if not np.all(np.isfinite(samples)):
            raise ValueError("trace contains non-finite samples")
        yield start, samples
        start += samples.size


def _block_areas(config: DetectorConfig, areas: np.ndarray, seed: int) -> np.ndarray:
    """Trapezoid area of every pulse period of the trace, integrated block
    by block as it is drawn, so the trace is never held."""
    blocks = _trace_blocks(config, areas, seed)
    return np.concatenate([_trapezoid_rows(b, config.sample_rate) for b in blocks])


def _signal_areas(
    config: DetectorConfig, state: StateModel, phases, n_pulses: int, seed: int
) -> np.ndarray:
    """Noise-free pulse areas: quadratures sampled at ``DEFAULT_CUTOFF`` from
    stream 0 of ``seed``, plus drift (its random walk from stream 1) and leakage."""
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

    return area_scale(config) * (x + baseline) + leakage_area(config)


def generate_areas(
    config: DetectorConfig, state: StateModel, phases, n_pulses: int, seed: int
) -> np.ndarray:
    """Integrated pulse areas of the trace that ``trace-export`` writes for the
    same arguments, synthesized and integrated in blocks of whole periods,
    at most ``BLOCK_SAMPLES`` samples each, and never held, so the working
    set does not grow with the samples per period.

    Pulse k is centred at ``k / f_rep``, half a period after the trace starts.
    The areas equal, bit for bit, ``pulse_areas(trace, segment_pulses(trace,
    f_rep, 0.0, 1 / f_rep))`` of that trace.
    """
    areas = _signal_areas(config, state, phases, n_pulses, seed)
    return _block_areas(config, areas, seed)


def electronic_only_areas(config: DetectorConfig, n_pulses: int, seed: int) -> np.ndarray:
    """Integrated pulse areas of a dark trace of ``n_pulses`` periods,
    electronic noise only, drawn block by block like :func:`generate_areas`."""
    return _block_areas(config, np.zeros(n_pulses), seed)


def _stream_trace_csv(sample_rate: float, t0: float, blocks, path) -> None:
    """The one ``trace.csv`` writer; sample k of ``blocks`` is at ``t0 + k / sample_rate``."""
    samples = _flat_samples(blocks)
    rows = ((t0 + np.arange(k, k + x.size) / sample_rate, x) for k, x in samples)
    _write_csv_blocks(path, "time_s,voltage_v", rows)


def _stream_trace_bin(sample_rate: float, t0: float, blocks, path) -> None:
    """The one ``trace.bin`` writer: each block after the header, whose
    sample count is filled in once the last block is written."""
    with open(path, "wb") as fh:
        fh.seek(TRACE_HEADER.size)
        for _, x in _flat_samples(blocks):
            fh.write(np.ascontiguousarray(x, dtype="<f8"))
        count = (fh.tell() - TRACE_HEADER.size) // 8
        fh.seek(0)
        fh.write(TRACE_HEADER.pack(TRACE_MAGIC, sample_rate, count, t0))


def read_trace_binary(path) -> TraceBuffer:
    """Read a ``trace.bin`` as ``trace-export`` writes it: magic ``PQTRACE2``,
    float64 sample rate, uint64 sample count, float64 ``t0``, then the float64
    samples, all little-endian.

    Every malformed file raises ``ValueError``: another magic or a short
    header, a sample count beyond the bytes left in the file, or a rate or
    ``t0`` that :class:`TraceBuffer` rejects.
    """
    with open(path, "rb") as fh:
        header = fh.read(TRACE_HEADER.size)
        if len(header) != TRACE_HEADER.size or not header.startswith(TRACE_MAGIC):
            raise ValueError("not a trace binary file")
        _, rate, count, t0 = TRACE_HEADER.unpack(header)
        # checked before the read: count * 8 of a corrupt count may not even
        # fit an index-sized integer
        if count > (os.fstat(fh.fileno()).st_size - fh.tell()) // 8:
            raise ValueError("trace binary file is truncated")
        data = np.frombuffer(fh.read(count * 8), dtype="<f8")
    return TraceBuffer(sample_rate=rate, t0=t0, samples=data)
