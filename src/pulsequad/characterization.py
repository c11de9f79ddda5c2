"""Detector figures of merit: noise scaling, SNR, correlations, spectra,
common-mode rejection, Allan stability and the time-bandwidth product.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .extraction import QuadratureBatch, write_csv

__all__ = [
    "NoiseCurve",
    "AllanCurve",
    "SpectrumEstimate",
    "DetectorReport",
    "variance_vs_power",
    "snr_and_efficiency",
    "overall_efficiency",
    "correlation_coefficient",
    "allan_deviation",
    "find_stability_interval",
    "averaged_allan",
    "noise_spectrum",
    "bandwidth_minus3db",
    "cmrr_db",
    "time_bandwidth_product",
    "write_noise_curve_csv",
    "write_allan_csv",
    "write_spectrum_csv",
    "write_cc_csv",
]

SPECTRUM_BLOCK_SAMPLES = 2**15  # trace samples Fourier-transformed at a time


@dataclass(frozen=True)
class NoiseCurve:
    """Integrated-pulse noise variance versus LO power with its linear fit."""

    points: np.ndarray  # (n, 2) rows of (power W, area variance (V*s)^2)
    fit_slope: float
    fit_intercept: float
    r_squared: float


@dataclass(frozen=True)
class AllanCurve:
    """Allan deviation versus averaging interval.

    ``deviation_std`` is populated by :func:`averaged_allan` with the
    pointwise sample standard deviation across records.
    """

    taus: np.ndarray
    deviations: np.ndarray
    n_pairs: np.ndarray
    deviation_std: np.ndarray | None = None

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        if not (np.all(np.isfinite(taus)) and np.all(np.diff(taus) > 0)):
            raise ValueError("taus must be finite and strictly increasing")
        devs = np.asarray(self.deviations)
        if not np.all((devs >= 0) & (devs < math.inf)):  # NaN fails both
            raise ValueError("deviations must be nonnegative and finite")
        if np.any(np.asarray(self.n_pairs) < 1):
            raise ValueError("every point needs at least one adjacent pair")


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided averaged-periodogram power spectral density."""

    freqs: np.ndarray
    psd: np.ndarray
    resolution_hz: float


@dataclass(frozen=True)
class DetectorReport:
    """Aggregated detector figures of merit.

    ``cc`` holds ``(m, value, std)`` triples; ``bandwidth_hz`` is None when
    the spectrum shows no -3 dB crossing, and so is the derived ``tbp``.
    """

    snr_db: float | None
    eta_en: float
    eta_pd: float
    eta_bhd: float
    bandwidth_hz: float | None
    cc: tuple
    cmrr_db: float
    stability_interval_s: float

    def __post_init__(self):
        for name in ("eta_en", "eta_pd", "eta_bhd"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def tbp(self) -> float | None:
        """``bandwidth_hz * stability_interval_s``, or None without a bandwidth."""
        if self.bandwidth_hz is None:
            return None
        return time_bandwidth_product(self.bandwidth_hz, self.stability_interval_s)

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "cc": [{"m": int(m), "cc": v, "std": s} for m, v, s in self.cc],
            "tbp": self.tbp,
        }


def variance_vs_power(points) -> NoiseCurve:
    """Ordinary least-squares line through (LO power, area variance) points.

    The intercept estimates the LO-independent electronic-noise variance.
    """
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    # distinct powers counted on a sorted copy: np.unique would import numpy.ma
    powers = np.sort(pts[:, 0]) if pts.ndim == 2 and pts.shape[1] == 2 else np.zeros(0)
    if np.count_nonzero(powers[1:] != powers[:-1]) + 1 < 3:
        raise ValueError("need variance samples at three or more distinct powers")
    slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
    resid = pts[:, 1] - (slope * pts[:, 0] + intercept)
    ss_tot = np.sum((pts[:, 1] - pts[:, 1].mean()) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2) / ss_tot)
    return NoiseCurve(
        points=pts, fit_slope=float(slope), fit_intercept=float(intercept), r_squared=r2
    )


def snr_and_efficiency(var_total: float, var_elec: float) -> tuple[float, float]:
    """SNR in dB and the equivalent efficiency of the electronic noise.

    ``snr_db = 10 log10(var_total / var_elec)`` and
    ``eta_en = max(0, 1 - var_elec / var_total)``, both as measured: where
    the electronics dominate, sampling can put ``var_total`` at or below
    ``var_elec``, which gives an ``snr_db`` at or below 0 and an ``eta_en``
    of 0.
    """
    if not (var_total > 0 and var_elec > 0):
        raise ValueError("need var_total > 0 and var_elec > 0")
    ratio = var_total / var_elec
    return 10.0 * np.log10(ratio), max(0.0, 1.0 - 1.0 / ratio)


def overall_efficiency(eta_en: float, eta_pd: float) -> float:
    """Overall detector efficiency, the product of its two factors."""
    for name, val in (("eta_en", eta_en), ("eta_pd", eta_pd)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    return eta_en * eta_pd


def correlation_coefficient(batch: QuadratureBatch, m: int) -> tuple[float, float]:
    """Pearson correlation between samples ``m`` pulses apart.

    Returns ``(cc, 1/sqrt(N - m))``.  ``m = 0`` is the exact
    self-correlation, 1.
    """
    x = batch.values
    n = x.size
    if not 0 <= m < n:
        raise ValueError("lag must satisfy 0 <= m < len(batch)")
    if m == 0:
        return 1.0, 1.0 / np.sqrt(n)
    a = x[: n - m]
    b = x[m:]
    ca = a - a.mean()
    cb = b - b.mean()
    denom = np.sqrt(np.sum(ca**2) * np.sum(cb**2))
    if denom == 0:
        raise ValueError("degenerate batch: zero variance")
    cc = float(np.dot(ca, cb) / denom)
    return min(max(cc, -1.0), 1.0), 1.0 / np.sqrt(n - m)


def allan_deviation(batch: QuadratureBatch, f_rep: float, taus) -> AllanCurve:
    """Allan deviation of a uniformly sampled quadrature series.

    For each averaging interval the series is cut into consecutive blocks
    of ``m = floor(f_rep * tau)`` samples and the RMS difference of adjacent
    block means, scaled by ``1/sqrt(2)``, is returned.

    The block means come from one running sum ``c`` of the mean-removed
    series (``c[0] = 0``), taken once per series: adjacent means differ by
    ``(c[k + 2m] - 2 c[k + m] + c[k]) / m`` at ``k = 0, m, 2m, ...``, the
    phase-data form of NIST SP 1065 (Riley, 2008), so a curve of T points
    costs O(N + sum N/m) rather than O(N T).  Round-off: each addition
    rounds ``c[k]`` by up to ``eps * |c[k]| / 2`` and the second difference
    does not cancel those errors, so a block-mean difference carries an
    absolute error of order ``eps * max|c| / m``.  Removing the mean first
    keeps ``|c|`` at the size of the fluctuations whatever the offset of the
    series, and makes a constant series give exactly 0.  On the ten
    80,000-block vacuum records of a default ``characterize`` run the
    deviations lie within 2e-13 relative of an extended-precision
    reference, with or without an added offset of 1e3 (averaging each
    block on its own: 1.1e-15 without the offset, 5e-10 with it).
    """
    x = batch.values
    taus = np.asarray(taus, dtype=float)
    devs = np.empty(taus.size)
    pairs = np.empty(taus.size, dtype=int)
    c = np.zeros(x.size + 1)
    np.cumsum(x - x.mean() if x.size else x, out=c[1:])
    for i, tau in enumerate(taus.tolist()):
        product = float(f_rep) * tau  # a Python float overflows to inf without a warning
        if not math.isfinite(product):
            raise ValueError(f"tau {tau} at f_rep {f_rep} spans no finite number of samples")
        n_block = int(np.floor(product))
        if product - n_block > 1.0 - 1e-6:  # absorb float dust just below an integer
            n_block += 1
        if n_block < 1:
            raise ValueError(f"tau {tau} is shorter than one sample")
        n_whole = x.size // n_block
        if n_whole < 2:
            raise ValueError(f"tau {tau} leaves fewer than two blocks")
        edges = c[: n_whole * n_block + 1 : n_block]
        diffs = (edges[2:] - 2.0 * edges[1:-1] + edges[:-2]) / n_block
        devs[i] = np.sqrt(0.5 * np.mean(diffs**2))
        pairs[i] = diffs.size
    return AllanCurve(taus=taus, deviations=devs, n_pairs=pairs)


def find_stability_interval(curve: AllanCurve) -> float:
    """Averaging interval at the global Allan minimum (ties go to larger tau)."""
    if curve.taus.size < 3:
        raise ValueError("need at least three Allan points")
    best = np.flatnonzero(curve.deviations == curve.deviations.min())[-1]
    return float(curve.taus[best])


def averaged_allan(curves) -> AllanCurve:
    """Pointwise mean of several Allan curves with its statistical error.

    ``deviation_std`` is the standard error of the mean at each tau
    (sample standard deviation across curves, n-1 normalized, divided by
    sqrt of the number of curves).
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")
    taus = curves[0].taus
    for c in curves[1:]:
        if c.taus.shape != taus.shape or np.any(c.taus != taus):
            raise ValueError("curves must share an identical tau grid")
    devs = np.stack([c.deviations for c in curves])
    if len(curves) > 1:
        std = devs.std(axis=0, ddof=1) / np.sqrt(len(curves))
    else:
        std = np.zeros(taus.size)
    return AllanCurve(
        taus=taus,
        deviations=devs.mean(axis=0),
        n_pairs=np.sum([c.n_pairs for c in curves], axis=0),
        deviation_std=std,
    )


def noise_spectrum(chunks, segment_len: int, sample_rate: float) -> SpectrumEstimate:
    """One-sided PSD averaged over non-overlapping rectangular segments.

    ``chunks`` is an iterable of sample chunks that make up the record in
    turn: a 2-D block of pulse periods is read row by row, a segment may span
    chunks, and no chunk is kept past its turn.  Samples past the last whole
    segment are dropped.  Normalized so the integral of the PSD over
    frequency matches the time-domain variance (the record mean is removed).

    Samples are centred on the first chunk's mean ``c`` into one buffer of
    ``SPECTRUM_BLOCK_SAMPLES``, whose segments are transformed together and
    their periodograms summed row by row in order.  Only the DC term depends
    on the centre: at the end each segment's DC term is moved to the exact
    record mean ``m``, by ``-segment_len * (m - c)``, and the squares are
    summed in segment order.  A whole trace is one chunk, ``[trace.samples]``,
    so ``c == m`` and its PSD is, bit for bit,
    ``np.mean(np.abs(rfft(segments)) ** 2, axis=0)`` of the mean-removed
    trace, normalized.  Over pulse blocks the PSD is within about 1e-15
    relative of the assembled trace's, and within 2e-13 on every bin of a
    single-diode pulse train.
    """
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise ValueError("segment_len must be a power of two")
    if not 0 < sample_rate < math.inf:
        raise ValueError("sample_rate must be positive and finite")
    per_block = max(1, SPECTRUM_BLOCK_SAMPLES // segment_len)
    # centred samples awaiting transform, their spectra and periodograms
    buf = np.empty((per_block, segment_len))
    spec = np.empty((per_block, segment_len // 2 + 1), dtype=complex)
    periodograms = np.empty(spec.shape)
    power = np.zeros(segment_len // 2 + 1)
    dc_terms = []

    def add_periodograms(rows: int) -> None:
        np.fft.rfft(buf[:rows], axis=1, out=spec[:rows])
        dc_terms.append(spec[:rows, 0].real.copy())
        np.square(np.abs(spec[:rows], out=periodograms[:rows]), out=periodograms[:rows])
        for row in periodograms[:rows]:
            np.add(power, row, out=power)

    flat = buf.reshape(-1)
    fill = 0
    center = None
    total = 0.0
    n = 0
    for chunk in chunks:
        x = np.asarray(chunk, dtype=float).reshape(-1)
        if not x.size:
            continue
        if not np.all(np.isfinite(x)):
            raise ValueError("chunks must hold finite samples")
        chunk_sum = x.sum()
        if center is None:
            center = chunk_sum / x.size
        total += chunk_sum
        n += x.size
        pos = 0
        while pos < x.size:
            take = min(flat.size - fill, x.size - pos)
            np.subtract(x[pos : pos + take], center, out=flat[fill : fill + take])
            fill += take
            pos += take
            if fill == flat.size:
                add_periodograms(per_block)
                fill = 0
    if fill >= segment_len:
        add_periodograms(fill // segment_len)
    if not dc_terms:
        raise ValueError("trace is shorter than one segment")
    dc = np.concatenate(dc_terms)
    power[0] = np.cumsum((dc - segment_len * (total / n - center)) ** 2)[-1]
    psd = power / dc.size / (sample_rate * segment_len)
    psd[1:-1] *= 2.0  # fold negative frequencies; DC and Nyquist stay single
    freqs = np.fft.rfftfreq(segment_len, 1.0 / sample_rate)
    return SpectrumEstimate(freqs=freqs, psd=psd, resolution_hz=sample_rate / segment_len)


def _require_common_grid(a: SpectrumEstimate, b: SpectrumEstimate):
    if a.freqs.shape != b.freqs.shape or np.any(a.freqs != b.freqs):
        raise ValueError("spectra must share a common frequency grid")


def bandwidth_minus3db(shot: SpectrumEstimate, elec: SpectrumEstimate) -> float | None:
    """Frequency where the electronic-noise-subtracted shot PSD drops 3 dB.

    The reference plateau is the mean over the lowest decade of bins above
    DC; the crossing is linearly interpolated between bins.  None when the
    grid holds no crossing: a spectrum flat to Nyquist (a pulse shorter than
    a sample), or one already below the threshold in its first bin above DC
    (a low-frequency drift lifting the plateau).
    """
    _require_common_grid(shot, elec)
    sub = shot.psd - elec.psd
    f = shot.freqs
    f1 = f[1]
    plateau_idx = np.flatnonzero((f > 0) & (f <= 10.0 * f1))
    plateau = float(np.mean(sub[plateau_idx]))
    threshold = plateau * 10 ** (-0.3)
    below = np.flatnonzero(sub[1:] < threshold) + 1
    if below.size == 0 or below[0] == 1:
        return None
    k = below[0]
    frac = (threshold - sub[k - 1]) / (sub[k] - sub[k - 1])
    return float(f[k - 1] + frac * (f[k] - f[k - 1]))


def cmrr_db(balanced: SpectrumEstimate, blocked: SpectrumEstimate, f_rep: float) -> float:
    """Common-mode rejection: blocked/balanced PSD ratio at the repetition rate."""
    _require_common_grid(balanced, blocked)
    if not balanced.freqs[0] <= f_rep <= balanced.freqs[-1]:
        raise ValueError("repetition rate lies outside the spectrum grid")
    k = int(np.argmin(np.abs(balanced.freqs - f_rep)))
    for name, spectrum in (("balanced", balanced), ("blocked", blocked)):
        if not 0 < spectrum.psd[k] < math.inf:
            raise ValueError(f"the {name} PSD at the repetition rate must be positive and finite")
    return float(10.0 * np.log10(blocked.psd[k] / balanced.psd[k]))


def time_bandwidth_product(bandwidth_hz: float, stability_interval_s: float) -> float:
    """Number of resolvable samples per calibration interval, ``df * dt``."""
    if not (0 < bandwidth_hz < math.inf and 0 < stability_interval_s < math.inf):
        raise ValueError("bandwidth_hz and stability_interval_s must be positive and finite")
    return bandwidth_hz * stability_interval_s


def write_noise_curve_csv(curve: NoiseCurve, path) -> None:
    write_csv(path, "power_w,variance", curve.points.T)


def write_allan_csv(curve: AllanCurve, path) -> None:
    write_csv(path, "tau_s,allan_dev", (curve.taus, curve.deviations))


def write_spectrum_csv(spectrum: SpectrumEstimate, path) -> None:
    write_csv(path, "freq_hz,psd", (spectrum.freqs, spectrum.psd))


def write_cc_csv(cc_rows, path) -> None:
    write_csv(path, "m,cc,std", zip(*cc_rows))
