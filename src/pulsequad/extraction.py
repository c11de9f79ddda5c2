"""Pulse segmentation, area integration and vacuum calibration.

Raw detector traces are reduced to one area per pulse window, and vacuum
statistics (zero mean, variance 1/2) fix the affine map from areas to
dimensionless quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CalibrationScale",
    "QuadratureBatch",
    "segment_pulses",
    "pulse_areas",
    "calibrate_vacuum",
    "apply_calibration",
    "write_batch_csv",
    "write_csv",
]

VACUUM_VARIANCE = 0.5

CSV_BLOCK_ROWS = 256  # rows formatted at a time: a small block keeps peak memory flat


@dataclass(frozen=True)
class CalibrationScale:
    """Affine calibration mapping pulse areas to quadratures.

    ``scale`` estimates the area produced by one quadrature unit and
    ``offset`` the residual baseline area common to every pulse.
    """

    scale: float
    offset: float
    n_cal: int

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("calibration scale must be positive")
        if self.n_cal < 2:
            raise ValueError("calibration needs at least two pulses")


@dataclass(frozen=True)
class QuadratureBatch:
    """Calibrated quadrature samples with optional phases and timestamps."""

    values: np.ndarray
    phases: np.ndarray | None = None
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("quadrature values must be finite")
        object.__setattr__(self, "values", vals)
        for name in ("phases", "timestamps"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape != vals.shape:
                raise ValueError(f"{name} length does not match values")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.values.size


def segment_pulses(trace, f_rep: float, t_first: float, tau_p: float) -> np.ndarray:
    """Per-pulse sample windows of duration ``tau_p`` centred on pulse peaks.

    Pulse k peaks at ``t_first + k / f_rep``.  Returns an integer array of
    shape (n_windows, 2) holding half-open ``[start, stop)`` sample ranges;
    windows that would stick out of the trace are dropped.
    """
    if not (0 < tau_p < math.inf and 0 < f_rep < math.inf):
        raise ValueError("f_rep and tau_p must be positive and finite")
    period = 1.0 / f_rep
    if tau_p > period * (1 + 1e-12):
        raise ValueError("window duration exceeds the pulse period")
    fs = trace.sample_rate
    n_w = int(round(tau_p * fs))
    if n_w < 2:
        raise ValueError("window must span at least two samples")
    n = len(trace.samples)
    spp = fs * period
    c0 = (t_first - trace.t0) * fs
    if not abs(c0) < 2**53:  # sample indices stay exact integers
        raise ValueError("t_first must lie within 2**53 samples of the trace start")
    k_lo = int(np.floor(-c0 / spp)) - 1
    k_hi = int(np.ceil((n - c0) / spp)) + 1
    k = np.arange(k_lo, k_hi)
    centers = np.round(c0 + k * spp).astype(np.int64)
    starts = centers - n_w // 2
    ok = (starts >= 0) & (starts + n_w <= n)
    starts = starts[ok]
    return np.stack([starts, starts + n_w], axis=1)


def _trapezoid_rows(rows: np.ndarray, sample_rate: float) -> np.ndarray:
    """Trapezoidal integral of every row of a 2-D array, in V*s.

    The one area kernel of the package.  ``einsum`` reduces each row on its
    own, in the same order whatever the number of rows, their strides or
    their alignment, so a trace integrated in blocks gives the same floats
    as one integrated whole.  A BLAS product does not: a lone row goes
    through ``ddot`` and rows are split among threads by count, so the last
    bits of an area would depend on the block it came in.
    """
    n_w = rows.shape[1]
    dt = 1.0 / sample_rate
    weights = np.full(n_w, dt)
    weights[0] = weights[-1] = 0.5 * dt
    return np.einsum("ij,j->i", rows, weights)


def pulse_areas(trace, windows: np.ndarray) -> np.ndarray:
    """Trapezoidal areas of every window of a trace (equal window lengths).

    Each window is a half-open ``[start, stop)`` sample range of at least
    two samples inside the trace; windows may overlap or come in any order.
    They are gathered from a sliding-window view of the trace and integrated
    by the one area kernel, so each area has the same bits in any layout.
    """
    samples = np.asarray(trace.samples)
    windows = np.asarray(windows, dtype=np.int64)
    if windows.size == 0:
        return np.zeros(0)
    starts = windows[:, 0]
    n_w = int(windows[0, 1] - starts[0])
    if np.any(windows[:, 1] - starts != n_w):
        raise ValueError("windows must share a common length")
    if n_w < 2:
        raise ValueError("window must contain at least two samples")
    if starts.min() < 0 or starts.max() + n_w > samples.size:
        raise ValueError("windows must lie inside the trace")
    rows = np.lib.stride_tricks.sliding_window_view(samples, n_w)[starts]
    return _trapezoid_rows(rows, trace.sample_rate)


def calibrate_vacuum(areas) -> CalibrationScale:
    """Fix scale and offset from vacuum pulse areas via sample moments.

    The offset is the sample mean; the scale maps the sample variance to
    the vacuum quadrature variance 1/2.
    """
    a = np.asarray(areas, dtype=float)
    if a.size < 2:
        raise ValueError("calibration needs at least two pulse areas")
    var = float(np.var(a, ddof=1))
    mean = float(np.mean(a))
    if var <= (1e-9 * abs(mean)) ** 2:
        raise ValueError("vacuum areas have zero variance; cannot calibrate")
    return CalibrationScale(
        scale=float(np.sqrt(var / VACUUM_VARIANCE)),
        offset=mean,
        n_cal=int(a.size),
    )


def apply_calibration(areas, cal: CalibrationScale) -> QuadratureBatch:
    """Convert pulse areas to dimensionless quadratures, ``(a - offset)/scale``."""
    a = np.asarray(areas, dtype=float)
    return QuadratureBatch(values=(a - cal.offset) / cal.scale)


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and then one comma-separated line per row of ``zip(*columns)``.

    Columns go through ``ndarray.tolist()`` and ``%s`` (floats as their shortest
    round-trip ``repr``, integers as integers, ``str`` cells unchanged), in the
    one row formatter, which the streamed ``trace.csv`` writer shares.
    """
    _write_csv_blocks(path, header, [columns])


def _write_csv_blocks(path, header: str, blocks) -> None:
    """:func:`write_csv` over an iterable of column blocks, written in turn."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            cols = [np.asarray(c) for c in columns]
            line = ",".join(["%s"] * len(cols)) + "\n"
            for start in range(0, len(cols[0]) if cols else 0, CSV_BLOCK_ROWS):
                block = [c[start : start + CSV_BLOCK_ROWS].tolist() for c in cols]
                fh.write("".join(map(line.__mod__, zip(*block))))


def write_batch_csv(batch: QuadratureBatch, path) -> None:
    """Write a batch as ``timestamp_s,phase_rad,quadrature`` rows; absent
    timestamps or phases leave their column empty."""
    missing = [""] * len(batch)
    write_csv(
        path,
        "timestamp_s,phase_rad,quadrature",
        [missing if c is None else c for c in (batch.timestamps, batch.phases, batch.values)],
    )
