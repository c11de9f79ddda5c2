"""Config-driven command line front end.

``pulsequad <characterize|tomography|trace-export> --config FILE`` runs a
full experiment from a single JSON document and writes plot-ready CSV/JSON
artifacts.  Runs are byte-reproducible for a fixed config and seed; every
output file is written atomically (temp file + rename).

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import math
import os
import sys
import threading
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .characterization import (
    AllanCurve,
    DetectorReport,
    allan_deviation,
    averaged_allan,
    bandwidth_minus3db,
    cmrr_db,
    correlation_coefficient,
    find_stability_interval,
    noise_spectrum,
    overall_efficiency,
    snr_and_efficiency,
    variance_vs_power,
    write_allan_csv,
    write_cc_csv,
    write_noise_curve_csv,
    write_spectrum_csv,
)
from .detector import (
    DetectorConfig,
    _child_seed,
    _pulse_shape,
    _seeded_rng,
    _signal_areas,
    _stream_trace_bin,
    _stream_trace_csv,
    _trace_blocks,
    _trace_t0,
    area_scale,
    electronic_only_areas,
    generate_areas,
    leakage_area,
    photons_per_pulse,
    single_diode_pulse_area,
)
from .extraction import (
    VACUUM_VARIANCE,
    QuadratureBatch,
    apply_calibration,
    calibrate_vacuum,
    write_batch_csv,
)
from .states import (
    DEFAULT_CUTOFF,
    SAMPLE_GRID_HALFSPAN,
    SAMPLE_GRID_MAX_CUTOFF,
    StateModel,
    _check_kind_fields,
    fidelity_pure,
    photon_statistics,
    pure_state_vector,
    sample_quadratures,
    state_density_matrix,
    wigner,
)
from .tomography import (
    mle_reconstruct,
    write_density_matrix_csv,
    write_photon_statistics_csv,
    write_wigner_csv,
)

# At exit CPython collects every tracked object (numpy's and this package's
# modules, functions and classes, ~23k after a run) and frees them one by one,
# ~10 ms per CLI process.  Atexit hooks run before those collections, and a
# frozen heap is skipped by them; the OS reclaims its memory.  Nothing changes
# before exit, so an in-process caller of main() keeps its collector.
atexit.register(gc.freeze)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PhaseSchedule",
    "TomographyOptions",
    "load_config",
    "run_characterize",
    "run_tomography",
    "run_trace_export",
    "main",
]

DEFAULT_N_PULSES = {"characterize": 40_000, "tomography": 10_000, "trace-export": 100}
# the most float64 items one numpy array can describe (2**60 - 1 on 64 bits)
MAX_N_PULSES = np.iinfo(np.intp).max // 8

# characterization protocol constants
POWER_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
CC_RECORDS = 20
CC_PULSES = 2000
CC_MAX_LAG = 9
ALLAN_RECORDS = 10
ALLAN_DURATION_S = 80.0
ALLAN_BLOCK_S = 1e-3
SEGMENT_LEN_BAND = 2**10
SEGMENT_LEN_LINE = 2**15
SPECTRUM_PULSES = 20_972  # 16 full 2**15-sample segments at 25 samples per pulse
# the battery sums up to ~1e16 squares of its LO powers, pulse areas, area
# variances, trace samples and Allan block means: each must lie in this range
# for its square to be a normal float with that much room to spare
BATTERY_RANGE = (math.sqrt(sys.float_info.min * 1e16), math.sqrt(sys.float_info.max / 1e16))
# calibrate_vacuum refuses areas whose mean lies 1e9 standard deviations out
CALIBRATION_MAX_OFFSET = 1e8

WIGNER_HALFSPAN = 5.0
WIGNER_POINTS = 101


class ConfigError(ValueError):
    """Invalid or unusable experiment configuration."""


@dataclass(frozen=True)
class TomographyOptions:
    """How a tomography run samples and reconstructs, passed whole to :func:`mle_reconstruct`:
    ``cutoff`` in ``[2, 20]``, the Fock cutoff of sampling and reconstruction;
    ``bin_width`` in ``(16 / 2**53, 16]``, so bin indices across the ``[-8, 8]``
    sampling grid stay exact integers and no bin is wider than that grid; ``tol``,
    positive and finite, the relative log-likelihood gain at which a step has
    stalled; ``max_iter``, at least 1, the most steps taken; and ``eta`` in
    ``(0, 1]``, the detection efficiency the samples include and the POVM corrects."""

    cutoff: int = DEFAULT_CUTOFF
    bin_width: float = 0.1
    tol: float = 1e-9
    max_iter: int = 2000
    eta: float = 1.0

    def __post_init__(self):
        # a state above the largest cutoff would be sampled from a density
        # truncated at the edges of the sampling grid
        if not 2 <= self.cutoff <= SAMPLE_GRID_MAX_CUTOFF:
            raise ConfigError(f"tomography cutoff must lie in [2, {SAMPLE_GRID_MAX_CUTOFF}]")
        # an infinite tol would stop the reconstruction at its first plain step
        if not (0 < self.tol < math.inf and self.max_iter >= 1):
            raise ConfigError("tol must be positive and finite, and max_iter positive")
        # bin indices across the sampling grid must stay exact integers, and a
        # bin wider than the grid holds every sample
        grid_span = 2.0 * SAMPLE_GRID_HALFSPAN
        if not grid_span / 2**53 < self.bin_width <= grid_span:
            raise ConfigError(f"bin_width must lie in ({grid_span / 2**53:.3g}, {grid_span:g}]")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError("tomography eta must lie in (0, 1]")


@dataclass(frozen=True)
class PhaseSchedule:
    """LO phase per pulse: a constant, an explicit list, a stepped sweep
    covering ``[start, start + span)``, or uniform random phases.

    ``KIND_FIELDS`` names the fields each kind reads; a field that only
    another kind reads must keep its default, or the constructor raises
    ``ConfigError``.
    """

    KIND_FIELDS = {
        "constant": ("value",),
        "list": ("values",),
        "sweep": ("count", "start", "span"),
        "random": (),
    }

    kind: str = "constant"
    value: float = 0.0
    values: tuple[float, ...] = ()
    count: int = 7
    start: float = 0.0
    span: float = math.pi

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))  # so [] is the default ()
        _check_kind_fields(self, "phase schedule", ConfigError)
        if self.kind == "list" and not self.values:
            raise ConfigError("phase list must not be empty")
        if self.kind == "sweep" and self.count < 1:
            raise ConfigError("sweep count must be at least 1")
        if not np.all(np.isfinite([self.value, self.start, self.span, *self.values])):
            raise ConfigError("phases must be finite")
        # the settings run monotonically from start, so the last one, computed
        # alone by realize's arithmetic, is finite only if all are
        if self.kind == "sweep" and not math.isfinite(
            self.start + self.span * (self.count - 1) / self.count
        ):
            raise ConfigError("sweep phases must be finite")

    @property
    def settings(self) -> int:
        """Phase settings the pulses are shared out between; a constant or
        random schedule counts as one."""
        return {"list": len(self.values), "sweep": self.count}.get(self.kind, 1)

    def realize(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.settings > n:  # before any setting is built: a count can be huge
            raise ConfigError("more phase settings than pulses")
        if self.kind == "random":
            return rng.uniform(0.0, 2.0 * math.pi, n)
        if self.kind == "sweep":
            vals = self.start + self.span * np.arange(self.count) / self.count
        else:  # a constant is a list of one: its values stay empty
            vals = np.asarray(self.values or (self.value,), dtype=float)
        # contiguous blocks per phase setting, remainder spread over the first ones
        counts = np.full(vals.size, n // vals.size)
        counts[: n % vals.size] += 1
        return np.repeat(vals, counts)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run of the CLI.  ``KIND_FIELDS`` names the sections each run
    reads besides ``n_pulses``, ``seed`` and ``out_dir``; a section that
    the run does not read must keep its default, or the constructor raises
    ``ConfigError``.  Tomography samples quadratures, not traces, so it
    takes no detector."""

    KIND_FIELDS = {
        "characterize": ("detector",),
        "tomography": ("state", "phases", "tomography"),
        "trace-export": ("detector", "state", "phases"),  # sampled at the default cutoff
    }

    run: str
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    state: StateModel = field(default_factory=StateModel.vacuum)
    phases: PhaseSchedule = field(default_factory=PhaseSchedule)
    n_pulses: int | None = None  # None: DEFAULT_N_PULSES[run]
    seed: int = 0
    out_dir: str = "."
    tomography: TomographyOptions = field(default_factory=TomographyOptions)

    def __post_init__(self):
        if self.run not in RUN_KINDS:
            raise ConfigError(f"run must be one of {RUN_KINDS}")
        _check_kind_fields(self, "run", ConfigError, ("n_pulses", "seed", "out_dir"), key="run")
        if self.n_pulses is None:
            object.__setattr__(self, "n_pulses", DEFAULT_N_PULSES[self.run])
        if self.n_pulses > MAX_N_PULSES:  # before any float is formed from it
            raise ConfigError(f"n_pulses must be at most {MAX_N_PULSES}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.run == "characterize":
            _check_battery_range(self.detector, self.n_pulses)
        if self.n_pulses < 1:
            raise ConfigError(f"n_pulses must be at least 1 for run {self.run!r}")
        if self.phases.settings > self.n_pulses:
            raise ConfigError(
                f"{self.phases.settings} phase settings need at least as many pulses,"
                f" not {self.n_pulses}"
            )
        try:
            state_density_matrix(self.state, self.tomography.cutoff)
        except ValueError as exc:  # a Fock state, or a mixture's, at or above the cutoff
            raise ConfigError(f"{self.run} state: {exc}") from None


RUN_KINDS = tuple(ExperimentConfig.KIND_FIELDS)


def _coerce(hint, value, where: str):
    """Coerce one JSON value to the resolved annotation ``hint``."""
    if is_dataclass(hint):
        return _from_json(hint, value, where)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _coerce(args[0], value, where)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return tuple(_coerce(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if hint is complex and isinstance(value, list) and len(value) == 2:
        return complex(*(_coerce(float, v, where) for v in value))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    accepts = {
        int: ("an integer", number and (isinstance(value, int) or value.is_integer())),
        float: ("a number", number),
        complex: ("a number or [re, im]", number),
        str: ("a string", isinstance(value, str)),
    }
    what, ok = accepts[hint]
    if not ok:
        raise ConfigError(f"{where} must be {what}, not {value!r:.40}")
    return hint(value)


def _from_json(cls, section, where: str):
    """Build the dataclass ``cls`` from the JSON object ``section``.

    The allowed keys are the field names, each value is coerced by its
    field's annotation, and every fault, including one raised by the class's
    own validation, becomes one ConfigError naming the dotted path ``where``.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    hints = typing.get_type_hints(cls)
    try:
        return cls(**{k: _coerce(hints[k], v, f"{where}.{k}") for k, v in section.items()})
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def load_config(
    path,
    run: str | None = None,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; unknown keys are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    cfg_run = doc.setdefault("run", run)
    if run is not None and cfg_run != run:
        raise ConfigError(f"config run {cfg_run!r} does not match subcommand {run!r}")
    if seed_override is not None:
        doc["seed"] = seed_override
    if out_override is not None:
        doc["out_dir"] = out_override
    try:
        return _from_json(ExperimentConfig, doc, "config")
    except RecursionError:  # a mixture of a mixture of ... hundreds deep
        raise ConfigError("config nests too deeply") from None


def _atomic(out: str, name: str, write_fn, *args) -> None:
    """Write artifact ``name`` into ``out`` by ``write_fn(*args, tmp)`` and a
    rename; a writer that raises leaves no new file, and the previous
    artifact, if any, in place.

    Once the writer has succeeded the previous artifact is unlinked before
    the rename: on ext4 a rename over an existing file costs tens of ms, an
    unlink and a rename about 0.01 ms.  Between the two ``name`` is absent.
    """
    path = os.path.join(out, name)
    tmp = f"{path}.tmp"
    try:
        write_fn(*args, tmp)
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _prepare_out_dir(config: ExperimentConfig) -> str:
    out = config.out_dir
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory is not writable: {exc}") from exc
    return out


def _vacuum_areas(det: DetectorConfig, n_pulses: int, seed: int) -> np.ndarray:
    return generate_areas(det, StateModel.vacuum(), [0.0], n_pulses, seed)


def _variance(areas_fn, det: DetectorConfig, n_pulses: int, seed: int) -> float:
    return float(np.var(areas_fn(det, n_pulses, seed), ddof=1))


def _spectrum(det: DetectorConfig, seed: int, segment_len: int, area: float | None = None):
    """Noise spectrum of ``SPECTRUM_PULSES`` pulses of area ``area``, or of
    vacuum signal areas if None, fed to it in pulse blocks as they are drawn,
    so the trace is never held."""
    if area is None:
        areas = _signal_areas(det, StateModel.vacuum(), [0.0], SPECTRUM_PULSES, seed)
    else:
        areas = np.full(SPECTRUM_PULSES, area)
    blocks = _trace_blocks(det, areas, seed)
    return noise_spectrum(blocks, segment_len, sample_rate=det.sample_rate)


def _pulse_rolls_off(det: DetectorConfig, segment_len: int) -> bool:
    """Whether the sampled pulse's own power response falls 3 dB below its
    DC value at some frequency of the ``segment_len`` spectrum grid; if it
    never does, any crossing a noisy spectrum shows is noise."""
    shape = _pulse_shape(det)
    # the grid samples the pulse's transform at k / segment_len: fold it to that length
    folded = np.bincount(np.arange(shape.size) % segment_len, shape, minlength=segment_len)
    response = np.abs(np.fft.rfft(folded)) ** 2
    return bool(np.any(response < response[0] * 10 ** (-0.3)))


def _allan_block_pulses(det: DetectorConfig) -> int:
    return int(round(det.f_rep * ALLAN_BLOCK_S))


def _check_battery_range(det: DetectorConfig, n_pulses: int) -> None:
    """Raise ConfigError if the characterize battery cannot be carried out
    on ``n_pulses`` pulses of ``det`` in float64.

    Bounds from the detector model: a pulse area is the leakage plus
    ``area_scale`` times a quadrature, which the sampling grid keeps within
    ``SAMPLE_GRID_HALFSPAN``, plus the drift; a trace sample is at most an
    area times ``sample_rate``, the peak of a unit-area pulse.  The drift
    over ``m`` pulses is taken as its ramp plus one standard deviation of
    its walk.
    """
    s, leak, var_elec = area_scale(det), leakage_area(det), det.elec_noise_area_var
    rate, walk = abs(det.drift.linear_rate), det.drift.random_walk_sigma

    def drift(m: float) -> float:  # in quadrature units
        return rate * m / det.f_rep + walk * math.sqrt(m)

    n_lo = photons_per_pulse(det.p_lo, det.wavelength, det.f_rep)
    shot_var = s * s * VACUUM_VARIANCE
    least_var = min(POWER_FRACTIONS[0] * shot_var, var_elec or math.inf)
    spread = s * drift(max(n_pulses, 0))  # the drift's share of a record's areas
    area = leak + s * (SAMPLE_GRID_HALFSPAN + drift(max(n_pulses, SPECTRUM_PULSES)))
    area = max(area, single_diode_pulse_area(det))
    low, high = BATTERY_RANGE
    bounds = (  # what, its value, the least and the most it may be
        # the battery takes sample variances of every record's areas
        ("number of pulses", n_pulses, 2, math.inf),
        ("number of pulses per Allan block", _allan_block_pulses(det), 1, math.inf),
        # the CC records are calibrated against their own vacuum areas; the
        # drift starts from 0 in every record, so it widens the areas as much
        # as it offsets them, and only the leakage can outgrow their spread
        ("leakage area", leak, 0.0, CALIBRATION_MAX_OFFSET * s * math.sqrt(VACUUM_VARIANCE)),
        # the CMRR divides the single-diode line by the balanced trace's PSD at
        # f_rep; the single-diode area is sqrt(n_lo / 8) shot-noise areas, so
        # with fewer LO photons that ratio can underflow against a steep drift
        ("LO photons per pulse", n_lo, 1.0, math.inf),
        ("LO power", det.p_lo, low / POWER_FRACTIONS[0], high),
        # the battery calibrates against shot noise, which a blind photodiode lacks
        ("shot-noise area variance", shot_var, low, high),
        ("smallest pulse-area variance", least_var, low, high),
        ("largest pulse-area variance", shot_var + spread * spread + var_elec, 0.0, high),
        ("largest pulse area", area, 0.0, high),
        ("largest trace sample", (area + 10.0 * math.sqrt(var_elec)) * det.sample_rate, 0.0, high),
        ("drift over the Allan records", drift(ALLAN_DURATION_S * det.f_rep), 0.0, high),
    )
    for what, value, least, most in bounds:
        if not least <= value <= most:
            raise ConfigError(
                f"characterize cannot run its battery: the {what},"
                f" {value:.3g}, lies outside [{least:.3g}, {most:.3g}]"
            )


def _thinned_vacuum_blocks(det: DetectorConfig, seed: int) -> QuadratureBatch:
    """Block means of a long vacuum record, drawn from the exact Gaussian
    law of block averages instead of synthesizing every pulse.

    A block is ``ALLAN_BLOCK_S`` rounded to whole pulses, ``n`` of them.  The
    random walk's share of block ``k`` is its value before the block plus an
    offset ``M``, and the walk moves by ``S`` over the block.  ``S`` and ``M``
    are drawn jointly from their exact law: with ``sigma`` the per-pulse step,
    ``Var S = n sigma^2``, ``Var M = sigma^2 (n+1)(2n+1) / (6n)`` and
    ``Cov(S, M) = sigma^2 (n+1) / 2``.  The linear ramp and shot-noise
    statistics are exact too.
    """
    n = _allan_block_pulses(det)
    n_blocks = int(round(ALLAN_DURATION_S / ALLAN_BLOCK_S))
    rng = _seeded_rng(seed, 0)
    centers = (np.arange(n_blocks) * n + (n - 1) / 2.0) / det.f_rep
    means = det.drift.linear_rate * centers + rng.normal(0.0, math.sqrt(0.5 / n), n_blocks)
    sigma = det.drift.random_walk_sigma
    if sigma > 0:
        z1, z2 = sigma * rng.standard_normal((2, n_blocks))
        moves = math.sqrt(n) * z1
        offsets = (n + 1) / (2 * math.sqrt(n)) * z1 + math.sqrt((n * n - 1) / (12 * n)) * z2
        means = means + (np.cumsum(moves) - moves + offsets)
    return QuadratureBatch(values=means)


def _allan_tau_grid(block_s: float) -> np.ndarray:
    """Averaging intervals of whole ``block_s`` blocks, 20 per decade."""
    max_m = int(ALLAN_DURATION_S / ALLAN_BLOCK_S) // 2
    exps = np.arange(0.0, math.log10(max_m) + 1e-9, 0.05)
    m = np.round(10.0**exps).astype(int)  # nondecreasing
    m = m[(np.diff(m, prepend=0) > 0) & (m <= max_m)]  # np.unique would import numpy.ma
    return m * block_s


def _allan_record(det: DetectorConfig, seed: int, r: int) -> AllanCurve:
    """Allan curve of block-thinned vacuum record ``r``, timed by the true
    block length: whole pulses, not ``ALLAN_BLOCK_S``."""
    block_s = _allan_block_pulses(det) / det.f_rep
    blocks = _thinned_vacuum_blocks(det, _child_seed(seed, 50 + r))
    return allan_deviation(blocks, 1.0 / block_s, _allan_tau_grid(block_s))


def _cc_record(det: DetectorConfig, seed: int, r: int) -> list:
    """Pulse-to-pulse CC at lags 0 .. ``CC_MAX_LAG`` of calibrated vacuum record ``r``."""
    areas = _vacuum_areas(det, CC_PULSES, _child_seed(seed, 30 + r))
    batch = apply_calibration(areas, calibrate_vacuum(areas))
    return [correlation_coefficient(batch, m)[0] for m in range(CC_MAX_LAG + 1)]


def _run_records(records: list, order) -> list:
    """Results of the zero-argument ``records``, in list order.

    This thread and one helper thread each take the next record not yet
    started, in ``order``, a permutation of the record indices.  The first
    exception a record raises stops both and is raised here."""
    results = [None] * len(records)
    failed = []
    lock = threading.Lock()
    pending = iter(order)

    def work():
        while True:
            with lock:
                i = None if failed else next(pending, None)
            if i is None:
                return
            try:
                results[i] = records[i]()
            except BaseException as exc:  # noqa: BLE001 - raised again on the caller
                failed.append(exc)

    helper = threading.Thread(target=work, name="characterize-helper")
    helper.start()
    try:
        work()
    finally:
        helper.join()
    if failed:
        raise failed[0]
    return results


def run_characterize(config: ExperimentConfig) -> DetectorReport:
    """Full characterization battery; writes report.json and curve CSVs.

    Every record has its own child seed, and numpy releases the GIL in the
    kernels where the records spend their time, so ``_run_records`` runs the
    battery's records on two threads with no float changed.
    Area records are integrated, and spectrum records transformed, block by
    block as they are drawn, so no record holds a trace.
    """
    out = _prepare_out_dir(config)
    det, n, seed = config.detector, config.n_pulses, config.seed
    powers = [det.p_lo * frac for frac in POWER_FRACTIONS]
    # bandwidth is read off the smooth shot-noise rolloff: measure it on a
    # leakage-free vacuum trace so the repetition-rate spur cannot lift
    # the -3 dB crossing
    det_clean = replace(det, cmrr_db=math.inf)
    blocked_area = single_diode_pulse_area(det)
    large = [
        *(
            partial(_variance, _vacuum_areas, det.with_power(p), n, _child_seed(seed, i))
            for i, p in enumerate(powers)
        ),
        partial(_variance, electronic_only_areas, det, n, _child_seed(seed, 10)),
        partial(_spectrum, det_clean, _child_seed(seed, 20), SEGMENT_LEN_BAND),
        partial(_spectrum, det, _child_seed(seed, 21), SEGMENT_LEN_BAND, 0.0),
        partial(_spectrum, det, _child_seed(seed, 22), SEGMENT_LEN_LINE, blocked_area),
        partial(_spectrum, det, _child_seed(seed, 23), SEGMENT_LEN_LINE),
    ]
    small = [
        *(partial(_allan_record, det, seed, r) for r in range(ALLAN_RECORDS)),
        *(partial(_cc_record, det, seed, r) for r in range(CC_RECORDS)),
    ]
    # each large record is taken with its share of the small ones after it:
    # against largest first, the battery ran 7% faster and peaked 0.6 MB lower
    share = np.r_[np.arange(len(large)) / len(large), np.arange(len(small)) / len(small)]
    results = _run_records(large + small, share.argsort(kind="stable"))
    *variances, var_elec, shot_band, elec_band, blocked_line, balanced_line = results[: len(large)]
    points = list(zip(powers, variances))
    mean_curve = averaged_allan(results[len(large) : len(large) + ALLAN_RECORDS])
    cc_values = np.array(results[len(large) + ALLAN_RECORDS :])
    cc_rows = tuple((m, float(c.mean()), float(c.std(ddof=1))) for m, c in enumerate(cc_values.T))

    curve = variance_vs_power(points)
    var_total = points[-1][1]
    if var_elec > 0.0:
        snr_db, eta_en = snr_and_efficiency(var_total, var_elec)
    else:
        snr_db, eta_en = None, 1.0  # noiseless electronics
    eta_bhd = overall_efficiency(eta_en, det.eta_pd)
    bandwidth = None
    if _pulse_rolls_off(det, SEGMENT_LEN_BAND):
        bandwidth = bandwidth_minus3db(shot_band, elec_band)
    rejection = cmrr_db(balanced_line, blocked_line, det.f_rep)

    report = DetectorReport(
        snr_db=snr_db,
        eta_en=eta_en,
        eta_pd=det.eta_pd,
        eta_bhd=eta_bhd,
        bandwidth_hz=bandwidth,
        cc=cc_rows,
        cmrr_db=rejection,
        stability_interval_s=find_stability_interval(mean_curve),
    )
    _atomic(out, "report.json", _write_json, report.to_json_dict())
    _atomic(out, "noise_curve.csv", write_noise_curve_csv, curve)
    _atomic(out, "allan.csv", write_allan_csv, mean_curve)
    _atomic(out, "spectrum.csv", write_spectrum_csv, shot_band)
    _atomic(out, "cc.csv", write_cc_csv, cc_rows)
    return report


def run_tomography(config: ExperimentConfig) -> dict:
    """Sample the configured state, reconstruct it, and write state artifacts.

    The tomography ``eta`` plays both of its physical roles: the sampled
    data include detection loss at ``eta``, and the reconstruction POVM
    corrects for it, so the returned state estimates the signal before the
    detector.  A vacuum, which loss maps to itself, is sampled as it is.
    ``samples.csv`` stamps pulse ``k`` at ``k / 80 MHz``, the default
    detector's repetition rate.
    """
    out = _prepare_out_dir(config)
    opts = config.tomography
    n = config.n_pulses
    phases = config.phases.realize(n, _seeded_rng(config.seed, 0))
    state = config.state
    if "efficiency" in StateModel.KIND_FIELDS[state.kind]:
        state = replace(state, efficiency=state.efficiency * opts.eta)
    batch = sample_quadratures(state, phases, n, _child_seed(config.seed, 1), cutoff=opts.cutoff)
    batch = replace(batch, timestamps=np.arange(n) / DetectorConfig.f_rep)
    result = mle_reconstruct(batch, **asdict(opts))  # its fields are the parameters
    rho = result.rho
    axis = np.linspace(-WIGNER_HALFSPAN, WIGNER_HALFSPAN, WIGNER_POINTS)
    grid = wigner(rho, axis, axis)
    stats = photon_statistics(rho)
    target = pure_state_vector(config.state, opts.cutoff)
    pure = target is not None and config.state.efficiency == 1.0
    fidelity = fidelity_pure(rho, target) if pure else None
    w00 = float(grid.values[WIGNER_POINTS // 2, WIGNER_POINTS // 2])  # the axis's centre is 0.0
    summary = {
        "fidelity": fidelity,
        "w00": w00,
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "final_log_likelihood": float(result.history[-1]),
        "gap_bound": result.gap_bound,
    }
    _atomic(out, "rho.csv", write_density_matrix_csv, rho)
    _atomic(out, "wigner.csv", write_wigner_csv, grid)
    _atomic(out, "photon_stats.csv", write_photon_statistics_csv, stats)
    _atomic(out, "samples.csv", write_batch_csv, batch)
    _atomic(out, "summary.json", _write_json, summary)
    return summary


def run_trace_export(config: ExperimentConfig) -> None:
    """Export the trace that :func:`generate_areas` integrates as CSV and raw binary.

    Each writer draws the trace anew in pulse blocks and writes each block as
    it comes, so no trace is held.  A non-finite sample raises in the writer
    and leaves no file, so an overflow in the synthesis does not also warn.
    """
    out = _prepare_out_dir(config)
    det, n, seed = config.detector, config.n_pulses, _child_seed(config.seed, 1)
    phases = config.phases.realize(n, _seeded_rng(config.seed, 0))
    head = (det.sample_rate, _trace_t0(det))
    with np.errstate(over="ignore", invalid="ignore"):
        areas = _signal_areas(det, config.state, phases, n, seed)
        _atomic(out, "trace.csv", _stream_trace_csv, *head, _trace_blocks(det, areas, seed))
        _atomic(out, "trace.bin", _stream_trace_bin, *head, _trace_blocks(det, areas, seed))


_RUNNERS = {
    "characterize": run_characterize,
    "tomography": run_tomography,
    "trace-export": run_trace_export,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pulsequad",
        description="Pulsed balanced homodyne detector simulator and analysis pipelines",
    )
    parser.add_argument(
        "--version", action="version", version=f"pulsequad {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUN_KINDS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output directory")
    args = parser.parse_args(argv)

    try:
        config = load_config(
            args.config, run=args.command, seed_override=args.seed, out_override=args.out
        )
        _RUNNERS[config.run](config)
    except ConfigError as exc:
        print(f"pulsequad: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and set exit status
        print(f"pulsequad: error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
