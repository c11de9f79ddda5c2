"""Config-driven command line front end.

``pulsequad <characterize|tomography|trace-export> --config FILE`` runs a
full experiment from a single JSON document and writes plot-ready CSV/JSON
artifacts.  Runs are byte-reproducible for a fixed config and seed; every
output file is written atomically (temp file + rename).

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import __version__
from .characterization import (
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
    time_bandwidth_product,
    variance_vs_power,
    write_allan_csv,
    write_cc_csv,
    write_noise_curve_csv,
    write_spectrum_csv,
)
from .detector import (
    DetectorConfig,
    _child_seed,
    _seeded_rng,
    electronic_only_areas,
    electronic_only_trace,
    generate_areas,
    generate_trace,
    single_diode_trace,
    write_trace_binary,
    write_trace_csv,
)
from .extraction import (
    QuadratureBatch,
    apply_calibration,
    calibrate_vacuum,
    write_batch_csv,
)
from .states import (
    DEFAULT_CUTOFF,
    SAMPLE_GRID_HALFSPAN,
    StateModel,
    fidelity_pure,
    photon_statistics,
    pure_state_vector,
    sample_quadratures,
    wigner,
)
from .tomography import (
    mle_reconstruct,
    write_density_matrix_csv,
    write_photon_statistics_csv,
    write_wigner_csv,
)

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

RUN_KINDS = ("characterize", "tomography", "trace-export")

DEFAULT_N_PULSES = {"characterize": 40_000, "tomography": 10_000, "trace-export": 100}

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

WIGNER_HALFSPAN = 5.0
WIGNER_POINTS = 101


class ConfigError(ValueError):
    """Invalid or unusable experiment configuration."""


@dataclass(frozen=True)
class TomographyOptions:
    cutoff: int = DEFAULT_CUTOFF
    bin_width: float = 0.1
    tol: float = 1e-9
    max_iter: int = 2000
    eta: float = 1.0

    def __post_init__(self):
        if self.cutoff < 2:
            raise ConfigError("tomography cutoff must be at least 2")
        if not (self.bin_width > 0 and self.tol > 0 and self.max_iter >= 1):
            raise ConfigError("bin_width, tol and max_iter must be positive")
        # bin indices across the sampling grid must stay exact integers
        grid_span = 2.0 * SAMPLE_GRID_HALFSPAN
        if not (math.isfinite(self.bin_width) and grid_span / self.bin_width < 2**53):
            raise ConfigError(
                f"bin_width must be finite and greater than {grid_span / 2**53:.3g}"
            )
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError("tomography eta must lie in (0, 1]")


@dataclass(frozen=True)
class PhaseSchedule:
    """LO phase per pulse: a constant, an explicit list, a stepped sweep
    covering ``[start, start + span)``, or uniform random phases."""

    kind: str = "constant"
    value: float = 0.0
    values: tuple[float, ...] = ()
    count: int = 7
    start: float = 0.0
    span: float = math.pi

    def __post_init__(self):
        if self.kind not in ("constant", "list", "sweep", "random"):
            raise ConfigError(f"unknown phase schedule kind {self.kind!r}")
        if self.kind == "list" and not self.values:
            raise ConfigError("phase list must not be empty")
        if self.kind == "sweep" and self.count < 1:
            raise ConfigError("sweep count must be at least 1")
        if not np.all(np.isfinite([self.value, self.start, self.span, *self.values])):
            raise ConfigError("phases must be finite")

    def realize(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n, self.value)
        if self.kind == "random":
            return rng.uniform(0.0, 2.0 * math.pi, n)
        if self.kind == "sweep":
            vals = self.start + self.span * np.arange(self.count) / self.count
        else:
            vals = np.asarray(self.values, dtype=float)
        # contiguous blocks per phase setting, remainder spread over the first ones
        counts = np.full(vals.size, n // vals.size)
        counts[: n % vals.size] += 1
        if counts.min() < 1:
            raise ConfigError("more phase settings than pulses")
        return np.repeat(vals, counts)


@dataclass(frozen=True)
class ExperimentConfig:
    run: str
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    state: StateModel = field(default_factory=StateModel.vacuum)
    phases: PhaseSchedule = field(default_factory=PhaseSchedule)
    n_pulses: int = 0
    seed: int = 0
    out_dir: str = "."
    tomography: TomographyOptions = field(default_factory=TomographyOptions)

    def __post_init__(self):
        if self.run not in RUN_KINDS:
            raise ConfigError(f"run must be one of {RUN_KINDS}")
        # characterize takes sample variances over n_pulses pulse areas
        min_pulses = 2 if self.run == "characterize" else 1
        if self.n_pulses < min_pulses:
            raise ConfigError(f"n_pulses must be at least {min_pulses} for run {self.run!r}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.run == "characterize" and _allan_block_pulses(self.detector) < 1:
            raise ConfigError(
                f"characterize needs at least one pulse per {ALLAN_BLOCK_S:g} s Allan block;"
                f" f_rep {self.detector.f_rep:g} Hz gives none"
            )
        # characterize samples no configured state; trace-export samples at DEFAULT_CUTOFF
        cutoffs = {"tomography": self.tomography.cutoff, "trace-export": DEFAULT_CUTOFF}
        cutoff = cutoffs.get(self.run, math.inf)
        n_max = max(_fock_numbers(self.state), default=-1)
        if n_max >= cutoff:
            raise ConfigError(
                f"fock({n_max}) state does not fit below the {self.run} cutoff {cutoff}"
            )


def _fock_numbers(state: StateModel) -> list[int]:
    """Photon numbers of the Fock states in ``state``, mixture components included."""
    if state.kind == "mixture":
        return [n for c in state.components for n in _fock_numbers(c)]
    return [state.n] if state.kind == "fock" else []


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
        with open(path) as fh:
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
    if cfg_run not in RUN_KINDS:
        raise ConfigError(f"config.run must be one of {RUN_KINDS}")
    if seed_override is not None:
        doc["seed"] = seed_override
    if out_override is not None:
        doc["out_dir"] = out_override
    doc.setdefault("n_pulses", DEFAULT_N_PULSES[cfg_run])
    return _from_json(ExperimentConfig, doc, "config")


def _atomic(out: str, name: str, write_fn, *args) -> None:
    """Write artifact ``name`` into ``out`` by ``write_fn(*args, tmp)`` and a rename."""
    path = os.path.join(out, name)
    write_fn(*args, f"{path}.tmp")
    os.replace(f"{path}.tmp", path)


def _write_json(doc: dict, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _prepare_out_dir(config: ExperimentConfig) -> str:
    out = config.out_dir
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory is not writable: {exc}") from exc
    return out


def _vacuum_trace(det: DetectorConfig, n_pulses: int, seed: int):
    return generate_trace(det, StateModel.vacuum(), [0.0], n_pulses, seed)[0]


def _vacuum_areas(det: DetectorConfig, n_pulses: int, seed: int) -> np.ndarray:
    return generate_areas(det, StateModel.vacuum(), [0.0], n_pulses, seed)


def _allan_block_pulses(det: DetectorConfig) -> int:
    return int(round(det.f_rep * ALLAN_BLOCK_S))


def _thinned_vacuum_blocks(det: DetectorConfig, seed: int) -> QuadratureBatch:
    """Block means of a long vacuum record, drawn from the exact Gaussian
    law of block averages instead of synthesizing every pulse.

    A random-walk drift component is approximated by its value at block
    centres; the linear ramp and shot-noise statistics are exact.
    """
    n_per_block = _allan_block_pulses(det)
    n_blocks = int(round(ALLAN_DURATION_S / ALLAN_BLOCK_S))
    rng = _seeded_rng(seed, 0)
    centers = (np.arange(n_blocks) * n_per_block + (n_per_block - 1) / 2.0) / det.f_rep
    means = det.drift.linear_rate * centers + rng.normal(
        0.0, math.sqrt(0.5 / n_per_block), n_blocks
    )
    if det.drift.random_walk_sigma > 0:
        step = det.drift.random_walk_sigma * math.sqrt(n_per_block)
        means = means + np.cumsum(rng.normal(0.0, step, n_blocks))
    return QuadratureBatch(values=means)


def _allan_tau_grid() -> np.ndarray:
    max_m = int(ALLAN_DURATION_S / ALLAN_BLOCK_S) // 2
    exps = np.arange(0.0, math.log10(max_m) + 1e-9, 0.05)  # 20 points per decade
    m = np.round(10.0**exps).astype(int)  # nondecreasing
    m = m[(np.diff(m, prepend=0) > 0) & (m <= max_m)]  # np.unique would import numpy.ma
    return m * ALLAN_BLOCK_S


def run_characterize(config: ExperimentConfig) -> DetectorReport:
    """Full characterization battery; writes report.json and curve CSVs."""
    out = _prepare_out_dir(config)
    det = config.detector
    seed = config.seed

    # area records are integrated block by block as they are drawn and never
    # hold a trace; only the four spectrum records below hold one, in turn
    points = []
    for i, frac in enumerate(POWER_FRACTIONS):
        cfg_i = det.with_power(det.p_lo * frac)
        areas = _vacuum_areas(cfg_i, config.n_pulses, _child_seed(seed, i))
        points.append((cfg_i.p_lo, float(np.var(areas, ddof=1))))
    curve = variance_vs_power(points)

    elec_areas = electronic_only_areas(det, config.n_pulses, _child_seed(seed, 10))
    var_elec = float(np.var(elec_areas, ddof=1))
    var_total = points[-1][1]
    if var_elec > 0.0:
        snr_db, eta_en = snr_and_efficiency(var_total, var_elec)
    else:
        snr_db, eta_en = None, 1.0  # noiseless electronics
    eta_bhd = overall_efficiency(eta_en, det.eta_pd)

    # bandwidth is read off the smooth shot-noise rolloff: measure it on a
    # leakage-free vacuum trace so the repetition-rate spur cannot lift the
    # -3 dB crossing
    det_clean = replace(det, cmrr_db=math.inf)
    shot_band = noise_spectrum(
        _vacuum_trace(det_clean, SPECTRUM_PULSES, _child_seed(seed, 20)), SEGMENT_LEN_BAND
    )
    elec_band = noise_spectrum(
        electronic_only_trace(det, SPECTRUM_PULSES, _child_seed(seed, 21)), SEGMENT_LEN_BAND
    )
    bandwidth = bandwidth_minus3db(shot_band, elec_band)
    blocked_line = noise_spectrum(
        single_diode_trace(det, SPECTRUM_PULSES, _child_seed(seed, 22)), SEGMENT_LEN_LINE
    )
    balanced_line = noise_spectrum(
        _vacuum_trace(det, SPECTRUM_PULSES, _child_seed(seed, 23)), SEGMENT_LEN_LINE
    )
    rejection = cmrr_db(balanced_line, blocked_line, det.f_rep)

    cc_values = np.empty((CC_RECORDS, CC_MAX_LAG + 1))
    for r in range(CC_RECORDS):
        areas = _vacuum_areas(det, CC_PULSES, _child_seed(seed, 30 + r))
        batch = apply_calibration(areas, calibrate_vacuum(areas))
        for m in range(CC_MAX_LAG + 1):
            cc_values[r, m] = correlation_coefficient(batch, m)[0]
    cc_rows = tuple(
        (m, float(cc_values[:, m].mean()), float(cc_values[:, m].std(ddof=1)))
        for m in range(CC_MAX_LAG + 1)
    )

    taus = _allan_tau_grid()
    curves = [
        allan_deviation(
            _thinned_vacuum_blocks(det, _child_seed(seed, 50 + r)), 1.0 / ALLAN_BLOCK_S, taus
        )
        for r in range(ALLAN_RECORDS)
    ]
    mean_curve = averaged_allan(curves)
    stability = find_stability_interval(mean_curve)
    tbp = time_bandwidth_product(bandwidth, stability)

    report = DetectorReport(
        snr_db=snr_db,
        eta_en=eta_en,
        eta_pd=det.eta_pd,
        eta_bhd=eta_bhd,
        bandwidth_hz=bandwidth,
        cc=cc_rows,
        cmrr_db=rejection,
        stability_interval_s=stability,
        tbp=tbp,
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
    detector.
    """
    out = _prepare_out_dir(config)
    opts = config.tomography
    n = config.n_pulses
    phases = config.phases.realize(n, _seeded_rng(config.seed, 0))
    sampled_state = replace(
        config.state, efficiency=config.state.efficiency * opts.eta
    )
    batch = sample_quadratures(
        sampled_state, phases, n, _child_seed(config.seed, 1), cutoff=opts.cutoff
    )
    batch = replace(batch, timestamps=np.arange(n) / config.detector.f_rep)
    result = mle_reconstruct(
        batch,
        opts.cutoff,
        eta=opts.eta,
        bin_width=opts.bin_width,
        tol=opts.tol,
        max_iter=opts.max_iter,
    )
    rho = result.rho
    axis = np.linspace(-WIGNER_HALFSPAN, WIGNER_HALFSPAN, WIGNER_POINTS)
    grid = wigner(rho, axis, axis)
    stats = photon_statistics(rho)
    target = pure_state_vector(config.state, opts.cutoff)
    pure = target is not None and config.state.efficiency == 1.0
    fidelity = fidelity_pure(rho, target) if pure else None
    w00 = float(wigner(rho, [0.0], [0.0]).values[0, 0])
    summary = {
        "fidelity": fidelity,
        "w00": w00,
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "final_log_likelihood": float(result.history[-1]),
    }
    _atomic(out, "rho.csv", write_density_matrix_csv, rho)
    _atomic(out, "wigner.csv", write_wigner_csv, grid)
    _atomic(out, "photon_stats.csv", write_photon_statistics_csv, stats)
    _atomic(out, "samples.csv", write_batch_csv, batch)
    _atomic(out, "summary.json", _write_json, summary)
    return summary


def run_trace_export(config: ExperimentConfig) -> None:
    """Simulate one trace and export it as CSV and raw binary."""
    out = _prepare_out_dir(config)
    phases = config.phases.realize(config.n_pulses, _seeded_rng(config.seed, 0))
    trace, _ = generate_trace(
        config.detector,
        config.state,
        phases,
        config.n_pulses,
        _child_seed(config.seed, 1),
    )
    _atomic(out, "trace.csv", write_trace_csv, trace)
    _atomic(out, "trace.bin", write_trace_binary, trace)


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
