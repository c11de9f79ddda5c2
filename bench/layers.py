"""Per-layer metrics from the spans and counts of one traced child run.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
Spans are matched by function name, not by module, so a function that moves
to another module keeps its metric.
"""

from __future__ import annotations

from collections import defaultdict

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "tomography.mle_reconstruct_s": "s",
    "tomography.mle_iterations": "count",
    "tomography.mle_ms_per_iter": "ms",
    "tomography.mle_cells": "count",
    "states.quadrature_pdf_calls": "count",
    "states.quadrature_pdf_s": "s",
    "tomography.sample_quadratures_s": "s",
    "tomography.us_per_sample": "us",
    "extraction.write_batch_csv_s": "s",
    "tomography.writers_s": "s",
    "characterization.writers_s": "s",
    "cli.artifact_bytes": "bytes",
    "detector.generate_trace_s": "s",
    "detector.samples": "count",
    "detector.ns_per_sample": "ns",
    "extraction.segment_pulses_s": "s",
    "extraction.pulse_areas_s": "s",
    "extraction.windows": "count",
    "characterization.noise_spectrum_s": "s",
    "characterization.allan_deviation_s": "s",
    "characterization.correlation_coefficient_s": "s",
    "states.wigner_s": "s",
    "cli.load_config_s": "s",
    "cli.runner_self_s": "s",
    "tracing_overhead_s": "s",
}

TOMOGRAPHY_WRITERS = ("write_density_matrix_csv", "write_wigner_csv", "write_photon_statistics_csv")
CHARACTERIZATION_WRITERS = (
    "write_noise_curve_csv",
    "write_allan_csv",
    "write_spectrum_csv",
    "write_cc_csv",
)
RUNNERS = ("run_characterize", "run_tomography")

# Counts that must repeat exactly for a fixed config and seed.
EXACT_COUNTS = (
    "states.quadrature_pdf_calls",
    "tomography.mle_iterations",
    "tomography.mle_cells",
    "extraction.windows",
    "detector.samples",
)


def _ratio(num: float, den: float, scale: float) -> float:
    return num * scale / den if den else 0.0


def per_layer_metrics(trace: dict, artifact_bytes: int, overhead_s: float) -> dict:
    spans = trace["spans"]
    counts = trace["counts"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, parent, start, end) in enumerate(spans):
        fn = name.rpartition(".")[2]
        total[fn] += end - start
        self_time[fn] += end - start - child_time[i]
        calls[fn] += 1

    mle_s = total["mle_reconstruct"]
    iterations = counts.get("tomography.mle_iterations", 0)
    samples = counts.get("detector.samples", 0)
    values = {
        "tomography.mle_reconstruct_s": mle_s,
        "tomography.mle_iterations": iterations,
        "tomography.mle_ms_per_iter": _ratio(mle_s, iterations, 1e3),
        "tomography.mle_cells": counts.get("tomography.mle_cells", 0),
        "states.quadrature_pdf_calls": calls["quadrature_pdf"],
        "states.quadrature_pdf_s": total["quadrature_pdf"],
        "tomography.sample_quadratures_s": self_time["sample_quadratures"],
        "tomography.us_per_sample": _ratio(
            total["sample_quadratures"], counts.get("tomography.samples", 0), 1e6
        ),
        "extraction.write_batch_csv_s": total["write_batch_csv"],
        "tomography.writers_s": sum(total[f] for f in TOMOGRAPHY_WRITERS),
        "characterization.writers_s": sum(total[f] for f in CHARACTERIZATION_WRITERS),
        "cli.artifact_bytes": artifact_bytes,
        "detector.generate_trace_s": self_time["generate_trace"],
        "detector.samples": samples,
        "detector.ns_per_sample": _ratio(self_time["generate_trace"], samples, 1e9),
        "extraction.segment_pulses_s": total["segment_pulses"],
        "extraction.pulse_areas_s": total["pulse_areas"],
        "extraction.windows": counts.get("extraction.windows", 0),
        "characterization.noise_spectrum_s": total["noise_spectrum"],
        "characterization.allan_deviation_s": total["allan_deviation"],
        "characterization.correlation_coefficient_s": total["correlation_coefficient"],
        "states.wigner_s": total["wigner"],
        "cli.load_config_s": total["load_config"],
        "cli.runner_self_s": sum(self_time[f] for f in RUNNERS),
        "tracing_overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def span_shares(trace: dict, wall_s: float, top: int = 8) -> list:
    """The functions with the largest inclusive time: ``[name, seconds, share of
    the child's wall time, share of the CLI runner span]``."""
    total = defaultdict(float)
    for name, parent, start, end in trace["spans"]:
        total[name] += end - start
    runner = sum(t for name, t in total.items() if name.rpartition(".")[2] in RUNNERS)
    ranked = sorted(total.items(), key=lambda kv: -kv[1])[:top]
    return [[name, t, t / wall_s, t / runner if runner else None] for name, t in ranked]
