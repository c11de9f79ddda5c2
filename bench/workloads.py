"""The benchmark's workloads: one pulsequad CLI config each, plus its output check.

Why each workload is here, and which per-layer metric should move which
end-to-end metric on it (a metric predicted flat on a workload is the
control for an optimisation of that layer):

characterize-default
    ``characterize`` at the paper's defaults.  Work is spread over
    ``detector`` synthesis, ``extraction.pulse_areas`` and the
    ``characterization`` spectra/Allan/CC, with 27 single-phase sampler
    calls, and interpreter set-up is a large share of the wall time.
    Moved by: detector.generate_trace_s, detector.ns_per_sample,
    extraction.*, characterization.*_s (wall_s, peak_rss_mb);
    cli.load_config_s, cli.runner_self_s (setup_s, wall_s).  Sampler
    metrics must not get worse here.
tomo-coherent-random-1k
    A coherent state at 1000 random phases: one quadrature pdf table per
    sample makes the sampler over 90% of the run, while the MLE is tiny.
    Moved by: states.quadrature_pdf_*, tomography.sample_quadratures_s,
    tomography.us_per_sample (wall_s).  tomography.mle_* report its small
    MLE (about 70 iterations), the only one the benchmark runs; an MLE
    change moves wall_s little here.
Every workload's tomography and characterization writers, and
cli.artifact_bytes, are expected to move wall_s only a little.

Two runs are not workloads, because on a shared 2-core host their runs
spread past a 25% bound.  ``trace-export`` spends its time in one
pure-Python row loop whose speed swings by about 20% from one child to the
next.  The 100k-pulse heralded photon takes 15-25 s a child and its MLE
iteration count ranges over 280-480 with the seed, so a run of under a
minute holds two or three children and its median follows the seeds drawn.
Their layers are measured here all the same: ``detector`` on
characterize-default, ``tomography.mle_reconstruct`` on
tomo-coherent-random-1k.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """A run's outputs are outside the limits of its workload."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _check_characterize(out_dir: str, n_pulses: int, full: bool) -> dict:
    report = _read_json(out_dir, "report.json")
    results = {k: v for k, v in report.items() if k != "cc"}
    if full:
        bw = report["bandwidth_hz"]
        _require(abs(bw - 80e6) <= 0.15 * 80e6, f"bandwidth {bw:.4g} Hz not 80 MHz +/- 15%")
        cmrr = report["cmrr_db"]
        _require(abs(cmrr - 63.0) <= 1.0, f"CMRR {cmrr:.3f} dB not 63 +/- 1 dB")
        stab = report["stability_interval_s"]
        _require(1.0 <= stab <= 4.0, f"stability interval {stab:.3f} s not in [1, 4] s")
        tbp = report["tbp"]
        _require(0.8e8 <= tbp <= 3.2e8, f"TBP {tbp:.4g} not within x2 of 1.6e8")
        snr = report["snr_db"]
        _require(snr is not None and abs(snr - 14.5) <= SNR_TOL_DB,
                 f"SNR {snr} dB not 14.5 +/- {SNR_TOL_DB} dB")
    return results


def _tomography_results(out_dir: str) -> dict:
    results = _read_json(out_dir, "summary.json")
    with open(os.path.join(out_dir, "photon_stats.csv"), newline="") as fh:
        probs = {int(row["n"]): float(row["p"]) for row in csv.DictReader(fh)}
    results["p1"] = probs[1]
    return results


def _check_coherent(out_dir: str, n_pulses: int, full: bool) -> dict:
    results = _tomography_results(out_dir)
    if full:
        fid = results["fidelity"]
        _require(results["converged"], "MLE did not converge")
        _require(fid is not None and fid >= COHERENT_1K_FIDELITY_FLOOR,
                 f"fidelity {fid} below floor {COHERENT_1K_FIDELITY_FLOOR}")
    return results


# Limits shared with the acceptance gate where the gate has one.  The SNR
# tolerance and the 1k-sample coherent fidelity floor have no gate value;
# they were set with margin from seeds 0-29 (SNR 14.54-14.76 dB) and 0-39
# (fidelity 0.961-0.997, mean 0.986, sd 0.009).  A broken sampler or MLE
# falls far below the floor.
SNR_TOL_DB = 0.5
COHERENT_1K_FIDELITY_FLOOR = 0.93


@dataclass(frozen=True)
class Workload:
    config: dict
    check: Callable[[str, int, bool], dict]
    smoke_pulses: int

    @property
    def n_pulses(self) -> int:
        return self.config["n_pulses"]


WORKLOADS = {
    "characterize-default": Workload(
        config={"run": "characterize", "n_pulses": 40_000},
        check=_check_characterize,
        smoke_pulses=2_000,
    ),
    "tomo-coherent-random-1k": Workload(
        config={
            "run": "tomography",
            "n_pulses": 1_000,
            "state": {"kind": "coherent", "alpha": 0.86},
            "phases": {"kind": "random"},
            "tomography": {"cutoff": 10},
        },
        check=_check_coherent,
        smoke_pulses=20,
    ),
}
