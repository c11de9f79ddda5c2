"""Non-finite and out-of-range inputs at the library's public functions.

Each raises ValueError naming the argument it refuses, or saying what is
wrong with it, before any arithmetic on it can warn, print (LAPACK reports an
illegal value on stderr) or raise another kind of error.
"""

import math
import warnings

import numpy as np
import pytest

from pulsequad.characterization import (
    AllanCurve,
    SpectrumEstimate,
    allan_deviation,
    averaged_allan,
    bandwidth_minus3db,
    cmrr_db,
    correlation_coefficient,
    noise_spectrum,
    time_bandwidth_product,
    variance_vs_power,
)
from pulsequad.detector import TraceBuffer, photons_per_pulse
from pulsequad.extraction import CalibrationScale, QuadratureBatch, segment_pulses
from pulsequad.states import (
    DensityMatrix,
    StateModel,
    fidelity_pure,
    fock_wavefunctions,
    loss_channel,
    sample_quadratures,
    state_density_matrix,
)
from pulsequad.tomography import mle_reconstruct

NAN, INF = math.nan, math.inf


def flat_spectrum(level, bins=257):
    freqs = np.linspace(0.0, 1e9, bins)
    return SpectrumEstimate(freqs=freqs, psd=np.full(bins, level), resolution_hz=freqs[1])


def zero_balanced_line():
    return cmrr_db(flat_spectrum(0.0), flat_spectrum(1.0), 80e6)


# case: (the call, the argument its message must name)
CASES = {
    "time_bandwidth_product NaN bandwidth": (
        lambda: time_bandwidth_product(NAN, 1.0),
        "bandwidth_hz",
    ),
    "time_bandwidth_product infinite bandwidth": (
        lambda: time_bandwidth_product(INF, 1.0),
        "bandwidth_hz",
    ),
    "photons_per_pulse NaN power": (lambda: photons_per_pulse(NAN, 1.0, 1.0), "p_lo"),
    "fidelity_pure NaN target": (
        lambda: fidelity_pure(state_density_matrix(StateModel.vacuum(), 2), [NAN, 0.0]),
        "target",
    ),
    "AllanCurve NaN deviation": (
        lambda: AllanCurve(taus=[1.0, 2.0, 3.0], deviations=[1.0, NAN, 0.5], n_pairs=[4, 2, 1]),
        "deviations",
    ),
    "variance_vs_power NaN variance": (
        lambda: variance_vs_power([(1e-3, 1e-20), (2e-3, NAN), (3e-3, 3e-20)]),
        "points",
    ),
    "variance_vs_power infinite power": (
        lambda: variance_vs_power([(1e-3, 1e-20), (2e-3, 2e-20), (INF, 3e-20)]),
        "points",
    ),
    "noise_spectrum NaN sample": (
        lambda: noise_spectrum([np.r_[np.zeros(200), NAN, np.zeros(55)]], 128, 1e6),
        "samples",
    ),
    "noise_spectrum NaN sample_rate": (
        lambda: noise_spectrum([np.arange(256.0)], 128, NAN),
        "sample_rate",
    ),
    "allan_deviation infinite tau": (
        lambda: allan_deviation(QuadratureBatch(values=np.arange(100.0)), 10.0, [INF]),
        "tau",
    ),
    "segment_pulses infinite t_first": (
        lambda: segment_pulses(TraceBuffer(10.0, 0.0, np.zeros(100)), 0.5, INF, 2.0),
        "t_first",
    ),
    "cmrr_db zero balanced PSD": (zero_balanced_line, "balanced"),
    "mle_reconstruct NaN max_iter": (
        lambda: mle_reconstruct(
            sample_quadratures(StateModel.vacuum(), [0.0], 100, seed=0), 3, max_iter=NAN
        ),
        "max_iter",
    ),
    "TraceBuffer NaN sample": (lambda: TraceBuffer(1.0, 0.0, [0.0, NAN]), "samples"),
    "QuadratureBatch NaN phase": (
        lambda: QuadratureBatch(values=[0.0, 1.0], phases=[0.0, NAN]),
        "phases",
    ),
    "DensityMatrix NaN entry": (lambda: DensityMatrix([[NAN]]), "density matrix"),
}

# case: (the call, what its message must say)
RANGE_CASES = {
    "AllanCurve point with no pair": (
        lambda: AllanCurve(taus=[1.0, 2.0], deviations=[1.0, 0.5], n_pairs=[3, 0]),
        "at least one adjacent pair",
    ),
    "allan_deviation tau below one sample": (
        lambda: allan_deviation(QuadratureBatch(values=np.arange(100.0)), 10.0, [0.05]),
        "shorter than one sample",
    ),
    "averaged_allan of no curves": (lambda: averaged_allan([]), "at least one curve"),
    "correlation_coefficient constant batch": (
        lambda: correlation_coefficient(QuadratureBatch(values=np.ones(10)), 1),
        "zero variance",
    ),
    "bandwidth_minus3db spectra on two grids": (
        lambda: bandwidth_minus3db(flat_spectrum(1.0), flat_spectrum(0.0, bins=129)),
        "common frequency grid",
    ),
    "CalibrationScale zero scale": (
        lambda: CalibrationScale(scale=0.0, offset=0.0, n_cal=10),
        "scale must be positive",
    ),
    "CalibrationScale one pulse": (
        lambda: CalibrationScale(scale=1.0, offset=0.0, n_cal=1),
        "at least two pulses",
    ),
    "segment_pulses one-sample window": (
        lambda: segment_pulses(TraceBuffer(10.0, 0.0, np.zeros(100)), 0.5, 0.0, 0.1),
        "at least two samples",
    ),
    "DensityMatrix not square": (
        lambda: DensityMatrix(np.ones((2, 3)) / 2),
        "square matrix",
    ),
    "DensityMatrix.from_array zero trace": (
        lambda: DensityMatrix.from_array(np.zeros((2, 2))),
        "trace must be positive",
    ),
    "fock_wavefunctions cutoff 0": (
        lambda: fock_wavefunctions(0, [0.0]),
        "cutoff must be at least 1",
    ),
    "loss_channel eta above 1": (
        lambda: loss_channel(state_density_matrix(StateModel.vacuum(), 2), 1.5),
        r"eta must lie in \[0, 1\]",
    ),
}


def check_refusal(capfd, call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_raises_value_error(capfd, case):
    check_refusal(capfd, *CASES[case])


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_out_of_range_input_raises_value_error(capfd, case):
    check_refusal(capfd, *RANGE_CASES[case])
