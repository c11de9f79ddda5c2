"""Non-finite inputs at the library's public functions.

Each raises ValueError naming the argument it refuses, before any arithmetic
on it can warn, print (LAPACK reports an illegal value on stderr) or raise
another kind of error.
"""

import math
import warnings

import numpy as np
import pytest

from pulsequad.characterization import (
    AllanCurve,
    SpectrumEstimate,
    allan_deviation,
    cmrr_db,
    noise_spectrum,
    time_bandwidth_product,
    variance_vs_power,
)
from pulsequad.detector import TraceBuffer, photons_per_pulse
from pulsequad.extraction import QuadratureBatch, segment_pulses
from pulsequad.states import StateModel, fidelity_pure, sample_quadratures, state_density_matrix
from pulsequad.tomography import mle_reconstruct

NAN, INF = math.nan, math.inf


def zero_balanced_line():
    freqs = np.linspace(0.0, 1e9, 257)
    balanced = SpectrumEstimate(freqs=freqs, psd=np.zeros(freqs.size), resolution_hz=freqs[1])
    blocked = SpectrumEstimate(freqs=freqs, psd=np.ones(freqs.size), resolution_hz=freqs[1])
    return cmrr_db(balanced, blocked, 80e6)


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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_raises_value_error(capfd, case):
    call, argument = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=argument):
            call()
    assert capfd.readouterr() == ("", "")
