"""Pulsed balanced homodyne detector simulator, characterization pipeline
and Fock-basis quantum state tomography."""

__version__ = "0.1.0"

from .detector import (
    DetectorConfig,
    DriftModel,
    TraceBuffer,
    area_scale,
    electronic_only_areas,
    generate_areas,
    photons_per_pulse,
)
from .extraction import (
    CalibrationScale,
    QuadratureBatch,
    apply_calibration,
    calibrate_vacuum,
    pulse_areas,
    segment_pulses,
)
from .characterization import (
    AllanCurve,
    DetectorReport,
    NoiseCurve,
    SpectrumEstimate,
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
)
from .states import (
    DensityMatrix,
    PhotonStatistics,
    StateModel,
    WignerGrid,
    fidelity_pure,
    loss_channel,
    photon_statistics,
    sample_quadratures,
    state_density_matrix,
    wigner,
)
from .tomography import MleResult, mle_reconstruct
