"""Pulsed balanced homodyne detector simulator, characterization pipeline
and Fock-basis quantum state tomography."""

__version__ = "0.1.0"

from .detector import (
    DetectorConfig,
    DriftModel,
    GroundTruth,
    TraceBuffer,
    area_scale,
    electronic_only_trace,
    generate_trace,
    photons_per_pulse,
    single_diode_trace,
)
from .extraction import (
    CalibrationScale,
    QuadratureBatch,
    apply_calibration,
    calibrate_vacuum,
    integrate_pulse,
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
    fock_wavefunction,
    loss_channel,
    photon_statistics,
    quadrature_pdf,
    sample_quadratures,
    state_density_matrix,
    wigner,
)
from .tomography import (
    MleResult,
    mle_reconstruct,
    symmetry_offset_check,
)
