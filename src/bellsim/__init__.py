"""Simulation toolkit for testing Clauser-Horne inequalities on four-mode light.

Two engines compute the same detection rates: a truncated Fock-space
engine for arbitrary states and a covariance-matrix engine for centered
Gaussian states, cross-validated against each other and against the
closed forms available for coherent states.
"""

from .policy import (
    BellSimError,
    ConfigError,
    DEFAULT_POLICY,
    DimensionLimitError,
    NumericalPolicy,
    TruncationTailError,
)
from .fock import (
    DensityOperator,
    FockBasis,
    OccupationState,
    apply_annihilation,
    apply_creation,
    bunched_pair_state,
    coherent_required_cutoff,
    enumerate_basis,
    expectation,
    number_operator,
    number_state,
    partial_trace,
    synthesize_coherent,
    two_photon_state,
    vacuum_state,
)
from .linear_optics import (
    MixerOp,
    PhaseOp,
    apply_passive,
    apply_single_mode_squeeze,
    beam_wiring,
    decompose_passive,
    entangling_unitary,
    polarizer_rotation,
    recompose,
    squeezed_vacuum_amplitudes,
)
from .detection import (
    AngleSettings,
    CoincidenceReport,
    ScanResult,
    angle_scan,
    ch_functional,
    coincidence_probability,
    polarizer_apply,
    prob_at_least_one,
    vacuum_probability,
)
from .coherent import (
    ClassicalMixture,
    CoherentAmplitudes,
    SuiteReport,
    classical_nonviolation_suite,
    coherent_ch,
    mixture_ch,
)
from .gaussian import (
    GaussianState,
    SqueezedThermalSpec,
    apply_symplectic,
    build_squeezed_thermal,
    embed_passive,
    fock_equivalent_state,
    gaussian_ch,
    is_squeezed,
    sweep_rows,
    variance_matrix,
)

__version__ = "0.1.0"
