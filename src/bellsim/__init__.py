"""Simulation toolkit for testing Clauser-Horne inequalities on four-mode light.

Two engines compute the same detection rates: a truncated Fock-space
engine for arbitrary states and a covariance-matrix engine for centered
Gaussian states, cross-validated against each other and against the
closed forms available for coherent states.

Importing the package loads no engine and no numpy; each exported name
imports its submodule on first use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "policy": (
        "BellSimError",
        "ConfigError",
        "DEFAULT_POLICY",
        "DimensionLimitError",
        "NumericalPolicy",
        "TruncationTailError",
    ),
    "fock": (
        "BeamBlockState",
        "DensityOperator",
        "FockBasis",
        "MixedState",
        "OccupationState",
        "coherent_required_cutoff",
        "enumerate_basis",
        "number_state",
        "partial_trace",
        "synthesize_coherent",
        "synthesize_coherent_mixture",
        "two_photon_state",
    ),
    "linear_optics": (
        "MixerOp",
        "PhaseOp",
        "apply_passive",
        "beam_wiring",
        "decompose_passive",
        "entangling_unitary",
        "polarizer_rotation",
    ),
    "detection": (
        "AngleSettings",
        "CoincidenceReport",
        "ScanResult",
        "angle_scan",
        "ch_functional",
        "coincidence_probability",
        "polarizer_apply",
    ),
    "coherent": (
        "ClassicalMixture",
        "CoherentAmplitudes",
        "SuiteReport",
        "classical_nonviolation_suite",
        "mixture_ch",
    ),
    "gaussian": (
        "GaussianState",
        "SqueezedThermalSpec",
        "apply_symplectic",
        "build_squeezed_thermal",
        "embed_passive",
        "fock_equivalent_state",
        "fock_replica",
        "is_squeezed",
        "sweep_rows",
        "variance_matrix",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
