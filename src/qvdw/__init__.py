"""qvdw: coupled qubit-oscillator spectra, dispersion shifts and entanglement.

Numerical models of how a polarizable body shifts a qubit's transition
frequency, cross-validated four ways: the microscopic qubit + field + dipole
Hamiltonian on truncated Fock spaces, a generic second-order perturbation
engine, the London coupled-oscillator model with its closed-form R^-6 ground
shift, and entanglement/Bell quantities (Gaussian logarithmic negativity
with a Fock oracle, concurrence, maximal CHSH value).

Reduced units throughout: hbar = 1.
"""

__version__ = "0.1.0"

from .entanglement import (
    GaussianTwoModeState,
    TwoQubitState,
    bell_state,
    chsh_max,
    concurrence,
    correlation_matrix,
    ground_state_covariance,
    log_negativity_gaussian,
    negativity_fock_oracle,
    symplectic_eigenvalues,
)
from .errors import (
    DegeneracyError,
    DimensionLimitError,
    FitError,
    HermiticityError,
    IdentificationError,
    InvalidStateError,
    ModelError,
    NearResonanceError,
    TruncationError,
    UncertaintyViolationError,
    UnstableConfigurationError,
)
from .full_model import (
    FullModelConfig,
    ShiftReport,
    build_h0,
    build_hint,
    dispersive_single_mode,
    dressed_transition,
    refractive_modulation,
)
from .operators import HermitianOperator, ladder, pauli, quadratures
from .perturbation import PerturbationResult, second_order_shift, transition_shift
from .vdw import (
    ConvergedValue,
    ExcitedStateShift,
    NormalModes,
    VdwConfig,
    config_for_coupling,
    coupling_ratio,
    dipole_coupling_lambda,
    exact_ground_shift,
    excited_state_shift,
    matrix_element_x1x2,
    normal_modes,
    perturbative_ground_shift,
    polarizability,
    vdw_fock_oracle,
)

__all__ = [
    "__version__",
    # operators
    "HermitianOperator", "ladder", "pauli", "quadratures",
    # perturbation
    "PerturbationResult", "second_order_shift", "transition_shift",
    # full model
    "FullModelConfig", "ShiftReport", "build_h0", "build_hint",
    "dressed_transition", "dispersive_single_mode", "refractive_modulation",
    # effective two-oscillator model
    "VdwConfig", "NormalModes", "ExcitedStateShift", "ConvergedValue",
    "config_for_coupling", "dipole_coupling_lambda", "coupling_ratio",
    "normal_modes", "exact_ground_shift", "perturbative_ground_shift",
    "matrix_element_x1x2", "excited_state_shift", "polarizability",
    "vdw_fock_oracle",
    # entanglement
    "GaussianTwoModeState", "TwoQubitState", "ground_state_covariance",
    "log_negativity_gaussian", "negativity_fock_oracle", "symplectic_eigenvalues",
    "concurrence", "chsh_max", "correlation_matrix", "bell_state",
    # errors
    "ModelError", "TruncationError", "HermiticityError", "DegeneracyError",
    "NearResonanceError", "IdentificationError", "DimensionLimitError",
    "UnstableConfigurationError", "InvalidStateError",
    "UncertaintyViolationError", "FitError",
]
