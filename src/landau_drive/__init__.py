"""Landau-level dynamics under a time-dependent in-plane electric field.

The evolution operator factorizes into a magnetic translation along the
guiding-center path, the static Landau evolution, and a coherent
level-mixing displacement.  This package computes each factor in closed
form or by controlled numerics, and ships a brute-force integrator that
certifies the factorization to stated tolerances.
"""

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    TruncationError,
    TruncationWarning,
)
from .field_model import (
    ConstantField,
    FieldWaveform,
    InternalScales,
    LinearSinusoidField,
    PhysicalSystem,
    RotatingField,
    SampledField,
    SumField,
    ZeroField,
    eval_field,
    internalize,
    sample_waveform,
)
from .fock_algebra import (
    CoherentAmplitude,
    TruncatedOperator,
    column_unitarity_defect,
    displacement_columns,
    displacement_matrix,
    ladder_ops,
    matrix_exponential,
    suggested_dimension,
)
from .oracle import (
    CheckResult,
    CorpusEntry,
    IntegratorConfig,
    guiding_center_residual,
    heisenberg_residual,
    integrate_schrodinger,
    pi_sector_hamiltonian,
    run_validation,
    validation_corpus,
)
from .path_integrals import (
    DriveEndpoints,
    DrivePath,
    build_drive_path,
    coherent_phase,
    displacement_amplitude,
    drive_endpoints,
    magnetic_phase,
    signed_area,
)
from .propagator import (
    FactorizedPropagator,
    GeometricRecord,
    adiabatic_estimates,
    assemble,
    displacement_argument,
    drive_strength_coefficient,
    evolve_state,
    healthy_dim,
    j_matrix_element,
    level_populations,
    resonance_survival,
    resonance_survival_alt_prefactor,
    transition_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "ConfigError", "DomainError", "TruncationError",
    "TruncationWarning",
    "PhysicalSystem", "InternalScales", "FieldWaveform", "ZeroField",
    "ConstantField", "RotatingField", "LinearSinusoidField", "SampledField",
    "SumField", "eval_field", "internalize", "sample_waveform",
    "TruncatedOperator", "column_unitarity_defect", "CoherentAmplitude",
    "ladder_ops",
    "displacement_matrix", "displacement_columns", "matrix_exponential",
    "suggested_dimension",
    "DrivePath", "signed_area", "magnetic_phase", "coherent_phase",
    "displacement_amplitude", "build_drive_path", "DriveEndpoints",
    "drive_endpoints",
    "FactorizedPropagator", "GeometricRecord", "assemble",
    "displacement_argument", "j_matrix_element", "transition_probabilities",
    "level_populations", "adiabatic_estimates", "resonance_survival",
    "resonance_survival_alt_prefactor", "drive_strength_coefficient",
    "evolve_state", "healthy_dim",
    "IntegratorConfig", "pi_sector_hamiltonian", "integrate_schrodinger",
    "heisenberg_residual", "guiding_center_residual", "CorpusEntry",
    "validation_corpus", "CheckResult", "run_validation",
]
