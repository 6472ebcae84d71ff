"""Momentum-space quantum mechanics of Gaussian-smeared (fuzzy) operators."""

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .deuteron import (
    CalibrationResult,
    CoreRadiusResult,
    CouplingReport,
    ProblemTemplate,
    RangeDepthPoint,
    calibrate_smearing_mass,
    core_radius,
    coupling_report,
    effective_potential,
    energy_expectation,
    exact_depth,
    repulsive_strength,
    solve_depth,
)
from .operators import (
    GridState,
    SmearingParams,
    UncertaintyReport,
    fuzzy_angular_eigenvalue,
    uncertainty_report,
    verify_commutator_xf_p,
    verify_spacetime_commutator,
)
from .oscillator import (
    OscillatorSpec,
    SpectrumResult,
    anharmonic_spectrum_formula,
    eigenfunction,
    harmonic_spectrum_formula,
    numeric_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "CoreRadiusResult",
    "CouplingReport",
    "DEFAULT_CONSTANTS",
    "GridState",
    "OscillatorSpec",
    "PhysicalConstants",
    "ProblemTemplate",
    "RangeDepthPoint",
    "SmearingParams",
    "SpectrumResult",
    "UncertaintyReport",
    "anharmonic_spectrum_formula",
    "calibrate_smearing_mass",
    "core_radius",
    "coupling_report",
    "effective_potential",
    "eigenfunction",
    "energy_expectation",
    "exact_depth",
    "fuzzy_angular_eigenvalue",
    "harmonic_spectrum_formula",
    "numeric_spectrum",
    "repulsive_strength",
    "solve_depth",
    "uncertainty_report",
    "verify_commutator_xf_p",
    "verify_spacetime_commutator",
]
