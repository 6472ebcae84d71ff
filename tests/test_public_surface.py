"""Every exported name resolves, so an export cannot outlive the code it names; the exports are pinned."""

import importlib

import pytest

EXPORTS = {
    "fuzzyqm": [
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
    ],
    "fuzzyqm.numerics": [
        "MomentumGrid",
        "OperatorMatrix",
        "apply_d1",
        "derivative_matrix",
        "golden_section",
    ],
}


@pytest.mark.parametrize("module", ["fuzzyqm", "fuzzyqm.numerics"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_are_pinned(module):
    # adding or removing an export must show as a diff of this list
    assert EXPORTS[module] == sorted(EXPORTS[module])
    assert importlib.import_module(module).__all__ == EXPORTS[module]
