"""Physical constants and unit conversion for the nucleon-nucleon analysis.

All energies are in MeV, lengths in fm; hbar*c converts between them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants entering the deuteron / meson-coupling pipeline.

    The meson ranges are inputs, not derived from meson masses: hbar*c / m at
    197.327 MeV fm gives 0.3588, 0.2523 and 1.4135 fm for the sigma (550 MeV),
    omega (782 MeV) and pion (139.6 MeV), while the chain uses the rounded
    0.3596, 0.2529 and 1.43 fm.  The pion range is fixed in the CLI.
    """

    hbar_c: float = 197.327            # MeV fm
    m_proton: float = 938.272          # MeV
    m_neutron: float = 939.565         # MeV
    e0_binding: float = -2.226         # MeV, deuteron ground state
    g_sigma_phenom_sq_over_4pi: float = 7.303
    g_omega_phenom_sq_over_4pi: float = 10.83
    r0_sigma_fm: float = 0.3596        # fm, sigma-exchange range
    r1_omega_fm: float = 0.2529        # fm, omega-exchange range

    @property
    def reduced_mass(self) -> float:
        """Neutron-proton reduced mass in MeV."""
        return self.m_proton * self.m_neutron / (self.m_proton + self.m_neutron)

    @property
    def nucleon_mass(self) -> float:
        """Average nucleon mass in MeV."""
        return 0.5 * (self.m_proton + self.m_neutron)

    def with_overrides(self, **overrides: float) -> "PhysicalConstants":
        """Return a copy with the given fields replaced; unknown keys raise KeyError."""
        known = {f.name for f in fields(self)}
        bad = sorted(set(overrides) - known)
        if bad:
            raise KeyError(f"unknown constants field(s): {', '.join(bad)}")
        return replace(self, **{k: float(v) for k, v in overrides.items()})

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_CONSTANTS = PhysicalConstants()
