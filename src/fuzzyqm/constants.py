"""Physical constants and unit conversion for the nucleon-nucleon analysis.

All energies are in MeV, lengths in fm; hbar*c converts between them.  The
eight constants are the deuteron chain's only physical inputs and the only keys
of the CLI's config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

_SCALE_RANGE = (1e-50, 1e50)  # positive constants, --mass, --omega: their squares and 4th powers finite, nonzero
_SPAN = f"within [{_SCALE_RANGE[0]:g}, {_SCALE_RANGE[1]:g}]"


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants entering the deuteron / meson-coupling pipeline.

    Every constant must be finite; ``e0_binding`` must be negative (a bound
    state) and every other constant positive, within ``_SCALE_RANGE``.  A value
    outside its domain raises ValueError naming the field, so no consumer
    checks a constant again.

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

    def __post_init__(self) -> None:
        lo, hi = _SCALE_RANGE
        for name, v in self.as_dict().items():
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            if name == "e0_binding":
                if v >= 0:
                    raise ValueError(f"e0_binding must be negative (a bound state), got {v!r}")
            elif not lo <= v <= hi:
                raise ValueError(f"{name} must be positive, {_SPAN}, got {v!r}")

    @property
    def reduced_mass(self) -> float:
        """Neutron-proton reduced mass in MeV."""
        return self.m_proton * self.m_neutron / (self.m_proton + self.m_neutron)

    @property
    def nucleon_mass(self) -> float:
        """Average nucleon mass in MeV."""
        return 0.5 * (self.m_proton + self.m_neutron)

    def with_overrides(self, **overrides: float) -> "PhysicalConstants":
        """Return a copy with the given fields replaced; an unknown field raises TypeError."""
        return replace(self, **{k: float(v) for k, v in overrides.items()})

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_CONSTANTS = PhysicalConstants()
