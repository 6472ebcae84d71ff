"""Uniform momentum grids and dense operator matrices on them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NonHermitianError

_HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True)
class MomentumGrid:
    """``n`` evenly spaced momenta on [-cutoff, cutoff], endpoints included; hashable on (n, cutoff).

    Every problem here is even under p -> -p, and the oscillator splits its
    grid into an even and an odd block, so each point has its mirror.
    ``points`` is built once, read-only, and not compared.
    """

    n: int
    cutoff: float
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ValueError(f"grid needs at least 8 points, got {self.n}")
        if not 0.0 < self.cutoff < np.inf:  # also refuses nan
            raise ValueError(f"grid cutoff must be finite and positive, got {self.cutoff!r}")
        pts = np.linspace(-self.cutoff, self.cutoff, self.n)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def symmetric(cls, n: int, cutoff: float) -> "MomentumGrid":
        """n points on [-cutoff, cutoff], endpoints included."""
        return cls(n, cutoff)

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    def interior_slice(self) -> slice:
        """Rows away from the boundary, where finite grids cannot represent operators: a tenth at each end."""
        k = max(1, int(round(0.1 * self.n)))
        return slice(k, self.n - k)


@dataclass
class OperatorMatrix:
    """Dense n x n operator on a :class:`MomentumGrid`."""

    entries: np.ndarray
    grid: MomentumGrid
    hermitian: bool = field(default=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.entries)
        n = self.grid.n
        if a.shape != (n, n):
            raise ValueError(f"operator of shape {a.shape} does not match the grid's dimension {n}")
        self.entries = a
        if self.hermitian:
            scale = np.max(np.abs(a))
            dev = np.max(np.abs(a - a.conj().T))
            if scale > 0 and dev > _HERMITICITY_RTOL * scale:
                raise NonHermitianError(
                    f"matrix tagged hermitian deviates by {dev:.3e} (allowed {_HERMITICITY_RTOL * scale:.3e})"
                )
