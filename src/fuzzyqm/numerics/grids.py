"""Uniform momentum grids and dense operator matrices on them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NonHermitianError

_UNIFORMITY_RTOL = 1e-12
_HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True)
class MomentumGrid:
    """Uniformly spaced momentum axis, [-P, P] for 1-D problems or [0, P] for S states."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 8:
            raise ValueError(f"grid needs at least 8 points, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):  # every comparison below is False for NaN
            raise ValueError("grid points must be finite")
        steps = np.diff(pts)
        if np.any(steps <= 0):
            raise ValueError("grid points must be strictly increasing")
        h = steps[0]
        # representation error of an N-point axis grows like eps*N, so the
        # per-step tolerance is relative to the spacing and scaled by N
        if np.max(np.abs(steps - h)) > _UNIFORMITY_RTOL * abs(h) * pts.size:
            raise ValueError("grid spacing is not uniform")
        if self.cutoff <= 0:
            raise ValueError("grid cutoff must be positive")

    @classmethod
    def symmetric(cls, n: int, cutoff: float) -> "MomentumGrid":
        """n points on [-cutoff, cutoff], endpoints included."""
        return cls(np.linspace(-cutoff, cutoff, n))

    @property
    def n(self) -> int:
        return int(self.points.size)

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def cutoff(self) -> float:
        return float(max(abs(self.points[0]), abs(self.points[-1])))  # the points increase

    def interior_slice(self) -> slice:
        """Rows away from the boundary, where finite grids cannot represent operators: a tenth at each end."""
        k = max(1, int(round(0.1 * self.n)))
        return slice(k, self.n - k)


@dataclass
class OperatorMatrix:
    """Dense operator on a :class:`MomentumGrid` (dimension n, or n**2 for 2-D problems)."""

    entries: np.ndarray
    grid: MomentumGrid
    hermitian: bool = field(default=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"operator must be square, got shape {a.shape}")
        n = self.grid.n
        if a.shape[0] not in (n, n * n):
            raise ValueError(f"dimension {a.shape[0]} matches neither grid size {n} nor {n * n}")
        self.entries = a
        if self.hermitian:
            scale = np.max(np.abs(a))
            dev = np.max(np.abs(a - a.conj().T))
            if scale > 0 and dev > _HERMITICITY_RTOL * scale:
                raise NonHermitianError(
                    f"matrix tagged hermitian deviates by {dev:.3e} (allowed {_HERMITICITY_RTOL * scale:.3e})"
                )

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])
